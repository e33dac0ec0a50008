package repro.core

/** One row of `winit = r ⟕_{θ ∧ θo} s` (paper §VI-A, Fig. 5), typed.
  *
  * `fr`/`fs` are the facts packed as JSON strings, `lr`/`ls` the lineage
  * strings, `pr`/`ps` the probabilities, `[rts, rte)` the interval of the
  * generating `r` tuple and `[os, oe)` the overlap interval. The `s`-side
  * fields are `None` for `r` tuples that matched nothing (the conventional
  * outer join's null-padded rows).
  */
final case class XRow(
    fr: String, lr: String, pr: Double, rts: Long, rte: Long,
    fs: Option[String], ls: Option[String], ps: Option[Double],
    os: Option[Long], oe: Option[Long])

/** A matching `s` tuple clipped to the `r` tuple: one overlapping window. */
final case class SMatch(fs: String, ls: String, ps: Double, os: Long, oe: Long)

/** A generalized lineage-aware temporal window (paper Def. 1 / Table II).
  *
  * `kind` is `"U"` (unmatched), `"O"` (overlapping) or `"N"` (negating).
  * For `O` windows `lsLins`/`lsProbs` hold the single matching `s` tuple;
  * for `N` windows they hold every valid matching `s` tuple over `[ts, te)`
  * (λs is their disjunction); for `U` windows they are empty.
  */
final case class Win(
    fr: String, fs: Option[String], lr: String, pr: Double,
    lsLins: Seq[String], lsProbs: Seq[Double],
    ts: Long, te: Long, kind: String)

/** LAWA-U and LAWA-N: per-group window computation (paper Alg. 1 & 2).
  *
  * The group is a single `r` tuple together with all its winit match rows.
  * Inputs are duplicate-free TP relations, so tuples of `r` with equal facts
  * have disjoint intervals and groups never interact — which is what makes
  * the sweep embarrassingly parallel across `r` tuples (one `flatMapGroups`
  * partition-local pass in Spark).
  *
  * Both sweeps follow the paper's incremental design: overlapping windows are
  * taken verbatim from winit (computed once by the conventional join), and
  * unmatched/negating windows are derived from them with a single pass and no
  * further interval joins. LAWA-N's priority queue over ending points appears
  * here as the ordered event sweep over `{Os} ∪ {Oe}`.
  */
object GroupWindows {

  /** Deterministic processing order of a group's matches (paper: sort on Os). */
  def sortMatches(ms: Seq[SMatch]): Seq[SMatch] =
    ms.sortBy(m => (m.os, m.oe, m.ls))

  /** LAWA-U: the unmatched and overlapping windows of one `r` tuple.
    *
    * Sweeps the sorted matches left-to-right, tracking the right frontier of
    * the covered region; a gap before the next overlap (or after the last)
    * yields an unmatched window (paper Alg. 1 cases 2–5), each match yields
    * its overlapping window verbatim (case 1), unless `withO` is false.
    * Output is sorted by window start.
    */
  def uo(fr: String, lr: String, pr: Double, rts: Long, rte: Long,
         matches: Seq[SMatch], withO: Boolean = true): Vector[Win] = {
    val sorted = sortMatches(matches)
    val out = Vector.newBuilder[Win]
    var cover = rts
    for (m <- sorted) {
      if (m.os > cover)
        out += Win(fr, None, lr, pr, Nil, Nil, cover, m.os, "U")
      if (withO)
        out += Win(fr, Some(m.fs), lr, pr, Seq(m.ls), Seq(m.ps), m.os, m.oe, "O")
      if (m.oe > cover) cover = m.oe
    }
    if (cover < rte)
      out += Win(fr, None, lr, pr, Nil, Nil, cover, rte, "U")
    out.result()
  }

  /** LAWA-N: the negating windows of one `r` tuple.
    *
    * Event sweep over all overlap boundaries: between two consecutive
    * boundary points the set of valid matching `s` tuples is constant; every
    * non-empty segment is a negating window whose λs is the disjunction of
    * the active lineages (paper Alg. 2: the priority queue delivers the next
    * ending point, the input order the next starting point). Windows are
    * maximal by construction — any boundary is a change in the valid set, so
    * adjacent windows have non-equivalent λs (TP change preservation).
    */
  def negating(fr: String, lr: String, pr: Double,
               matches: Seq[SMatch]): Vector[Win] = {
    if (matches.isEmpty) return Vector.empty
    val indexed  = sortMatches(matches).zipWithIndex
    val startsAt = indexed.groupBy(_._1.os)
    val endsAt   = indexed.groupBy(_._1.oe)
    val points   = (startsAt.keySet ++ endsAt.keySet).toVector.sorted
    // Active valid matches, ordered by lineage string so λs disjuncts come
    // out in deterministic (sorted) order; the index disambiguates matches
    // that happen to carry equal lineage strings.
    val active = scala.collection.mutable.TreeMap.empty[(String, Int), Double]
    val out = Vector.newBuilder[Win]
    for (i <- 0 until points.length - 1) {
      val p = points(i)
      // Half-open intervals: a tuple ending at p is no longer valid at p,
      // so removals precede additions.
      endsAt.getOrElse(p, Nil).foreach { case (m, ix) => active.remove((m.ls, ix)) }
      startsAt.getOrElse(p, Nil).foreach { case (m, ix) => active((m.ls, ix)) = m.ps }
      if (active.nonEmpty)
        out += Win(fr, None, lr, pr,
                   active.keysIterator.map(_._1).toVector,
                   active.valuesIterator.toVector,
                   p, points(i + 1), "N")
    }
    out.result()
  }

  /** All windows of one group: WU ∪ WO ∪ WN (paper Alg. 3's per-group work). */
  def all(fr: String, lr: String, pr: Double, rts: Long, rte: Long,
          matches: Seq[SMatch]): Vector[Win] =
    uo(fr, lr, pr, rts, rte, matches) ++ negating(fr, lr, pr, matches)

  /** The windows of one group that an anti join outputs: WU ∪ WN. */
  def un(fr: String, lr: String, pr: Double, rts: Long, rte: Long,
         matches: Seq[SMatch]): Vector[Win] =
    uo(fr, lr, pr, rts, rte, matches, withO = false) ++ negating(fr, lr, pr, matches)

  /** Group one `r` tuple's winit rows into its match list.
    *
    * Returns the `r`-tuple header plus the (possibly empty) matches; null-
    * padded rows (no `s` partner) contribute no match.
    */
  def toMatches(rows: Seq[XRow]): Seq[SMatch] =
    rows.flatMap { x =>
      for (fs <- x.fs; ls <- x.ls; ps <- x.ps; os <- x.os; oe <- x.oe)
        yield SMatch(fs, ls, ps, os, oe)
    }
}
