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

/** LAWA-U and LAWA-N in one boundary sweep per group (paper Alg. 1 & 2).
  *
  * The group is a single `r` tuple together with all its winit match rows.
  * Inputs are duplicate-free TP relations, so tuples of `r` with equal facts
  * have disjoint intervals and groups never interact — which is what makes
  * the sweep embarrassingly parallel across `r` tuples (one `flatMapGroups`
  * partition-local pass in Spark). As in the paper, overlapping windows are
  * taken verbatim from winit and the unmatched/negating windows are derived
  * from them, with no further interval joins.
  */
object GroupWindows {

  /** The windows of one `r` tuple over `[rts, rte)`, of the kinds `mode`
    * emits, ordered by start.
    *
    * The matches are sorted once on `(os, oe, ls)` (paper: input sorted on
    * Os), their ends kept in a second order (LAWA-N's priority queue on Oe).
    * At each boundary from `rts` to `rte` the sweep removes the matches that
    * end there, then adds those that start there (half-open intervals),
    * emitting an O window per added match. Up to the next boundary the valid
    * set is constant (Table II): empty makes a U window, non-empty an N
    * window with λs the disjunction of the active lineages in `(ls, index)`
    * order. Every boundary changes the valid set, so U and N windows are
    * maximal (TP change preservation).
    */
  def windows(fr: String, lr: String, pr: Double, rts: Long, rte: Long,
              matches: Seq[SMatch], mode: NegationJoin.Mode): Vector[Win] = {
    require(lr != null, s"an r tuple over [$rts, $rte) has a null lineage")
    require(rts < rte, s"r tuple $lr has the empty or inverted interval [$rts, $rte)")
    require(0 <= pr && pr <= 1, s"r tuple $lr has probability $pr outside [0, 1]")
    // A match outside [rts, rte) would never be reached by the boundary walk.
    matches.foreach { m =>
      require(rts <= m.os && m.os < m.oe && m.oe <= rte,
        s"match ${m.ls} over [${m.os}, ${m.oe}) is not a non-empty part of [$rts, $rte)")
      require(0 <= m.ps && m.ps <= 1, s"s tuple ${m.ls} has probability ${m.ps} outside [0, 1]")
    }
    val byStart = matches.sortBy(m => (m.os, m.oe, m.ls)).toArray
    val n = byStart.length
    val byEnd = Array.range(0, n).sortBy(byStart(_).oe)
    // The active set holds the matches' ranks in (ls, index) order.
    val byLin = Array.range(0, n).sortBy(i => (byStart(i).ls, i))
    val rank = new Array[Int](n)
    byLin.indices.foreach(k => rank(byLin(k)) = k)
    val active = new java.util.BitSet(n)
    val out = Vector.newBuilder[Win]
    var p = rts
    var i, j = 0
    while (p < rte) {
      while (j < n && byStart(byEnd(j)).oe == p) { active.clear(rank(byEnd(j))); j += 1 }
      while (i < n && byStart(i).os == p) {
        val m = byStart(i)
        active.set(rank(i))
        if (mode.o) out += Win(fr, Some(m.fs), lr, pr, Seq(m.ls), Seq(m.ps), m.os, m.oe, "O")
        i += 1
      }
      val next = math.min(if (i < n) byStart(i).os else rte, if (j < n) byStart(byEnd(j)).oe else rte)
      if (active.isEmpty) { if (mode.u) out += Win(fr, None, lr, pr, Nil, Nil, p, next, "U") }
      else if (mode.n) {
        val ms = active.stream.toArray.map(k => byStart(byLin(k)))
        out += Win(fr, None, lr, pr, ms.map(_.ls).toVector, ms.map(_.ps).toVector, p, next, "N")
      }
      p = next
    }
    out.result()
  }

  /** All windows of one group: WU ∪ WO ∪ WN (paper Alg. 3's per-group work). */
  def all(fr: String, lr: String, pr: Double, rts: Long, rte: Long,
          matches: Seq[SMatch]): Vector[Win] =
    windows(fr, lr, pr, rts, rte, matches, NegationJoin.Mode.All)

  /** One `r` tuple's winit rows as its (possibly empty) match list; null-
    * padded rows (no `s` partner) contribute no match. A matching `s` tuple
    * with a null `lin` or `p` is rejected.
    */
  def toMatches(rows: Seq[XRow]): Seq[SMatch] =
    rows.flatMap { x =>
      for (fs <- x.fs; os <- x.os; oe <- x.oe) yield {
        require(x.ls.isDefined && x.ps.isDefined,
          s"an s tuple matching r tuple ${x.lr} over [$os, $oe) has a null lin or p")
        SMatch(fs, x.ls.get, x.ps.get, os, oe)
      }
    }
}
