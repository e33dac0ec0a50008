package repro.core

/** A matching inner tuple clipped to the outer tuple: its lineage,
  * probability and the overlap `[os, oe)`, one overlapping window.
  */
final case class Match(ls: String, ps: Double, os: Long, oe: Long)

/** A generalized lineage-aware temporal window of one group (paper Def. 1 /
  * Table II) over `[ts, te)`, one case per kind. A window names its matches
  * by position in the group's match list.
  */
sealed trait Window
object Window {
  /** An unmatched window: no match is valid over `[ts, te)`. */
  final case class U(ts: Long, te: Long) extends Window
  /** An overlapping window: the intersection with match `m`. */
  final case class O(ts: Long, te: Long, m: Int) extends Window
  /** A negating window: λs is the disjunction of the valid set `ms`. */
  final case class N(ts: Long, te: Long, ms: Seq[Int]) extends Window
}

/** LAWA-U and LAWA-N in one boundary sweep per group (paper Alg. 1 & 2).
  *
  * The group is a single outer tuple together with its matches from the
  * CLJ. Inputs are duplicate-free TP relations, so outer tuples with equal
  * facts have disjoint intervals and groups never interact — which is what
  * makes the sweep embarrassingly parallel across outer tuples (one kernel
  * call per group of NJ's `groupBy`). As in the paper, overlapping windows
  * are taken verbatim from the CLJ and the unmatched/negating windows are
  * derived from them, with no further interval joins. No facts enter the
  * kernel: a window names its matches by position.
  */
object GroupWindows {

  /** The windows of one outer tuple `lr` over `[rts, rte)`, of the kinds
    * `mode` emits, ordered by start.
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
  def windows(lr: String, pr: Double, rts: Long, rte: Long,
              matches: IndexedSeq[Match], mode: NegationJoin.Mode): Vector[Window] = {
    require(lr != null, s"an r tuple over [$rts, $rte) has a null lineage")
    require(rts < rte, s"r tuple $lr has the empty or inverted interval [$rts, $rte)")
    require(0 <= pr && pr <= 1, s"r tuple $lr has probability $pr outside [0, 1]")
    // A match outside [rts, rte) would never be reached by the boundary walk.
    matches.foreach { m =>
      require(rts <= m.os && m.os < m.oe && m.oe <= rte,
        s"match ${m.ls} over [${m.os}, ${m.oe}) is not a non-empty part of [$rts, $rte)")
      require(0 <= m.ps && m.ps <= 1, s"s tuple ${m.ls} has probability ${m.ps} outside [0, 1]")
    }
    val n = matches.length
    val byStart = Array.range(0, n).sortBy(k => (matches(k).os, matches(k).oe, matches(k).ls))
    val byEnd = byStart.sortBy(matches(_).oe)
    // The active set holds the matches' ranks in (ls, index) order.
    val byLin = byStart.sortBy(k => (matches(k).ls, k))
    val rank = new Array[Int](n)
    byLin.indices.foreach(x => rank(byLin(x)) = x)
    val active = new java.util.BitSet(n)
    val out = Vector.newBuilder[Window]
    var p = rts
    var i, j = 0
    while (p < rte) {
      while (j < n && matches(byEnd(j)).oe == p) { active.clear(rank(byEnd(j))); j += 1 }
      while (i < n && matches(byStart(i)).os == p) {
        val k = byStart(i)
        active.set(rank(k))
        if (mode.o) out += Window.O(p, matches(k).oe, k)
        i += 1
      }
      val next = math.min(if (i < n) matches(byStart(i)).os else rte,
                          if (j < n) matches(byEnd(j)).oe else rte)
      if (active.isEmpty) { if (mode.u) out += Window.U(p, next) }
      else if (mode.n) out += Window.N(p, next, active.stream.toArray.toVector.map(byLin(_)))
      p = next
    }
    out.result()
  }

  // ------------------------------------------- layer views for perfbench

  // perfbench compiles against this per-group API of JSON-packed facts and
  // is frozen; nothing NJ or the figure harness runs calls it.

  /** All windows of one group as [[Win]]s: WU ∪ WO ∪ WN. */
  def all(fr: String, lr: String, pr: Double, rts: Long, rte: Long,
          matches: Seq[SMatch]): Vector[Win] =
    wins(fr, lr, pr, rts, rte, matches, NegationJoin.Mode.All)

  /** The windows of one group of the kinds `mode` emits, as [[Win]]s. */
  def wins(fr: String, lr: String, pr: Double, rts: Long, rte: Long,
           matches: Seq[SMatch], mode: NegationJoin.Mode): Vector[Win] = {
    val ms = matches.toIndexedSeq
    windows(lr, pr, rts, rte, ms.map(m => Match(m.ls, m.ps, m.os, m.oe)), mode).map {
      case Window.U(ts, te) => Win(fr, None, lr, pr, Nil, Nil, ts, te, "U")
      case Window.O(ts, te, k) => Win(fr, Some(ms(k).fs), lr, pr, Seq(ms(k).ls), Seq(ms(k).ps), ts, te, "O")
      case Window.N(ts, te, ks) => Win(fr, None, lr, pr, ks.map(ms(_).ls), ks.map(ms(_).ps), ts, te, "N")
    }
  }

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

/** One row of `winit = r ⟕_{θ ∧ θo} s` with the facts packed as JSON (a
  * perfbench view of [[NegationJoin.clj]]). The `s`-side fields are `None`
  * for `r` tuples that matched nothing.
  */
final case class XRow(
    fr: String, lr: String, pr: Double, rts: Long, rte: Long,
    fs: Option[String], ls: Option[String], ps: Option[Double],
    os: Option[Long], oe: Option[Long])

/** A [[Match]] with its `s` facts packed as JSON. */
final case class SMatch(fs: String, ls: String, ps: Double, os: Long, oe: Long)

/** A [[Window]] with the group's facts (JSON) and its matches' lineages and
  * probabilities spelled out.
  */
final case class Win(
    fr: String, fs: Option[String], lr: String, pr: Double,
    lsLins: Seq[String], lsProbs: Seq[Double],
    ts: Long, te: Long, kind: String)
