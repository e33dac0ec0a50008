package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Unit tests for the pure per-group window kernel (LAWA-U / LAWA-N in
  * one sweep), including a brute-force cross-check against the Table II
  * definitions, and for the kernel's perfbench views.
  */
class GroupWindowsSpec extends AnyFunSuite {

  private def m(ls: String, os: Long, oe: Long, ps: Double = 0.5) = Match(ls, ps, os, oe)

  /** A kernel window with its matches' lineages and probabilities spelled out. */
  private case class W(kind: String, ts: Long, te: Long, lsLins: Seq[String], lsProbs: Seq[Double])

  private def windows(ts: Long, te: Long, ms: Seq[Match], mode: NegationJoin.Mode): Vector[W] =
    GroupWindows.windows("r1", 0.5, ts, te, ms.toIndexedSeq, mode).map {
      case Window.U(ts, te) => W("U", ts, te, Nil, Nil)
      case Window.O(ts, te, k) => W("O", ts, te, Seq(ms(k).ls), Seq(ms(k).ps))
      case Window.N(ts, te, ks) => W("N", ts, te, ks.map(ms(_).ls), ks.map(ms(_).ps))
    }

  private val modes = {
    import NegationJoin.Mode._
    Seq(UO, N, UN, All)
  }

  private def uo(ts: Long, te: Long, ms: Match*) = windows(ts, te, ms, NegationJoin.Mode.UO)
  private def neg(ms: Match*) = {
    val (ts, te) = if (ms.isEmpty) (0L, 1L) else (ms.map(_.os).min, ms.map(_.oe).max)
    windows(ts, te, ms, NegationJoin.Mode.N)
  }

  private def uiv(ws: Seq[W]) = ws.filter(_.kind == "U").map(w => (w.ts, w.te))
  private def oiv(ws: Seq[W]) = ws.filter(_.kind == "O").map(w => (w.lsLins.head, w.ts, w.te))
  private def niv(ws: Seq[W]) = ws.map(w => (w.lsLins.mkString("|"), w.ts, w.te))

  // --------------------------------------------------------------- LAWA-U

  test("no matches: whole interval is one unmatched window") {
    val ws = uo(2, 9)
    assert(ws.map(w => (w.kind, w.ts, w.te)) == Vector(("U", 2L, 9L)))
  }

  test("paper group (a1 with b3,b2): U [2,4) + O [4,6) + O [5,8)") {
    val ws = uo(2, 8, m("b3", 4, 6), m("b2", 5, 8))
    assert(uiv(ws) == Vector((2L, 4L)))
    assert(oiv(ws) == Vector(("b3", 4L, 6L), ("b2", 5L, 8L)))
  }

  test("gap at the end") {
    val ws = uo(0, 10, m("y", 0, 4))
    assert(uiv(ws) == Vector((4L, 10L)))
  }

  test("gap in the middle") {
    val ws = uo(0, 10, m("y1", 0, 3), m("y2", 7, 10))
    assert(uiv(ws) == Vector((3L, 7L)))
  }

  test("gaps on both sides of a single overlap") {
    val ws = uo(0, 10, m("y", 4, 6))
    assert(uiv(ws) == Vector((0L, 4L), (6L, 10L)))
  }

  test("touching overlaps leave no gap") {
    val ws = uo(0, 10, m("y1", 0, 5), m("y2", 5, 10))
    assert(uiv(ws).isEmpty)
    assert(oiv(ws) == Vector(("y1", 0L, 5L), ("y2", 5L, 10L)))
  }

  test("contained overlap does not shrink the covered frontier") {
    // y2 ⊂ y1: after y1 the frontier is 8; the gap starts at 8, not at y2.oe
    val ws = uo(0, 10, m("y1", 0, 8), m("y2", 2, 4))
    assert(uiv(ws) == Vector((8L, 10L)))
  }

  test("equal starting points are both emitted, sorted deterministically") {
    val ws = uo(0, 10, m("y2", 0, 6), m("y1", 0, 4))
    assert(oiv(ws) == Vector(("y1", 0L, 4L), ("y2", 0L, 6L)))
    assert(uiv(ws) == Vector((6L, 10L)))
  }

  test("overlap covering the whole tuple leaves no unmatched window") {
    val ws = uo(3, 7, m("y", 3, 7))
    assert(uiv(ws).isEmpty && oiv(ws) == Vector(("y", 3L, 7L)))
  }

  test("uo output is sorted by window start") {
    val ws = uo(0, 20, m("y2", 8, 12), m("y1", 2, 5), m("y3", 15, 20))
    assert(ws.map(_.ts) == ws.map(_.ts).sorted)
    assert(uiv(ws) == Vector((0L, 2L), (5L, 8L), (12L, 15L)))
  }

  test("uo carries the group's fact, lineage and probability") {
    // the kernel carries no facts; its perfbench view all() spells them out
    val ws = GroupWindows.all("R", "r1", 0.5, 0, 4, Seq(SMatch("F", "y", 0.5, 1, 2)))
    assert(ws.forall(w => w.fr == "R" && w.lr == "r1" && w.pr == 0.5))
    assert(ws.filter(_.kind == "O").forall(_.fs.contains("F")))
    assert(ws.filter(_.kind == "U").forall(_.fs.isEmpty))
  }

  // --------------------------------------------------------------- LAWA-N

  test("no matches: no negating windows") { assert(neg().isEmpty) }

  test("single overlap yields one negating window over the overlap") {
    assert(niv(neg(m("y", 3, 6))) == Vector(("y", 3L, 6L)))
  }

  test("paper group: negating windows w5, w6, w7") {
    val ws = neg(m("b3", 4, 6), m("b2", 5, 8))
    assert(niv(ws) == Vector(("b3", 4L, 5L), ("b2|b3", 5L, 6L), ("b2", 6L, 8L)))
  }

  test("nested overlaps split at inner boundaries") {
    val ws = neg(m("y1", 0, 10), m("y2", 3, 5))
    assert(niv(ws) == Vector(("y1", 0L, 3L), ("y1|y2", 3L, 5L), ("y1", 5L, 10L)))
  }

  test("disjoint overlaps yield disjoint negating windows, no empty segment") {
    val ws = neg(m("y1", 0, 3), m("y2", 7, 9))
    assert(niv(ws) == Vector(("y1", 0L, 3L), ("y2", 7L, 9L)))
  }

  test("adjacent overlaps switch lineage exactly at the boundary") {
    val ws = neg(m("y1", 0, 4), m("y2", 4, 8))
    assert(niv(ws) == Vector(("y1", 0L, 4L), ("y2", 4L, 8L)))
  }

  test("identical intervals produce one combined negating window") {
    val ws = neg(m("y1", 2, 6), m("y2", 2, 6))
    assert(niv(ws) == Vector(("y1|y2", 2L, 6L)))
  }

  test("λs disjuncts come out sorted by lineage string") {
    val ws = neg(m("z", 0, 4), m("a", 0, 4))
    assert(ws.head.lsLins == Vector("a", "z"))
  }

  test("negating windows carry the probabilities aligned with lineages") {
    val ws = neg(m("b", 0, 4, ps = 0.25), m("a", 0, 4, ps = 0.75))
    assert(ws.head.lsLins == Vector("a", "b"))
    assert(ws.head.lsProbs == Vector(0.75, 0.25))
  }

  test("three-way stack: every boundary is a change point") {
    val ws = neg(m("y1", 0, 4), m("y2", 2, 8), m("y3", 6, 10))
    assert(niv(ws) == Vector(
      ("y1", 0L, 2L), ("y1|y2", 2L, 4L), ("y2", 4L, 6L),
      ("y2|y3", 6L, 8L), ("y3", 8L, 10L)))
  }

  test("equal lineage strings from distinct matches are both tracked") {
    // pathological: two matches carry the same lineage string
    val ws = neg(m("y", 0, 6), m("y", 2, 4))
    assert(niv(ws) == Vector(("y", 0L, 2L), ("y|y", 2L, 4L), ("y", 4L, 6L)))
  }

  test("un yields the two gaps around the matches as U windows") {
    val ms = Seq(m("y1", 2, 5), m("y2", 4, 9))
    val un = windows(0, 12, ms, NegationJoin.Mode.UN)
    assert(uiv(un) == Vector((0L, 2L), (9L, 12L)))
    assert(un.count(_.kind == "U") == 2 && un.forall(_.kind != "O"))
  }

  test("a match outside the r tuple's interval is rejected, not swept") {
    for ((os, oe) <- Seq((1L, 4L), (3L, 11L), (4L, 4L)); mode <- modes) {
      val e = intercept[IllegalArgumentException](
        windows(2, 10, Seq(m("y", os, oe)), mode))
      assert(e.getMessage.contains("[2, 10)"), e.getMessage)
    }
  }

  test("toMatches drops null-padded rows") {
    val rows = Seq(
      XRow("R", "r1", 0.5, 0, 9, None, None, None, None, None),
      XRow("R", "r1", 0.5, 0, 9, Some("F"), Some("y"), Some(0.5), Some(2L), Some(4L)))
    assert(GroupWindows.toMatches(rows) == Seq(SMatch("F", "y", 0.5, 2, 4)))
  }

  // ---------------------------------------- brute-force definition check

  private val seeds = 1 to 25

  /** A random r tuple `[rts, rte)` with up to five matches inside it. */
  private def randomGroup(seed: Int): (Long, Long, Seq[Match]) = {
    val rnd = new Random(seed)
    val rts = rnd.nextInt(5).toLong
    val rte = rts + 3 + rnd.nextInt(15)
    val nM = rnd.nextInt(6)
    val ms = (1 to nM).map { i =>
      val os = rts + rnd.nextInt((rte - rts).toInt)
      val oe = math.min(rte, os + 1 + rnd.nextInt(6))
      m(s"y$i", os, oe, ps = 0.5)
    }.filter(mm => mm.os < mm.oe)
    (rts, rte, ms)
  }

  /** Table II evaluated literally per time point, for one r tuple. */
  private def bruteCheck(seed: Int): Unit = {
    val (rts, rte, ms) = randomGroup(seed)
    val wins = windows(rts, rte, ms, NegationJoin.Mode.All)
    // per-point valid set from the definition
    def validAt(t: Long) = ms.filter(mm => mm.os <= t && t < mm.oe).map(_.ls).sorted
    (rts until rte).foreach { t =>
      val v = validAt(t)
      val covering = wins.filter(w => w.ts <= t && t < w.te)
      // exactly one U or N window covers t, matching emptiness of the valid set
      val un = covering.filter(w => w.kind == "U" || w.kind == "N")
      assert(un.size == 1, s"seed=$seed t=$t windows=$covering")
      if (v.isEmpty) assert(un.head.kind == "U", s"seed=$seed t=$t")
      else assert(un.head.kind == "N" && un.head.lsLins == v, s"seed=$seed t=$t")
      // O windows covering t = matches valid at t
      assert(covering.filter(_.kind == "O").map(_.lsLins.head).sorted == v, s"seed=$seed t=$t")
    }
    // maximality: no two adjacent same-kind windows with identical λs
    val unWins = wins.filter(w => w.kind != "O").sortBy(_.ts)
    unWins.sliding(2).foreach {
      case Seq(w1, w2) =>
        if (w1.te == w2.ts)
          assert(w1.kind != w2.kind || w1.lsLins != w2.lsLins, s"seed=$seed: $w1 | $w2 mergeable")
      case _ =>
    }
  }

  seeds.foreach { seed =>
    test(s"windows match the Table II definitions pointwise (seed $seed)") {
      bruteCheck(seed)
    }
  }

  test("each mode emits all()'s windows of its kinds, in all()'s order") {
    for (seed <- seeds; mode <- modes) {
      val (rts, rte, ms) = randomGroup(seed)
      val kinds = Seq("U" -> mode.u, "O" -> mode.o, "N" -> mode.n).collect { case (k, true) => k }
      assert(windows(rts, rte, ms, mode) ==
        windows(rts, rte, ms, NegationJoin.Mode.All).filter(w => kinds.contains(w.kind)),
        s"seed=$seed mode=$mode")
      // the perfbench view all() is the kernel with every window's match spelled out
      assert(GroupWindows.all("R", "r1", 0.5, rts, rte, ms.map(x => SMatch("F", x.ls, x.ps, x.os, x.oe)))
        .map(w => W(w.kind, w.ts, w.te, w.lsLins, w.lsProbs)) == windows(rts, rte, ms, NegationJoin.Mode.All))
    }
  }
}
