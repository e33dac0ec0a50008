package repro.core

import repro.{SparkSpec, TestUtil}
import repro.TestUtil._

/** Randomized cross-check: the NJ operator must agree with the independent
  * snapshot-semantics reference on every op, over many random duplicate-free
  * TP relations (facts A–C, horizon 30). Lineages are compared canonically
  * (order-insensitive), probabilities to 1e-9.
  */
class NJvsRefSpec extends SparkSpec {

  private val theta = NegationJoin.thetaEq("k")
  private val refTheta: SnapshotRef.Theta = (f1, f2) => f1("k") == f2("k")

  /** NJ ▷ ⟕ ⟖ ⟗ against SnapshotRef on one pair of relations. */
  private def checkAll(rTs: Seq[KTup], sTs: Seq[KTup], label: String): Unit = {
    val r = kDf(spark, rTs)
    val s = kDf(spark, sTs)
    val (rr, ss) = (kRef(rTs), kRef(sTs))

    assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.Anti), anti = true) ==
      canonRef(SnapshotRef.anti(rr, ss, refTheta), anti = true), s"anti $label")
    assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.LeftOuter), anti = false) ==
      canonRef(SnapshotRef.leftOuter(rr, ss, refTheta), anti = false), s"left $label")
    assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.RightOuter), anti = false) ==
      canonRef(SnapshotRef.rightOuter(rr, ss, refTheta), anti = false), s"right $label")
    assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.FullOuter), anti = false) ==
      canonRef(SnapshotRef.fullOuter(rr, ss, refTheta), anti = false), s"full $label")
  }

  /** Plain facts and ids, then reserved-character facts and ids. */
  private def check(seed: Int): Unit = {
    checkAll(randomRelation(seed, Seq("A", "B", "C"), 30, 3, "x"),
             randomRelation(seed + 1000, Seq("A", "B", "C"), 30, 3, "y"), s"seed=$seed")
    val (rId, sId) = hostileIdPrefixes
    checkAll(randomRelation(seed, hostileFacts, 30, 3, rId),
             randomRelation(seed + 1000, hostileFacts, 30, 3, sId), s"reserved characters seed=$seed")
  }

  (1 to 12).foreach { seed =>
    test(s"NJ ≡ SnapshotRef on all four ops (seed $seed)") { check(seed) }
  }

  test("NJ ≡ SnapshotRef with empty negative relation") {
    val rTs = randomRelation(99, Seq("A", "B"), 20, 3, "x")
    val r = kDf(spark, rTs)
    val s = kDf(spark, Seq.empty[KTup])
    val got = canonNj(NegationJoin(r, s, theta, TPJoinOp.Anti), anti = true)
    val exp = canonRef(SnapshotRef.anti(kRef(rTs), Nil, refTheta), anti = true)
    assert(got == exp)
    // anti join against empty s passes everything through
    assert(got.size == rTs.size)
    assert(NegationJoin(r, s, theta, TPJoinOp.RightOuter).count() == 0)
    // one r row against one overlapping s row: a U, an O and an N window
    checkAll(Seq(KTup("a&b", "r-1.a:b#1", 0.5, 2, 8)),
             Seq(KTup("a&b", "s_2.c:d#1", 0.4, 5, 12)), "one row each")
  }

  test("NJ ≡ SnapshotRef with empty positive relation") {
    val sTs = randomRelation(98, Seq("A", "B"), 20, 3, "y")
    val r = kDf(spark, Seq.empty[KTup])
    val s = kDf(spark, sTs)
    assert(NegationJoin(r, s, theta, TPJoinOp.Anti).count() == 0)
    assert(NegationJoin(r, s, theta, TPJoinOp.LeftOuter).count() == 0)
    assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.FullOuter), anti = false) ==
      canonRef(SnapshotRef.fullOuter(Nil, kRef(sTs), refTheta), anti = false))
    // right outer join against empty r returns every s tuple unchanged
    assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.RightOuter), anti = false) ==
      sTs.map(t => ("∅", t.k, t.lin, math.rint(t.p * 1e9) / 1e9, t.ts, t.te)).toSet)
    // one r row inside one s row, and one r row against one s row of another fact
    checkAll(Seq(KTup("A", "x1", 0.5, 3, 6)), Seq(KTup("A", "y1", 0.4, 0, 10)), "r inside s")
    checkAll(Seq(KTup("A", "x1", 0.5, 3, 6)), Seq(KTup("B", "y1", 0.4, 0, 10)), "no match")
  }

  test("NJ output is duplicate-free and change-preserved on random input") {
    val rTs = randomRelation(55, Seq("A", "B", "C"), 30, 3, "x")
    val sTs = randomRelation(56, Seq("A", "B", "C"), 30, 3, "y")
    val out = NegationJoin(kDf(spark, rTs), kDf(spark, sTs), theta, TPJoinOp.LeftOuter)
    val coalesced = ChangePreserve.coalesce(out)
    assert(canonSet(out) == canonSet(coalesced))
    assert(out.count() == coalesced.count())
  }
}
