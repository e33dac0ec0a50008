package repro.ta

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._
import repro.core._

/** The TA baseline must produce exactly the NJ results (same semantics,
  * different — redundant — plan shape), plus unit tests of Φ and N.
  */
class TemporalAlignmentSpec extends SparkSpec {

  private lazy val a = TestUtil.aDf(spark)
  private lazy val b = TestUtil.bDf(spark)
  private val theta = NegationJoin.thetaEq("loc")
  private val kTheta = NegationJoin.thetaEq("k")

  /** NJ's windows of `r` by `s` as (kind, (outer tuple's lin, ts, te)). Base
    * ids hold no `&`, so an output lineage starts with the outer tuple's.
    */
  private def njWindows(r: DataFrame, s: DataFrame, mode: NegationJoin.Mode): Set[(String, (String, Long, Long))] =
    NegationJoin.windows(NegationJoin.clj(r, s, kTheta), mode, windowSideIsLeft = true)
      .select("_kind", "lin", "ts", "te").collect()
      .map(w => (w.getString(0), (w.getString(1).takeWhile(_ != '&'), w.getLong(2), w.getLong(3)))).toSet

  // --------------------------------------------------------------- align

  test("align replicates the paper's a by b: intersections plus gaps") {
    val got = TemporalAlignment.align(a, b, theta)
      .select("lin", "ts", "te").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSet
    assert(got == Set(
      ("a1", 4L, 6L),  // a1 ∩ b3
      ("a1", 5L, 8L),  // a1 ∩ b2
      ("a1", 2L, 4L),  // gap before b3
      ("a2", 7L, 10L)  // fully unmatched
    ))
    // align's gaps are its own scan: they must be NJ's U windows, and its
    // intersections NJ's O windows, on random relations too
    (1 to 6).foreach { seed =>
      val r = kDf(spark, randomRelation(seed, Seq("A", "B", "C"), 30, 3, "x"))
      val s = kDf(spark, randomRelation(seed + 2000, Seq("A", "B", "C"), 30, 3, "y"))
      val aligned = TemporalAlignment.align(r, s, kTheta).select("lin", "ts", "te").collect()
        .map(x => (x.getString(0), x.getLong(1), x.getLong(2))).toSet
      val wins = njWindows(r, s, NegationJoin.Mode.UO)
      def of(kind: String) = wins.filter(_._1 == kind).map(_._2)
      assert(aligned -- of("O") == of("U"), s"gaps seed=$seed")
      assert(aligned == of("U") ++ of("O"), s"align seed=$seed")
    }
  }

  test("align of b by a clips to the matching tuples") {
    val got = TemporalAlignment.align(b, a, (o, i) => theta(i, o))
      .select("lin", "ts", "te").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSet
    assert(got == Set(
      ("b3", 4L, 6L),   // b3 ∩ a1
      ("b2", 5L, 8L),   // b2 ∩ a1
      ("b1", 1L, 4L)    // unmatched
    ))
  }

  // ----------------------------------------------------------- normalize

  private def linIntervals(df: DataFrame): Set[(String, Long, Long)] =
    df.select("lin", "ts", "te").collect()
      .map(x => (x.getString(0), x.getLong(1), x.getLong(2))).toSet

  test("normalize splits a by all matching b boundaries") {
    val segs = TemporalAlignment.normalize(a, b, theta)
    assert(segs.columns.toSeq == a.columns.toSeq)
    assert(linIntervals(segs) == Set(
      ("a1", 2L, 4L), ("a1", 4L, 5L), ("a1", 5L, 6L), ("a1", 6L, 8L),
      ("a2", 7L, 10L)))
    // every boundary of a match changes the set of valid matches, so the
    // segments are exactly NJ's U and N windows, on random relations too
    (1 to 6).foreach { seed =>
      val r = kDf(spark, randomRelation(seed, Seq("A", "B", "C"), 30, 3, "x"))
      val s = kDf(spark, randomRelation(seed + 2000, Seq("A", "B", "C"), 30, 3, "y"))
      val wins = njWindows(r, s, NegationJoin.Mode.UN).map(_._2)
      assert(linIntervals(TemporalAlignment.normalize(r, s, kTheta)) == wins, s"normalize seed=$seed")
    }
  }

  test("normalize with no matches returns the tuple unsplit") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val s = Seq(KTup("B", "y1", 0.5, 2, 4)).toDF()
    assert(linIntervals(TemporalAlignment.normalize(r, s, kTheta)) == Set(("x1", 0L, 10L)))
  }

  // ---------------------------------------------------------- plan shape

  test("plan shape: align and normalize plan one join each") {
    assert(planShape(spark)(TemporalAlignment.align(a, b, theta))._1 == 1)
    assert(planShape(spark)(TemporalAlignment.normalize(a, b, theta))._1 == 1)
  }

  test("plan shape: TA's joins and exchanges per op") {
    // Joins: WO ∪ WU is two aligns plus their pairing join (3), WN ∪ WU a
    // normalize plus its containment join (2). ▷ is WN ∪ WU; ⟕ and ⟖ are
    // both subtrees; ⟗ adds the swapped WN ∪ WU.
    val ops = Seq[(DataFrame, DataFrame, (String, String) => Column) => DataFrame](
      TemporalAlignment.anti, TemporalAlignment.leftOuter,
      TemporalAlignment.rightOuter, TemporalAlignment.fullOuter)
    assert(ops.map(op => planShape(spark)(op(a, b, theta))) ==
      Seq((2, 3), (5, 9), (5, 9), (7, 10)))
  }

  // ------------------------------------------------- equivalence with NJ

  test("TA anti ≡ NJ anti on the paper example") {
    assert(canonSet(TemporalAlignment.anti(a, b, theta)) ==
      canonSet(NegationJoin(a, b, theta, TPJoinOp.Anti)))
  }

  test("TA left outer ≡ NJ left outer on the paper example") {
    assert(canonSet(TemporalAlignment.leftOuter(a, b, theta)) ==
      canonSet(NegationJoin(a, b, theta, TPJoinOp.LeftOuter)))
  }

  test("TA right outer ≡ NJ right outer on the paper example") {
    assert(canonSet(TemporalAlignment.rightOuter(a, b, theta)) ==
      canonSet(NegationJoin(a, b, theta, TPJoinOp.RightOuter)))
  }

  test("TA full outer ≡ NJ full outer on the paper example") {
    assert(canonSet(TemporalAlignment.fullOuter(a, b, theta)) ==
      canonSet(NegationJoin(a, b, theta, TPJoinOp.FullOuter)))
  }

  (1 to 8).foreach { seed =>
    test(s"TA ≡ NJ on all four ops over random relations (seed $seed)") {
      val r = kDf(spark, randomRelation(seed, Seq("A", "B", "C"), 30, 3, "x"))
      val s = kDf(spark, randomRelation(seed + 2000, Seq("A", "B", "C"), 30, 3, "y"))
      assert(canonSet(TemporalAlignment.anti(r, s, kTheta)) ==
        canonSet(NegationJoin(r, s, kTheta, TPJoinOp.Anti)), s"anti seed=$seed")
      assert(canonSet(TemporalAlignment.leftOuter(r, s, kTheta)) ==
        canonSet(NegationJoin(r, s, kTheta, TPJoinOp.LeftOuter)), s"left seed=$seed")
      assert(canonSet(TemporalAlignment.rightOuter(r, s, kTheta)) ==
        canonSet(NegationJoin(r, s, kTheta, TPJoinOp.RightOuter)), s"right seed=$seed")
      assert(canonSet(TemporalAlignment.fullOuter(r, s, kTheta)) ==
        canonSet(NegationJoin(r, s, kTheta, TPJoinOp.FullOuter)), s"full seed=$seed")
    }
  }

  test("TA ≡ NJ on all four ops over microsecond timestamp, date and decimal facts") {
    // typed facts on both sides, of types a JSON round trip would change:
    // its default timestamp format keeps milliseconds only
    def typed(rel: Seq[KTup]): DataFrame = kDf(spark, rel).select(col("k"),
      timestamp_micros(lit(1577872800123456L) + col("ts") * 1000001L + col("te")).as("at"),
      date_add(lit("2020-01-01").cast("date"), col("te").cast("int")).as("day"),
      (col("ts").cast("decimal(12,3)") / 8).cast("decimal(12,3)").as("amount"),
      col("lin"), col("p"), col("ts"), col("te"))
    val cases = Seq(
      TPJoinOp.Anti -> TemporalAlignment.anti _, TPJoinOp.LeftOuter -> TemporalAlignment.leftOuter _,
      TPJoinOp.RightOuter -> TemporalAlignment.rightOuter _, TPJoinOp.FullOuter -> TemporalAlignment.fullOuter _)
    // facts compared as Spark renders them: collecting a java.sql.Timestamp
    // needs JVM module access that the forked test JVM does not open
    def shown(df: DataFrame) = canonSet(df.select(df.columns.toSeq.map(c =>
      if (NegationJoin.MetaCols.contains(c)) col(c) else col(c).cast("string").as(c)): _*))
    def types(df: DataFrame) = df.schema.map(f => (f.name, f.dataType))
    (1 to 3).foreach { seed =>
      val r = typed(randomRelation(seed, Seq("A", "B"), 30, 3, "x"))
      val s = typed(randomRelation(seed + 2000, Seq("A", "B"), 30, 3, "y"))
      for ((op, ta) <- cases) {
        val (out, nj) = (ta(r, s, kTheta), NegationJoin(r, s, kTheta, op))
        assert(types(out) == types(nj), s"$op seed=$seed")
        assert(shown(out) == shown(nj), s"$op seed=$seed")
      }
      val micros = TemporalAlignment.leftOuter(r, s, kTheta)
        .select(unix_micros(col("at")) % 1000, unix_micros(col("s_at")) % 1000).collect()
        .flatMap(_.toSeq).collect { case m: Long => m }
      assert(micros.nonEmpty && !micros.contains(0L), s"sub-millisecond digits lost, seed=$seed")
    }
  }

  test("TA windowsUO deduplicates replicas of identical intersections") {
    import spark.implicits._
    // two s tuples with identical overlap window against r would replicate r
    val r = Seq(KTup("A", "x1", 0.5, 0, 4)).toDF()
    val s = Seq(KTup("A", "y1", 0.5, 0, 4), KTup("A", "y2", 0.5, 0, 4)).toDF()
    val uo = TemporalAlignment.windowsUO(r, s, kTheta)
    // exactly two overlapping windows (x1,y1) and (x1,y2), no spurious rows
    assert(uo.filter(col("_sf").isNotNull).count() == 2)
  }

  test("TA windowsUO produces no spurious sub-windows from third tuples") {
    import spark.implicits._
    // k=[0,10) vs m2=[0,10): true window is [0,10); k'=[0,5) and m1=[0,5)
    // create replicas with interval [0,5) that must NOT pair (k,m2).
    val r = Seq(KTup("A", "k", 0.5, 0, 10), KTup("A", "k2", 0.5, 0, 5)).toDF()
    val s = Seq(KTup("A", "m1", 0.5, 0, 5), KTup("A", "m2", 0.5, 0, 10)).toDF()
    val o = TemporalAlignment.windowsUO(r, s, kTheta).filter(col("_sf").isNotNull)
      .select("lin", "ts", "te").collect()
      .map(x => (x.getString(0), x.getLong(1), x.getLong(2))).toSet
    assert(o == Set(
      ("k&m1", 0L, 5L), ("k&m2", 0L, 10L), ("k2&m1", 0L, 5L), ("k2&m2", 0L, 5L)))
  }
}
