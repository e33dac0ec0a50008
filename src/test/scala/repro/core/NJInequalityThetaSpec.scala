package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._

/** Randomized cross-checks with a NON-equality θ (the meteo-style predicate
  * shape): NJ must agree with SnapshotRef when the join condition is an
  * inequality, where multiple distinct facts of `s` match one `r` tuple.
  */
class NJInequalityThetaSpec extends SparkSpec {

  private val theta: (String, String) => Column =
    (l, r) => col(s"$l.k") =!= col(s"$r.k")
  private val refTheta: SnapshotRef.Theta = (f1, f2) => f1("k") != f2("k")

  (1 to 8).foreach { seed =>
    test(s"NJ ≡ SnapshotRef under inequality θ, anti + left outer (seed $seed)") {
      val rTs = randomRelation(seed + 300, Seq("A", "B", "C"), 24, 2, "x")
      val sTs = randomRelation(seed + 400, Seq("A", "B", "C"), 24, 2, "y")
      val (r, s) = (kDf(spark, rTs), kDf(spark, sTs))
      assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.Anti), anti = true) ==
        canonRef(SnapshotRef.anti(kRef(rTs), kRef(sTs), refTheta), anti = true))
      assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.LeftOuter), anti = false) ==
        canonRef(SnapshotRef.leftOuter(kRef(rTs), kRef(sTs), refTheta), anti = false))
    }
  }

  (1 to 4).foreach { seed =>
    test(s"NJ ≡ SnapshotRef under inequality θ, full outer (seed $seed)") {
      val rTs = randomRelation(seed + 500, Seq("A", "B"), 20, 2, "x")
      val sTs = randomRelation(seed + 600, Seq("A", "B"), 20, 2, "y")
      val (r, s) = (kDf(spark, rTs), kDf(spark, sTs))
      assert(canonNj(NegationJoin(r, s, theta, TPJoinOp.FullOuter), anti = false) ==
        canonRef(SnapshotRef.fullOuter(kRef(rTs), kRef(sTs), refTheta), anti = false))
    }
  }

  test("meteo-style two-column θ: equal metric, different station") {
    import spark.implicits._
    val r = Seq(
      (1L, 0L, "x1", 0.5, 0L, 10L),
      (2L, 1L, "x2", 0.5, 0L, 10L)).toDF("station", "metric", "lin", "p", "ts", "te")
    val s = Seq(
      (1L, 0L, "y1", 0.5, 2L, 5L),  // same station → no match for x1
      (3L, 0L, "y2", 0.5, 2L, 5L),  // matches x1
      (4L, 1L, "y3", 0.5, 4L, 8L)   // matches x2
    ).toDF("station", "metric", "lin", "p", "ts", "te")
    val theta2: (String, String) => Column = (l, rr) =>
      col(s"$l.metric") === col(s"$rr.metric") && col(s"$l.station") =!= col(s"$rr.station")
    val out = NegationJoin(r, s, theta2, TPJoinOp.Anti)
      .select("lin", "ts", "te").collect()
      .map(x => (x.getString(0), x.getLong(1), x.getLong(2))).toSet
    assert(out == Set(
      ("x1", 0L, 2L), ("x1&!y2", 2L, 5L), ("x1", 5L, 10L),
      ("x2", 0L, 4L), ("x2&!y3", 4L, 8L), ("x2", 8L, 10L)))
  }
}
