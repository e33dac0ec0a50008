package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.TestUtil._

/** DuckDB correctness oracle: every TP join result is recomputed by DuckDB
  * from the raw inputs via time-point expansion and compared row-by-row
  * against the expanded Spark output (`Oracle.assertEquivalent`).
  */
class PointOracleSpec extends SparkSpec {

  private val theta = NegationJoin.thetaEq("loc")
  private val thetaSql: PointOracle.ThetaSql = (r, s) => s"$r.loc = $s.loc"

  test("winit matched pairs agree with a plain DuckDB overlap join") {
    val sparkSide = NegationJoin.clj(aDf(spark), bDf(spark), theta)
      .filter(col("_m").isNotNull)
      .select(col("lin").as("lr"), col("_m.ls").as("ls"), col("_m.os").as("os"), col("_m.oe").as("oe"))
    val sql =
      """SELECT r.lin AS lr, s.lin AS ls,
        |       greatest(CAST(r.ts AS BIGINT), CAST(s.ts AS BIGINT)) AS os,
        |       least(CAST(r.te AS BIGINT), CAST(s.te AS BIGINT)) AS oe
        |FROM r JOIN s
        |  ON r.loc = s.loc
        | AND CAST(r.ts AS BIGINT) < CAST(s.te AS BIGINT)
        | AND CAST(s.ts AS BIGINT) < CAST(r.te AS BIGINT)""".stripMargin
    Oracle.assertEquivalent(sparkSide, sql, "r" -> aDf(spark), "s" -> bDf(spark))
  }

  test("TP anti join of the paper example matches DuckDB point expansion") {
    val out = NegationJoin(aDf(spark), bDf(spark), theta, TPJoinOp.Anti)
    Oracle.assertEquivalent(
      PointOracle.expand(out),
      PointOracle.antiSql(Seq("name", "loc"), Seq("hotel", "loc"), thetaSql),
      "r" -> aDf(spark), "s" -> bDf(spark))
  }

  test("TP left outer join of the paper example matches DuckDB point expansion") {
    val out = NegationJoin(aDf(spark), bDf(spark), theta, TPJoinOp.LeftOuter)
    Oracle.assertEquivalent(
      PointOracle.expand(out),
      PointOracle.leftOuterSql(
        Seq("name", "loc"), Seq("hotel" -> "hotel", "loc" -> "s_loc"), thetaSql),
      "r" -> aDf(spark), "s" -> bDf(spark))
  }

  // Self-joins put the same base tuples on both sides: `a1∧a1` is `a1` with
  // p(a1), and `a1∧¬a1` is kept with p = 0.
  private val aFacts = Seq("name", "loc")
  private val aOut = Seq("name" -> "s_name", "loc" -> "s_loc")
  Seq(
    ("anti", TPJoinOp.Anti, PointOracle.antiSql(aFacts, aFacts, thetaSql)),
    ("left outer", TPJoinOp.LeftOuter, PointOracle.leftOuterSql(aFacts, aOut, thetaSql)),
    ("right outer", TPJoinOp.RightOuter, PointOracle.rightOuterSql(aFacts, aOut, thetaSql)),
    ("full outer", TPJoinOp.FullOuter, PointOracle.fullOuterSql(aFacts, aOut, thetaSql)),
  ).foreach { case (name, op, sql) =>
    test(s"TP $name self-join of the paper's relation a matches DuckDB point expansion") {
      val out = NegationJoin(aDf(spark), aDf(spark), theta, op)
      Oracle.assertEquivalent(PointOracle.expand(out), sql, "r" -> aDf(spark), "s" -> aDf(spark))
    }
  }

  private val kThetaSql: PointOracle.ThetaSql = (r, s) => s"$r.k = $s.k"

  /** The random inputs of one test: plain facts and ids, then facts made of
    * lineage operators with ids using every atom character.
    */
  private def randomInputs(rSeed: Int, sSeed: Int): Seq[(DataFrame, DataFrame)] = {
    val (rId, sId) = hostileIdPrefixes
    Seq((Seq("A", "B", "C"), "x", "y"), (hostileFacts, rId, sId)).map { case (facts, rp, sp) =>
      (kDf(spark, randomRelation(rSeed, facts, 25, 3, rp)),
       kDf(spark, randomRelation(sSeed, facts, 25, 3, sp)))
    }
  }

  (1 to 8).foreach { seed =>
    test(s"TP anti join on random relations matches DuckDB (seed $seed)") {
      randomInputs(seed, seed + 100).foreach { case (r, s) =>
        val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.Anti)
        Oracle.assertEquivalent(
          PointOracle.expand(out),
          PointOracle.antiSql(Seq("k"), Seq("k"), kThetaSql),
          "r" -> r, "s" -> s)
      }
    }
  }

  (1 to 8).foreach { seed =>
    test(s"TP left outer join on random relations matches DuckDB (seed $seed)") {
      randomInputs(seed + 30, seed + 130).foreach { case (r, s) =>
        val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter)
        Oracle.assertEquivalent(
          PointOracle.expand(out),
          PointOracle.leftOuterSql(Seq("k"), Seq("k" -> "s_k"), kThetaSql),
          "r" -> r, "s" -> s)
      }
    }
  }

  test("TP right outer join of the paper example matches DuckDB point expansion") {
    val out = NegationJoin(aDf(spark), bDf(spark), theta, TPJoinOp.RightOuter)
    Oracle.assertEquivalent(
      PointOracle.expand(out),
      PointOracle.rightOuterSql(
        Seq("name", "loc"), Seq("hotel" -> "hotel", "loc" -> "s_loc"), thetaSql),
      "r" -> aDf(spark), "s" -> bDf(spark))
  }

  (1 to 6).foreach { seed =>
    test(s"TP right outer join on random relations matches DuckDB (seed $seed)") {
      randomInputs(seed + 60, seed + 160).foreach { case (r, s) =>
        val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.RightOuter)
        Oracle.assertEquivalent(
          PointOracle.expand(out),
          PointOracle.rightOuterSql(Seq("k"), Seq("k" -> "s_k"), kThetaSql),
          "r" -> r, "s" -> s)
      }
    }
  }

  test("TP full outer join of the paper example matches DuckDB point expansion") {
    val out = NegationJoin(aDf(spark), bDf(spark), theta, TPJoinOp.FullOuter)
    Oracle.assertEquivalent(
      PointOracle.expand(out),
      PointOracle.fullOuterSql(
        Seq("name", "loc"), Seq("hotel" -> "hotel", "loc" -> "s_loc"), thetaSql),
      "r" -> aDf(spark), "s" -> bDf(spark))
  }

  (1 to 6).foreach { seed =>
    test(s"TP full outer join on random relations matches DuckDB (seed $seed)") {
      randomInputs(seed + 60, seed + 160).foreach { case (r, s) =>
        val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.FullOuter)
        Oracle.assertEquivalent(
          PointOracle.expand(out),
          PointOracle.fullOuterSql(Seq("k"), Seq("k" -> "s_k"), kThetaSql),
          "r" -> r, "s" -> s)
      }
    }
  }

  test("TA left outer join also matches DuckDB point expansion") {
    val out = repro.ta.TemporalAlignment.leftOuter(aDf(spark), bDf(spark), theta)
    Oracle.assertEquivalent(
      PointOracle.expand(out),
      PointOracle.leftOuterSql(
        Seq("name", "loc"), Seq("hotel" -> "hotel", "loc" -> "s_loc"), thetaSql),
      "r" -> aDf(spark), "s" -> bDf(spark))
  }

  test("inequality theta matches DuckDB point expansion") {
    val r = kDf(spark, randomRelation(7, Seq("A", "B"), 20, 2, "x"))
    val s = kDf(spark, randomRelation(107, Seq("A", "B"), 20, 2, "y"))
    val thetaNe: (String, String) => org.apache.spark.sql.Column =
      (l, rr) => col(s"$l.k") =!= col(s"$rr.k")
    val out = NegationJoin(r, s, thetaNe, TPJoinOp.Anti)
    Oracle.assertEquivalent(
      PointOracle.expand(out),
      PointOracle.antiSql(Seq("k"), Seq("k"), (a, b) => s"$a.k <> $b.k"),
      "r" -> r, "s" -> s)
  }
}
