package njbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Lineage, NegationJoin, RefOut, SnapshotRef, TPJoinOp, TPTuple}

/** The workload generators at tiny sizes: the TP input contract for every
  * generator and seed, hotkey's NJ ⟕/▷ against the snapshot reference, and
  * the run's own output checks.
  */
class WorkloadsSpec extends AnyFunSuite {

  private lazy val spark = SparkSession.builder()
    .master("local[2]")
    .appName("njbench-test")
    .config("spark.sql.shuffle.partitions", 4)
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()

  private val tiny = Map(
    "webkit" -> Workloads.Size(n = 600),
    "meteo"  -> Workloads.Size(n = 1_000, taN = 400),
    "hotkey" -> Workloads.Size(n = 6, keys = 3, taN = 2))

  /** Violations of the TP input contract: `Long` `ts < te`, `p ∈ [0,1]`,
    * unique `lin`, and tuples with the same fact have disjoint intervals.
    * Returns one message per violated rule (empty when the input is valid).
    */
  private def contractViolations(df: DataFrame): Seq[String] = {
    val facts = NegationJoin.factCols(df)
    val types = Seq("ts", "te").filterNot(c => df.schema(c).dataType == LongType)
      .map(c => s"$c is ${df.schema(c).dataType}, not Long")
    val bad = df.agg(
      count(when(!(col("ts") < col("te")), 1)).as("ts"),
      count(when(!(col("p") >= 0.0 && col("p") <= 1.0), 1)).as("p"),
      (count(col("lin")) - countDistinct(col("lin"))).as("lin")).collect()(0)
    val byFact = Window.partitionBy(facts.map(col): _*).orderBy(col("ts"), col("te"))
    val overlapping = df
      .withColumn("prevTe", lag(col("te"), 1).over(byFact))
      .filter(col("prevTe") > col("ts")).count()
    types ++
      Seq(bad.getLong(0) -> "ts >= te", bad.getLong(1) -> "p outside [0,1]",
          bad.getLong(2) -> "duplicate lin", overlapping -> "overlapping same-fact intervals")
        .collect { case (k, msg) if k > 0 => s"$k rows: $msg" }
  }

  for (w <- Workloads.names; seed <- Seq(1L, 2L)) {
    test(s"$w at seed $seed meets the TP input contract") {
      val in = Workloads.make(spark, w, tiny(w), seed)
      for (df <- in.frames) assert(contractViolations(df).isEmpty)
    }
  }

  test("generators are deterministic in the seed") {
    for (w <- Workloads.names) {
      def rows(seed: Long) = Workloads.make(spark, w, tiny(w), seed).s.collect().toSet
      assert(rows(3) == rows(3), w)
      assert(rows(3) != rows(4), w)
    }
  }

  test("the contract check flags each violated rule") {
    import spark.implicits._
    val bad = Seq(
      ("a", "x1", 0.5, 5L, 5L),   // ts >= te
      ("a", "x2", 1.5, 6L, 8L),   // p > 1
      ("a", "x2", 0.5, 7L, 9L),   // duplicate lin, overlaps the row before
      ("b", "x4", 0.5, 0L, 3L)).toDF("k", "lin", "p", "ts", "te")
    assert(contractViolations(bad).size == 4)
  }

  private def ref(df: DataFrame): Seq[TPTuple] =
    df.collect().toSeq.map(r => TPTuple(Map("key" -> r.getAs[String]("key")),
      r.getAs[String]("lin"), r.getAs[Double]("p"), r.getAs[Long]("ts"), r.getAs[Long]("te")))

  private def canon(o: RefOut) =
    (o.leftFact.map(_("key")), o.rightFact.map(_("key")), Lineage.canonicalString(o.lin),
     math.round(o.p * 1e9), o.ts, o.te)

  private def canon(df: DataFrame) = df.collect().toSeq.map { r =>
    val sKey = if (df.columns.contains("s_key")) Option(r.getAs[String]("s_key")) else None
    (Option(r.getAs[String]("key")), sKey, Lineage.canonicalString(r.getAs[String]("lin")),
     math.round(r.getAs[Double]("p") * 1e9), r.getAs[Long]("ts"), r.getAs[Long]("te"))
  }.sorted

  test("hotkey NJ left outer and anti join equal the snapshot reference") {
    for (seed <- Seq(1L, 2L)) {
      val (r, s) = Workloads.hotkey(spark, keys = 2, m = 5, seed)
      val theta = (a: Map[String, String], b: Map[String, String]) => a("key") == b("key")
      val left = NegationJoin(r, s, NegationJoin.thetaEq("key"), TPJoinOp.LeftOuter)
      val anti = NegationJoin(r, s, NegationJoin.thetaEq("key"), TPJoinOp.Anti)
      assert(canon(left) == SnapshotRef.leftOuter(ref(r), ref(s), theta).map(canon).sorted)
      assert(canon(anti) == SnapshotRef.anti(ref(r), ref(s), theta).map(canon).sorted)
    }
  }

  test("every output check passes at tiny sizes") {
    for (w <- Workloads.names) {
      val res = Checks.run(Workloads.make(spark, w, tiny(w), 5))
      assert(res.failures.isEmpty, w)
      assert(res.digests.keySet == Queries.ops.toSet, w)
    }
  }

  test("hotkey's closed-form counts match NJ's output") {
    val in = Workloads.make(spark, "hotkey", tiny("hotkey"), 9)
    for (op <- Seq("anti", "left", "right", "full"))
      assert(Queries.build(in, op).count() == in.expected(op), op)
  }
}
