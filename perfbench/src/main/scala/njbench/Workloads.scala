package njbench

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.core.NegationJoin
import repro.data.TPData

/** One benchmark input: the two TP relations, θ, and the column(s) of θ's
  * equality part (the key over which the CLJ's candidate pairs are counted).
  *
  * `ta` is the input TA ⟕ runs on. It is the same pair as `r`/`s` on webkit.
  * On meteo and hotkey, TA, whose interval joins grow quadratically with the
  * matches per group, runs on a smaller instance of the same generator at
  * the same seed, so that NJ can run larger than TA would fit in a run.
  *
  * `expected` holds the closed-form output row count of each op, where the
  * generator determines it (hotkey only).
  */
final case class Inputs(
    r: DataFrame, s: DataFrame,
    theta: (String, String) => Column, thetaKey: Seq[String],
    ta: (DataFrame, DataFrame),
    expected: Map[String, Long] = Map.empty) {
  def frames: Seq[DataFrame] = (Seq(r, s) ++ Seq(ta._1, ta._2)).distinct
}

/** The three workloads. Every generator is deterministic in its seed. */
object Workloads {

  val names: Seq[String] = Seq("webkit", "meteo", "hotkey")

  /** Sizes of one workload instance. `n` is the generator's size parameter:
    * tuples of `r` for webkit and meteo, `s` tuples per key for hotkey.
    * `taN` is the same parameter for TA's smaller instance (meteo, hotkey).
    */
  final case class Size(n: Long, keys: Int = 0, taN: Long = 0)

  val defaultSize: Map[String, Size] = Map(
    "webkit" -> Size(n = 15_000),
    "meteo"  -> Size(n = 6_000, taN = 600),
    "hotkey" -> Size(n = 600, keys = 64, taN = 50))

  def make(spark: SparkSession, name: String, size: Size, seed: Long): Inputs = name match {
    case "webkit" => webkit(spark, size.n, seed)
    case "meteo"  =>
      val in = meteo(spark, size.n, seed)
      val ta = meteo(spark, size.taN, seed)
      in.copy(ta = (ta.r, ta.s))
    case "hotkey" =>
      val (r, s) = hotkey(spark, size.keys, size.n, seed)
      val ta = hotkey(spark, size.keys, size.taN, seed)
      Inputs(r, s, NegationJoin.thetaEq("key"), Seq("key"), ta,
             hotkeyCounts(size.keys, size.n))
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** webkitLite at `n`; partner shifted per `file` by up to ±200; θ: equal file.
    *
    * As in the repository's experiments, the partner's per-fact shifts come
    * from `TPData.shifted`'s own seed; the run's seed drives `r`, and with it
    * every partner tuple.
    */
  def webkit(spark: SparkSession, n: Long, seed: Long): Inputs = {
    val r = TPData.webkitLite(spark, n, seed, "w")
    val s = TPData.shifted(r, Seq("file"), 200, idPrefix = "s")
    Inputs(r, s, NegationJoin.thetaEq("file"), Seq("file"), (r, s))
  }

  /** meteoLite at `n`; partner shifted per series by up to ±40, with the
    * shifts drawn as for webkit; θ: equal metric ∧ different station.
    */
  def meteo(spark: SparkSession, n: Long, seed: Long): Inputs = {
    val r = TPData.meteoLite(spark, n, seed, "m")
    val s = TPData.shifted(r, Seq("station", "metric"), 40, idPrefix = "s")
    val theta = (a: String, b: String) =>
      col(s"$a.metric") === col(s"$b.metric") && col(s"$a.station") =!= col(s"$b.station")
    Inputs(r, s, theta, Seq("metric"), (r, s))
  }

  /** Pseudo-random Long in [0, m) from hashed columns, as TPData draws them. */
  private def h(m: Long, seed: Long, cols: Column*): Column =
    pmod(xxhash64(cols :+ lit(seed): _*), lit(m))

  /** hotkey: `keys` keys; per key one `r` tuple spanning the whole timeline
    * and `m` pairwise disjoint `s` tuples. Each `s` tuple is preceded by a gap
    * of 1..10 points and lasts 1..20 points; the `r` tuple ends 1..10 points
    * after the last `s` tuple. Schema of both: (key, lin, p, ts, te).
    */
  def hotkey(spark: SparkSession, keys: Int, m: Long, seed: Long): (DataFrame, DataFrame) = {
    val byKey = Window.partitionBy(col("key")).orderBy(col("j"))
    val s = spark.range(keys * m)
      .select(
        concat(lit("k"), (col("id") / m).cast(LongType)).as("key"),
        (col("id") % m).as("j"),
        col("id"))
      .withColumn("len", h(20, seed, col("id")) + 1)
      .withColumn("gap", h(10, seed + 1, col("id")) + 1)
      .withColumn("te", sum(col("gap") + col("len")).over(byKey))
      .select(
        col("key"),
        concat(lit("s"), col("id")).as("lin"),
        (h(98, seed + 2, col("id")) + 1).cast("double") / 100.0 as "p",
        (col("te") - col("len")).as("ts"),
        col("te"))
    val r = s.groupBy("key").agg(max(col("te")).as("last"))
      .select(
        col("key"),
        concat(lit("r"), col("key")).as("lin"),
        (h(98, seed + 3, col("key")) + 1).cast("double") / 100.0 as "p",
        lit(0L).as("ts"),
        (col("last") + h(10, seed + 4, col("key")) + 1).as("te"))
    (r, s)
  }

  /** hotkey's window and output counts, in closed form.
    *
    * Per key the `r` tuple's group has `m` matches, each fully inside it and
    * separated by gaps of at least one point: m O windows, m single-match N
    * windows and m+1 U windows (before each match and after the last). The
    * swapped pass has one group per `s` tuple, fully covered by its single
    * match: one O and one N window each.
    */
  def hotkeyCounts(keys: Int, m: Long): Map[String, Long] = Map(
    "windows_u" -> keys * (m + 1),
    "windows_o" -> keys * m,
    "windows_n" -> keys * m,
    "anti"      -> keys * (2 * m + 1),
    "left"      -> keys * (3 * m + 1),
    "right"     -> keys * 2 * m,
    "full"      -> keys * (4 * m + 1))
}
