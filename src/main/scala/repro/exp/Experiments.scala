package repro.exp

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.NegationJoin.{Mode, windowsFrom, winitRows}
import repro.data.TPData
import repro.ta.TemporalAlignment
import repro.util.Bench

/** The paper's evaluation (§VII) as reusable experiment functions.
  *
  * Each `figNN`/`table4` function runs one experiment and returns the rows
  * of the corresponding result table (printed by the bench suites and the
  * spark-submit jobs). Inputs are cached and materialized before timing, so
  * measured times cover join + sweep + finalization, not data generation.
  *
  * Workloads (DESIGN.md §4): `webkit` joins webkitLite with its shifted
  * partner under θ: equal `file` (high selectivity, as §VII-C); `meteo`
  * joins meteoLite with its shifted partner under θ: equal `metric` ∧
  * different `station` (low selectivity).
  */
object Experiments {

  final case class Workload(
      dataset: String, n: Long,
      r: DataFrame, s: DataFrame,
      theta: (String, String) => Column)

  val webkitTheta: (String, String) => Column = NegationJoin.thetaEq("file")
  val meteoTheta: (String, String) => Column = (l, r) =>
    col(s"$l.metric") === col(s"$r.metric") && col(s"$l.station") =!= col(s"$r.station")

  /** Build and materialize a workload (cached inputs). */
  def workload(spark: SparkSession, dataset: String, n: Long): Workload = dataset match {
    case "webkit" =>
      val r = TPData.webkitLite(spark, n).persist(StorageLevel.MEMORY_AND_DISK)
      val s = TPData.shifted(r, Seq("file"), maxShift = 200, idPrefix = "s")
        .persist(StorageLevel.MEMORY_AND_DISK)
      r.count(); s.count()
      Workload(dataset, n, r, s, webkitTheta)
    case "meteo" =>
      val r = TPData.meteoLite(spark, n).persist(StorageLevel.MEMORY_AND_DISK)
      val s = TPData.shifted(r, Seq("station", "metric"), maxShift = 40, idPrefix = "s")
        .persist(StorageLevel.MEMORY_AND_DISK)
      r.count(); s.count()
      Workload(dataset, n, r, s, meteoTheta)
  }

  def release(w: Workload): Unit = { w.r.unpersist(); w.s.unpersist() }

  // ------------------------------------------------------------ Table IV

  /** Paper Table IV: dataset properties, for both synthetic datasets. */
  def table4(spark: SparkSession, nWebkit: Long, nMeteo: Long): Seq[Seq[Any]] = {
    val wk = TPData.stats(TPData.webkitLite(spark, nWebkit), Seq("file"))
    val mt = TPData.stats(TPData.meteoLite(spark, nMeteo), Seq("station", "metric"))
    def rows(name: String, s: TPData.DatasetStats) = Seq[Any](
      name, s.cardinality, s.timeRange, s.minDuration, s.maxDuration,
      f"${s.avgDuration}%.1f", s.numFacts, s.distinctPoints,
      s.maxTuplesPerPoint, f"${s.avgTuplesPerPoint}%.1f")
    Seq(rows("webkitLite", wk), rows("meteoLite", mt))
  }

  // ------------------------------------------------- Fig. 11: W_UO runtime

  /** NJ vs TA for unmatched+overlapping windows; one row per (dataset, n). */
  def fig11(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    for ((ds, ns) <- sizes.toSeq.sortBy(_._1); n <- ns) yield {
      val w = workload(spark, ds, n)
      var njCount = 0L; var taCount = 0L
      val njMs = Bench.medianMs(reps, warmup) {
        njCount = windowsFrom(winitRows(w.r, w.s, w.theta), Mode.UO).count()
      }
      val taMs = Bench.medianMs(reps, warmup) {
        taCount = TemporalAlignment.windowsUO(w.r, w.s, w.theta).count()
      }
      require(njCount == taCount, s"W_UO mismatch: NJ=$njCount TA=$taCount ($ds n=$n)")
      release(w)
      Seq[Any](ds, n, njCount, njMs, taMs, f"${taMs / njMs}%.1fx")
    }

  // --------------------------------------- Fig. 12: negating-window runtime

  /** NJ-WN (sweep only, winit cached), NJ-WUON (incl. winit+UO), TA N-subtree.
    *
    * The winit cache exists ONLY while NJ-WN is timed (and is dropped
    * before the other measurements): Spark's cache manager substitutes
    * cached plan fragments into *any* matching plan, so a live winit cache
    * would silently accelerate both NJ-WUON and TA's normalize pass.
    */
  def fig12(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    for ((ds, ns) <- sizes.toSeq.sortBy(_._1); n <- ns) yield {
      val w = workload(spark, ds, n)
      var njN = 0L; var njAll = 0L; var taNU = 0L; var njUO = 0L
      val winit = winitRows(w.r, w.s, w.theta)
        .persist(StorageLevel.MEMORY_AND_DISK)
      winit.count()
      val wnMs = Bench.medianMs(reps, warmup) {
        njN = windowsFrom(winit, Mode.N).count()
      }
      njUO = windowsFrom(winit, Mode.UO).filter(_.kind == "U").count()
      winit.unpersist(blocking = true)
      val wuonMs = Bench.medianMs(reps, warmup) {
        njAll = windowsFrom(winitRows(w.r, w.s, w.theta), Mode.All).count()
      }
      val taMs = Bench.medianMs(reps, warmup) {
        taNU = TemporalAlignment.windowsNU(w.r, w.s, w.theta).count()
      }
      // TA's N-subtree recomputes the unmatched windows: N rows + U rows
      require(taNU == njN + njUO, s"W_N mismatch: TA=$taNU NJ=N$njN+U$njUO ($ds n=$n)")
      release(w)
      Seq[Any](ds, n, njN, wnMs, wuonMs, taMs,
        f"${taMs / wuonMs}%.1fx", f"${taMs / wnMs}%.1fx")
    }

  // --------------------------------------- Fig. 13: TP left outer join

  def fig13(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    for ((ds, ns) <- sizes.toSeq.sortBy(_._1); n <- ns) yield {
      val w = workload(spark, ds, n)
      var njCount = 0L; var taCount = 0L
      val njMs = Bench.medianMs(reps, warmup) {
        njCount = NegationJoin(w.r, w.s, w.theta, TPJoinOp.LeftOuter).count()
      }
      val taMs = Bench.medianMs(reps, warmup) {
        taCount = TemporalAlignment.leftOuter(w.r, w.s, w.theta).count()
      }
      require(njCount == taCount, s"⟕ mismatch: NJ=$njCount TA=$taCount ($ds n=$n)")
      release(w)
      Seq[Any](ds, n, njCount, njMs, taMs, f"${taMs / njMs}%.1fx")
    }

  // --------------------------------------- Fig. 14: NJ runtime breakdown

  /** Percentage of the NJ left-outer runtime spent in the CLJ node, the
    * W_uo sweep and the W_n sweep + finalization (paper Fig. 14).
    */
  def fig14(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    for ((ds, ns) <- sizes.toSeq.sortBy(_._1); n <- ns) yield {
      val w = workload(spark, ds, n)
      val cljMs = Bench.medianMs(reps, warmup) {
        winitRows(w.r, w.s, w.theta).count()
      }
      val wuoMs = Bench.medianMs(reps, warmup) {
        windowsFrom(winitRows(w.r, w.s, w.theta), Mode.UO).count()
      }
      val njMs = Bench.medianMs(reps, warmup) {
        NegationJoin(w.r, w.s, w.theta, TPJoinOp.LeftOuter).count()
      }
      release(w)
      val clj = 100.0 * cljMs / njMs
      val wuo = 100.0 * math.max(0.0, wuoMs - cljMs) / njMs
      val wn = 100.0 * math.max(0.0, njMs - wuoMs) / njMs
      Seq[Any](ds, n, njMs, f"$clj%.0f%%", f"$wuo%.0f%%", f"$wn%.0f%%")
    }

  // --------------------------------------------- Fig. 15: NJ scalability

  def fig15(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 1, warmup: Int = 0): Seq[Seq[Any]] =
    for ((ds, ns) <- sizes.toSeq.sortBy(_._1); n <- ns) yield {
      val w = workload(spark, ds, n)
      var c = 0L
      val njMs = Bench.medianMs(reps, warmup) {
        c = NegationJoin(w.r, w.s, w.theta, TPJoinOp.LeftOuter).count()
      }
      release(w)
      Seq[Any](ds, n, c, njMs)
    }

  // ------------------------------------------------------------- headers

  val table4Header = Seq("dataset", "cardinality", "timeRange", "minDur",
    "maxDur", "avgDur", "numFacts", "distinctPts", "maxTup/pt", "avgTup/pt")
  val fig11Header = Seq("dataset", "n", "|W_UO|", "NJ ms", "TA ms", "TA/NJ")
  val fig12Header = Seq("dataset", "n", "|W_N|", "NJ-WN ms", "NJ-WUON ms",
    "TA ms", "TA/WUON", "TA/WN")
  val fig13Header = Seq("dataset", "n", "result_rows", "NJ ms", "TA ms", "TA/NJ")
  val fig14Header = Seq("dataset", "n", "NJ ms", "CLJ%", "WUO%", "WN%")
  val fig15Header = Seq("dataset", "n", "result_rows", "NJ ms")

  /** Default bench sizes -- small enough for CI, large enough for the
    * paper's relative behaviour to show.
    */
  val defaultSizes: Map[String, Seq[Long]] =
    Map("webkit" -> Seq(20_000L, 50_000L, 100_000L, 200_000L),
        "meteo" -> Seq(5_000L, 10_000L, 20_000L, 40_000L))
  val scalabilitySizes: Map[String, Seq[Long]] =
    Map("webkit" -> Seq(100_000L, 200_000L, 400_000L),
        "meteo" -> Seq(25_000L, 50_000L, 100_000L))
}
