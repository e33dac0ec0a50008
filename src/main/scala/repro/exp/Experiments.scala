package repro.exp

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.NegationJoin.{Mode, clj, windows}
import repro.data.TPData
import repro.ta.TemporalAlignment
import repro.util.Bench

/** The paper's evaluation (§VII): Table IV and Figs. 11–15.
  *
  * Run with `sbt "runMain repro.exp.Experiments <table4|fig11|…|fig15|all> [webkit=n1,n2] [meteo=n3]"`.
  * Size arguments replace every chosen figure's default sizes; a dataset
  * left out is not run. Each figure prints a markdown table.
  *
  * Each `figNN`/`table4` function runs one experiment and returns the rows
  * of its table. Inputs are cached and materialized before timing, and every
  * timed query runs to completion into Spark's `noop` sink
  * ([[Bench.noopMedianMs]]), so measured times cover join + sweep +
  * finalization + the output columns, not data generation. The NJ ≡ TA
  * cardinality checks run as separate, untimed counts.
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

  /** A dataset: its generator, the fact columns of one series, the partner
    * relation's maximum shift and the workload's θ.
    */
  private final case class DatasetSpec(
      generate: (SparkSession, Long) => DataFrame, series: Seq[String],
      maxShift: Long, theta: (String, String) => Column)

  private val datasets: Map[String, DatasetSpec] = Map(
    "webkit" -> DatasetSpec((sp, n) => TPData.webkitLite(sp, n), Seq("file"), 200, webkitTheta),
    "meteo" -> DatasetSpec((sp, n) => TPData.meteoLite(sp, n), Seq("station", "metric"), 40, meteoTheta))

  private def dataset(name: String): DatasetSpec = datasets.getOrElse(name,
    throw new IllegalArgumentException(
      s"unknown dataset '$name'; expected one of ${datasets.keys.toSeq.sorted.mkString(", ")}"))

  /** Build and materialize a workload (cached inputs). */
  def workload(spark: SparkSession, name: String, n: Long): Workload = {
    val d = dataset(name)
    val r = d.generate(spark, n).persist(StorageLevel.MEMORY_AND_DISK)
    val s = TPData.shifted(r, d.series, d.maxShift, idPrefix = "s")
      .persist(StorageLevel.MEMORY_AND_DISK)
    r.count(); s.count()
    Workload(name, n, r, s, d.theta)
  }

  def release(w: Workload): Unit = { w.r.unpersist(); w.s.unpersist() }

  private def perWorkload(spark: SparkSession, sizes: Map[String, Seq[Long]])(
      f: Workload => Seq[Any]): Seq[Seq[Any]] =
    for ((ds, ns) <- sizes.toSeq.sortBy(_._1); n <- ns) yield {
      val w = workload(spark, ds, n)
      try f(w) finally release(w)
    }

  // ------------------------------------------------------------ Table IV

  /** Paper Table IV: dataset properties, one row per (dataset, n). */
  def table4(spark: SparkSession, sizes: Map[String, Seq[Long]]): Seq[Seq[Any]] =
    for ((ds, ns) <- sizes.toSeq.sortBy(_._1); n <- ns) yield {
      val d = dataset(ds)
      val s = TPData.stats(d.generate(spark, n), d.series)
      Seq[Any](s"${ds}Lite", s.cardinality, s.timeRange, s.minDuration, s.maxDuration,
        f"${s.avgDuration}%.1f", s.numFacts, s.distinctPoints,
        s.maxTuplesPerPoint, f"${s.avgTuplesPerPoint}%.1f")
    }

  // ------------------------------------------------- Fig. 11: W_UO runtime

  /** NJ vs TA for unmatched+overlapping windows; one row per (dataset, n). */
  def fig11(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    perWorkload(spark, sizes) { w =>
      def nj = windows(clj(w.r, w.s, w.theta), Mode.UO, windowSideIsLeft = true)
      def ta = TemporalAlignment.windowsUO(w.r, w.s, w.theta)
      val njMs = Bench.noopMedianMs(reps, warmup)(nj)
      val taMs = Bench.noopMedianMs(reps, warmup)(ta)
      val (njCount, taCount) = (nj.count(), ta.count())
      require(njCount == taCount, s"W_UO mismatch: NJ=$njCount TA=$taCount (${w.dataset} n=${w.n})")
      Seq[Any](w.dataset, w.n, njCount, njMs, taMs, f"${taMs / njMs}%.1fx")
    }

  // --------------------------------------- Fig. 12: negating-window runtime

  /** NJ-WN ([[NegationJoin.windows]] on a cached CLJ: it values N rows'
    * lineage as TA does), NJ-WUON (incl. CLJ+UO), TA N-subtree.
    *
    * The winit cache exists ONLY while NJ-WN is timed and counted (and is
    * dropped before the other measurements): Spark's cache manager
    * substitutes cached plan fragments into *any* matching plan, so a live
    * winit cache would silently accelerate both NJ-WUON and TA's normalize
    * pass.
    */
  def fig12(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    perWorkload(spark, sizes) { w =>
      def ta = TemporalAlignment.windowsNU(w.r, w.s, w.theta)
      val winit = clj(w.r, w.s, w.theta).persist(StorageLevel.MEMORY_AND_DISK)
      winit.count()
      val wnMs = Bench.noopMedianMs(reps, warmup)(windows(winit, Mode.N, windowSideIsLeft = true))
      val njN = windows(winit, Mode.N, windowSideIsLeft = true).count()
      // TA's N subtree is exactly WU ∪ WN.
      val njUN = windows(winit, Mode.UN, windowSideIsLeft = true).count()
      winit.unpersist(blocking = true)
      val wuonMs = Bench.noopMedianMs(reps, warmup)(
        windows(clj(w.r, w.s, w.theta), Mode.All, windowSideIsLeft = true))
      val taMs = Bench.noopMedianMs(reps, warmup)(ta)
      val taNU = ta.count()
      require(taNU == njUN, s"W_UN mismatch: TA=$taNU NJ=$njUN (${w.dataset} n=${w.n})")
      Seq[Any](w.dataset, w.n, njN, wnMs, wuonMs, taMs,
        f"${taMs / wuonMs}%.1fx", f"${taMs / wnMs}%.1fx")
    }

  // --------------------------------------- Fig. 13: TP left outer join

  def fig13(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    perWorkload(spark, sizes) { w =>
      def nj = NegationJoin(w.r, w.s, w.theta, TPJoinOp.LeftOuter)
      def ta = TemporalAlignment.leftOuter(w.r, w.s, w.theta)
      val njMs = Bench.noopMedianMs(reps, warmup)(nj)
      val taMs = Bench.noopMedianMs(reps, warmup)(ta)
      val (njCount, taCount) = (nj.count(), ta.count())
      require(njCount == taCount, s"⟕ mismatch: NJ=$njCount TA=$taCount (${w.dataset} n=${w.n})")
      Seq[Any](w.dataset, w.n, njCount, njMs, taMs, f"${taMs / njMs}%.1fx")
    }

  // --------------------------------------- Fig. 14: NJ runtime breakdown

  /** Percentage of the NJ left-outer runtime spent in the CLJ node, the
    * W_uo windows (sweep + finalization) and the W_n windows + the output
    * select (paper Fig. 14), as differences of three separately run queries.
    */
  def fig14(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 3, warmup: Int = 1): Seq[Seq[Any]] =
    perWorkload(spark, sizes) { w =>
      val cljMs = Bench.noopMedianMs(reps, warmup)(clj(w.r, w.s, w.theta))
      val wuoMs = Bench.noopMedianMs(reps, warmup)(
        windows(clj(w.r, w.s, w.theta), Mode.UO, windowSideIsLeft = true))
      val njMs = Bench.noopMedianMs(reps, warmup)(NegationJoin(w.r, w.s, w.theta, TPJoinOp.LeftOuter))
      val cljPct = 100.0 * cljMs / njMs
      val wuo = 100.0 * math.max(0.0, wuoMs - cljMs) / njMs
      val wn = 100.0 * math.max(0.0, njMs - wuoMs) / njMs
      Seq[Any](w.dataset, w.n, njMs, f"$cljPct%.0f%%", f"$wuo%.0f%%", f"$wn%.0f%%")
    }

  // --------------------------------------------- Fig. 15: NJ scalability

  def fig15(spark: SparkSession, sizes: Map[String, Seq[Long]],
            reps: Int = 1, warmup: Int = 1): Seq[Seq[Any]] =
    perWorkload(spark, sizes) { w =>
      def nj = NegationJoin(w.r, w.s, w.theta, TPJoinOp.LeftOuter)
      val njMs = Bench.noopMedianMs(reps, warmup)(nj)
      Seq[Any](w.dataset, w.n, nj.count(), njMs)
    }

  // ------------------------------------------------------- entry point

  /** Default sizes -- small enough for one machine, large enough for the
    * paper's relative behaviour to show.
    */
  val defaultSizes: Map[String, Seq[Long]] =
    Map("webkit" -> Seq(20_000L, 50_000L, 100_000L, 200_000L),
        "meteo" -> Seq(5_000L, 10_000L, 20_000L, 40_000L))

  /** One printed table: its name on the command line, title, header,
    * default sizes and rows.
    */
  final case class Figure(
      name: String, title: String, header: Seq[String], sizes: Map[String, Seq[Long]],
      rows: (SparkSession, Map[String, Seq[Long]]) => Seq[Seq[Any]])

  val figures: Seq[Figure] = Seq(
    Figure("table4", "Table IV -- dataset properties",
      Seq("dataset", "cardinality", "timeRange", "minDur", "maxDur", "avgDur",
        "numFacts", "distinctPts", "maxTup/pt", "avgTup/pt"),
      Map("webkit" -> Seq(200_000L), "meteo" -> Seq(200_000L)), table4),
    Figure("fig11", "Fig. 11 -- W_UO runtime [ms]",
      Seq("dataset", "n", "|W_UO|", "NJ ms", "TA ms", "TA/NJ"),
      defaultSizes, fig11(_, _)),
    Figure("fig12", "Fig. 12 -- negating-window runtime [ms]",
      Seq("dataset", "n", "|W_N|", "NJ-WN ms", "NJ-WUON ms", "TA ms", "TA/WUON", "TA/WN"),
      defaultSizes, fig12(_, _)),
    Figure("fig13", "Fig. 13 -- TP left outer join runtime [ms]",
      Seq("dataset", "n", "result_rows", "NJ ms", "TA ms", "TA/NJ"),
      defaultSizes, fig13(_, _)),
    Figure("fig14", "Fig. 14 -- NJ runtime breakdown",
      Seq("dataset", "n", "NJ ms", "CLJ%", "WUO%", "WN%"),
      Map("webkit" -> Seq(100_000L), "meteo" -> Seq(20_000L)), fig14(_, _)),
    Figure("fig15", "Fig. 15 -- NJ scalability [ms]",
      Seq("dataset", "n", "result_rows", "NJ ms"),
      Map("webkit" -> Seq(100_000L, 200_000L, 400_000L), "meteo" -> Seq(25_000L, 50_000L, 100_000L)),
      fig15(_, _)))

  val usage: String =
    s"usage: Experiments <${(figures.map(_.name) :+ "all").mkString("|")}> [dataset=n1,n2,...]..."

  /** A parsed command line: the figures to print and, when given, the sizes
    * that replace each figure's defaults.
    */
  final case class Request(figures: Seq[Figure], sizes: Option[Map[String, Seq[Long]]])

  /** Parse `<figure|all> [dataset=n1,n2,...]...`; a bad argument fails with
    * an `IllegalArgumentException` that names it.
    */
  def parseArgs(args: Seq[String]): Request = {
    if (args.isEmpty) throw new IllegalArgumentException(usage)
    val chosen =
      if (args.head == "all") figures
      else figures.filter(_.name == args.head)
    if (chosen.isEmpty) throw new IllegalArgumentException(s"unknown figure '${args.head}'; $usage")
    val sizes = args.tail.map(parseSizes)
    val names = sizes.map(_._1)
    names.diff(names.distinct).headOption.foreach { ds =>
      throw new IllegalArgumentException(s"dataset '$ds' is given sizes twice")
    }
    Request(chosen, Option.when(sizes.nonEmpty)(sizes.toMap))
  }

  private def parseSizes(arg: String): (String, Seq[Long]) = arg.split("=", 2) match {
    case Array(ds, ns) =>
      dataset(ds) // rejects an unknown dataset by name
      ds -> ns.split(",", -1).toSeq.map { n =>
        n.trim.toLongOption.filter(_ > 0).getOrElse(throw new IllegalArgumentException(
          s"size '$n' in '$arg' is not a positive integer"))
      }
    case _ => throw new IllegalArgumentException(s"argument '$arg' is not dataset=n1,n2,...; $usage")
  }

  /** Compute and print the requested figures; returns the printed lines. */
  def run(spark: SparkSession, req: Request): Seq[String] =
    req.figures.flatMap(f => Bench.table(f.title, f.header, f.rows(spark, req.sizes.getOrElse(f.sizes))))

  def main(args: Array[String]): Unit = {
    val req = parseArgs(args.toSeq)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("experiments")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      println(s"Experiments ${args.mkString(" ")}: master ${spark.sparkContext.master}, " +
        s"${spark.sparkContext.defaultParallelism} cores, ${java.time.LocalDate.now}")
      run(spark, req)
    } finally spark.stop()
  }
}
