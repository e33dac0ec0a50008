package njbench

import java.nio.file.Paths
import scala.collection.mutable
import org.apache.spark.sql.SparkSession

/** The NJ benchmark: one workload at one seed, in one fresh JVM.
  *
  * {{{
  * Main --workload webkit|meteo|hotkey --seed N --seconds S --trace 0|1 [--out DIR]
  * }}}
  *
  * `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
  * metrics of [[Traced]]. `--out` is where the traced run writes its spans.
  * The last line of standard output is the result as one JSON object.
  *
  * Load model: a closed loop — one process, one query at a time, on Spark
  * `local[k]` with k = min(4, cores), `ShufflePartitions` = 8 shuffle
  * partitions (2 per core) and broadcast joins off.
  *
  * Every run starts from a fresh JVM and follows the same sequence:
  * set up the inputs `SetupReps` times (median = `setup_s`), then warm up
  * with the untimed output checks (each query runs once, every column
  * hashed), then run timed rounds of all queries in a fixed order, with a
  * full GC before each query, until `--seconds` have passed (at least
  * `MinRounds` rounds). Each time is the median over the rounds.
  */
object Main {

  val SetupReps = 3
  val ShufflePartitions = 8
  val MinRounds = 3

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = need("workload")
    require(Workloads.names.contains(w), s"unknown workload $w; one of ${Workloads.names.mkString(", ")}")
    Opts(w, need("seed").toLong, need("seconds").toDouble, need("trace") == "1", m.getOrElse("out", "."))
  }

  def session(cores: Int): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("njbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // No background cleanup of earlier queries' shuffle files while the
      // next query is being timed; the run's local dir is removed at exit.
      .config("spark.cleaner.referenceTracking", false)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  /** A reported metric value. */
  final case class Metric(name: String, value: Double, unit: String)

  /** Set up the inputs `SetupReps` times: generate `r` and `s` at the seed
    * and cache them. Returns the inputs of the last set-up, still cached,
    * and each set-up's seconds.
    */
  def setup(spark: SparkSession, o: Opts): (Inputs, Seq[Double]) = {
    val size = Workloads.defaultSize(o.workload)
    var in: Inputs = null
    val times = (1 to SetupReps).map { i =>
      if (i > 1) spark.catalog.clearCache()
      Queries.seconds {
        in = Workloads.make(spark, o.workload, size, o.seed)
        in.frames.foreach(_.cache())
        in.frames.foreach(_.count())
      }
    }
    (in, times)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val t0 = System.nanoTime()
    val spark = session(cores)
    spark.sparkContext.setLogLevel("WARN")
    val sessionStart = (System.nanoTime() - t0) / 1e9
    println(s"njbench workload=${o.workload} seed=${o.seed} trace=${if (o.trace) 1 else 0} " +
      s"master=${spark.sparkContext.master} cores=$cores " +
      s"shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")}")

    def phase(name: String): Unit = println(f"phase $name%-8s done at ${(System.nanoTime() - t0) / 1e9}%.1f s")
    phase("session")
    val (in, setupTimes) = setup(spark, o)
    phase("setup")
    val checks = Checks.run(in)
    phase("checks")
    checks.failures.foreach(f => println(s"CHECK FAILED: $f"))
    println(s"rows: " + Queries.ops.flatMap(op => checks.digests.get(op).map(d => s"$op=${d.rows}")).mkString(" "))

    val (metrics, attempted, failed) =
      if (o.trace) {
        val t = Traced.run(spark, in, checks, sessionStart, Paths.get(o.out,
          s"trace-${o.workload}-${o.seed}.json"))
        (t.metrics, t.attempted, t.failures.size)
      } else endToEnd(spark, in, o, setupTimes)
    phase(if (o.trace) "traced" else "rounds")
    spark.stop()

    val allFailed = checks.failures.size + failed
    val allAttempted = checks.attempted + attempted
    println(f"attempted=$allAttempted failed=$allFailed failed_frac=${allFailed.toDouble / allAttempted}%.4f")
    def num(v: Double) = if (v.isNaN || v.isInfinite) "null" else v.toString
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    println(s"""{"correct": ${allFailed == 0}, "attempted": $allAttempted, "failed": $allFailed, """ +
      s""""metrics": {${ms.mkString(", ")}}}""")
  }

  /** Timed rounds of every query; returns the end-to-end metrics, the
    * queries attempted and the queries that threw.
    */
  def endToEnd(spark: SparkSession, in: Inputs, o: Opts, setupTimes: Seq[Double]): (Seq[Metric], Int, Int) = {
    var attempted = 0
    var failed = 0
    def timed(op: String): Option[Double] = {
      attempted += 1
      System.gc()
      try Some(Queries.seconds(Queries.noop(Queries.build(in, op))))
      catch {
        case e: Exception =>
          failed += 1
          println(s"QUERY FAILED: $op: $e")
          None
      }
    }
    val samples = mutable.Map.empty[String, Vector[Double]].withDefaultValue(Vector.empty)
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    var rounds = 0
    while (rounds < MinRounds || System.nanoTime() < deadline) {
      for (op <- Queries.ops; t <- timed(op)) samples(op) :+= t
      rounds += 1
    }
    def show(name: String, xs: Seq[Double]): Unit =
      if (xs.nonEmpty) println(f"$name%-12s median ${median(xs)}%.4f s  min ${xs.min}%.4f  max ${xs.max}%.4f  n=${xs.size}  " + xs.map(x => f"$x%.3f").mkString(" "))
    show("setup_s", setupTimes)
    Queries.ops.foreach(op => show(Queries.metric(op), samples(op)))
    val metrics = Metric("setup_s", median(setupTimes), "s") +:
      Queries.ops.map(op => Metric(Queries.metric(op), median(samples(op)), "s"))
    (metrics, attempted, failed)
  }
}
