package njbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.Path
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.functions._
import repro.core.{GroupWindows, NegationJoin}
import repro.ta.TemporalAlignment
import njbench.Main.{Metric, median}
import njbench.Queries.{noop, ops}

/** The traced run: per-layer times and exact counts.
  *
  * Each layer is timed from outside, by calling its public function with its
  * input already cached, inside a [[Tracer]] span; exact counts come from a
  * [[StageCounters]] listener and from the layer outputs. Layers, by public
  * entry point:
  *
  *  - clj: `NegationJoin.winitRows`, both passes;
  *  - sweep: `NegationJoin.windowsFrom(cached winit, All)`;
  *  - kernel: `GroupWindows.toMatches` + `GroupWindows.all` in this JVM on
  *    the collected groups of the (r;s) pass;
  *  - finalize: `NegationJoin.windowToOut` (and through it `Lineage`) on the
  *    cached windows;
  *  - unpack: `NegationJoin.unpack` on the cached output rows;
  *  - ta: `TemporalAlignment.windowsUO` and `windowsNU` on TA's input;
  *  - shuffle / exec: every whole query, twice, under the listener.
  *
  * The counts are checked: each whole query runs twice and its stage count
  * and shuffle bytes must agree; the window counts must account for the
  * CLJ's matches and for the ▷ and ⟕ output rows (and, on hotkey, equal the
  * closed form). A failed check counts as failed.
  */
object Traced {

  val Reps = 3

  final case class Result(metrics: Seq[Metric], attempted: Int, failures: Seq[String])

  /** Shuffle exchanges in the static physical plan of `build`, planned with
    * adaptive execution off so that the plan holds its exchanges up front.
    */
  def exchanges(spark: SparkSession, build: => DataFrame): Int = {
    def count(p: SparkPlan): Int = p match {
      case e: ShuffleExchangeLike => 1 + e.children.map(count).sum
      case other                  => (other.children ++ other.subqueries).map(count).sum
    }
    val aqe = "spark.sql.adaptive.enabled"
    val was = spark.conf.get(aqe)
    spark.conf.set(aqe, false)
    try count(build.queryExecution.executedPlan)
    finally spark.conf.set(aqe, was)
  }

  def run(spark: SparkSession, in: Inputs, checks: Checks.Result, sessionStart: Double,
          out: Path): Result = {
    import spark.implicits._
    val tracer = new Tracer
    val counters = new StageCounters
    val metrics = Seq.newBuilder[Metric]
    val failures = Seq.newBuilder[String]
    var attempted = 0
    def m(name: String, value: Double, unit: String): Unit = metrics += Metric(name, value, unit)
    def invariant(name: String)(ok: Boolean, detail: => String): Unit = {
      attempted += 1
      if (!ok) failures += s"$name: $detail"
    }
    /** Count that must read the same in both executions of a query. */
    def exact(name: String, values: Seq[Long], unit: String = "count"): Unit = {
      invariant(s"$name repeats")(values.distinct.size == 1, values.mkString(", "))
      m(name, values.head.toDouble, unit)
    }
    /** Median seconds of `Reps` runs of `f`, each in its own span, after
      * one untimed run (span `name#0`) that compiles the layer's own plan.
      */
    def layer(name: String)(f: => Unit): Double = {
      val ts = (0 to Reps).map { i => System.gc(); tracer.span(name, s"$name#$i")(f)._2 }
      median(ts.tail)
    }

    // shuffle / exec: every whole query twice, tagged, under the listener.
    // Each traced ⟕ follows an untraced one (listener off, no span), and
    // the ratio of their medians is the tracing overhead.
    var untracedLeft, tracedLeft = Seq.empty[Double]
    tracer.span("queries") {
      for (op <- ops) {
        val runs = (1 to 2).map { i =>
          if (op == "left") {
            System.gc()
            untracedLeft :+= Queries.seconds(noop(Queries.build(in, op)))
          }
          System.gc()
          val tag = s"$op#$i"
          spark.sparkContext.addSparkListener(counters)
          val ((_, secs), acc) =
            try counters.tagged(spark, tag)(tracer.span("query", tag)(noop(Queries.build(in, op))))
            finally spark.sparkContext.removeSparkListener(counters)
          if (op == "left") tracedLeft :+= secs
          acc
        }
        exact(s"shuffle.write_bytes.$op", runs.map(_.shuffleWriteBytes), "B")
        exact(s"shuffle.stages.$op", runs.map(_.stages))
        m(s"shuffle.spill_bytes.$op", median(runs.map(_.spillBytes.toDouble)), "B")
        m(s"shuffle.exchanges.$op", exchanges(spark, Queries.build(in, op)), "count")
        m(s"exec.run_s.$op", median(runs.map(_.runMs / 1e3)), "s")
        m(s"exec.gc_s.$op", median(runs.map(_.gcMs / 1e3)), "s")
        checks.digests.get(op).foreach(d => m(s"rows.$op", d.rows.toDouble, "count"))
      }
    }

    tracer.span("layers") {
      // clj
      m("clj.s", layer("clj")(noop(NegationJoin.winitRows(in.r, in.s, in.theta).toDF())), "s")
      m("clj.sr_s", layer("clj.sr")(noop(NegationJoin.winitRows(in.r, in.s, in.theta, swap = true).toDF())), "s")
      val x = NegationJoin.winitRows(in.r, in.s, in.theta).cache()
      val xs = NegationJoin.winitRows(in.r, in.s, in.theta, swap = true).cache()
      val rows = x.count()
      xs.count()
      val matched = x.filter($"ls".isNotNull).count()
      val key = in.thetaKey
      val candidates = in.r.groupBy(key.map(col): _*).agg(count(lit(1)).as("nr"))
        .join(in.s.groupBy(key.map(col): _*).agg(count(lit(1)).as("ns")), key)
        .agg(sum($"nr" * $"ns")).collect()(0).getLong(0)
      m("clj.rows", rows.toDouble, "count")
      m("clj.matched", matched.toDouble, "count")
      m("clj.candidate_pairs", candidates.toDouble, "count")
      m("clj.selectivity", matched.toDouble / candidates, "ratio")

      // sweep
      m("sweep.s", layer("sweep")(noop(NegationJoin.windowsFrom(x, NegationJoin.Mode.All).toDF())), "s")
      m("sweep.sr_s", layer("sweep.sr")(noop(NegationJoin.windowsFrom(xs, NegationJoin.Mode.All).toDF())), "s")
      val groups = x.groupBy("fr", "lr", "rts", "rte").agg(count($"ls").as("m"))
        .agg(count(lit(1)), max($"m")).collect()(0)
      m("sweep.groups", groups.getLong(0).toDouble, "count")
      m("sweep.max_group", groups.getLong(1).toDouble, "count")
      val w = NegationJoin.windowsFrom(x, NegationJoin.Mode.All).cache()
      val kinds = w.groupBy("kind").count().collect().map(r => r.getString(0) -> r.getLong(1)).toMap
      val Seq(wu, wo, wn) = Seq("U", "O", "N").map(k => kinds.getOrElse(k, 0L))
      val windows = Map("windows_u" -> wu, "windows_o" -> wo, "windows_n" -> wn)
      windows.foreach { case (name, c) => m(s"sweep.$name", c.toDouble, "count") }
      // The windows must account for the CLJ and the joins' outputs: one O
      // window per match, ▷ = WU ∪ WN and ⟕ = WU ∪ WO ∪ WN.
      invariant("O windows = CLJ matches")(wo == matched, s"$wo O windows, $matched matches")
      checks.digests.get("anti").foreach(d => invariant("anti rows = U + N")(d.rows == wu + wn, s"${d.rows}"))
      checks.digests.get("left").foreach(d => invariant("left rows = U + O + N")(d.rows == wu + wo + wn, s"${d.rows}"))
      for ((k, want) <- in.expected; got <- windows.get(k))
        invariant(s"closed-form $k")(got == want, s"got $got, expected $want")

      // kernel: the sweep's per-group work, in this JVM
      val grouped = x.collect().groupBy(g => (g.fr, g.lr, g.rts, g.rte)).values.toVector
      val kernelS = layer("kernel") {
        grouped.foreach { rs =>
          val h = rs.head
          GroupWindows.all(h.fr, h.lr, h.pr, h.rts, h.rte, GroupWindows.toMatches(rs.toSeq))
        }
      }
      m("kernel.s", kernelS, "s")
      m("kernel.ns_per_match", kernelS * 1e9 / math.max(1L, matched), "ns")

      // finalize
      m("finalize.s", layer("finalize")(noop(w.map(NegationJoin.windowToOut(_, windowSideIsLeft = true)).toDF())), "s")
      m("finalize.disjuncts_per_n",
        w.filter($"kind" === "N").agg(avg(size($"lsLins"))).collect()(0).getDouble(0), "count")

      // unpack
      val o = w.map(NegationJoin.windowToOut(_, windowSideIsLeft = true)).cache()
      o.count()
      m("unpack.s", layer("unpack")(noop(NegationJoin.unpack(o, in.r, in.s, anti = false))), "s")

      // ta
      val (tr, ts) = in.ta
      m("ta.uo_s", layer("ta.uo")(noop(TemporalAlignment.windowsUO(tr, ts, in.theta))), "s")
      m("ta.nu_s", layer("ta.nu")(noop(TemporalAlignment.windowsNU(tr, ts, in.theta))), "s")
      Seq(x, xs, w, o).foreach(_.unpersist())
    }

    val heapPeak = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum
    m("jvm.peak_heap_mb", heapPeak / 1048576.0, "MB")
    m("session.start_s", sessionStart, "s")
    m("trace.overhead_ratio", median(tracedLeft) / median(untracedLeft), "ratio")
    tracer.write(out)
    println(s"spans written to $out")
    val ms = metrics.result()
    ms.foreach(x => println(f"${x.name}%-28s ${x.value}%14.4f ${x.unit}"))
    Result(ms, attempted, failures.result())
  }
}
