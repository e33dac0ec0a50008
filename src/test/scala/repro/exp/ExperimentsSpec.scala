package repro.exp

import repro.SparkSpec

/** Tiny-scale runs of the experiment harness: every experiment function
  * must execute end to end, and its internal NJ-vs-TA cardinality
  * consistency checks must hold (they `require` inside). The command line
  * is tested through `parseArgs` and `run`, not `main`, which stops its
  * session.
  */
class ExperimentsSpec extends SparkSpec {

  private val tiny = Map("webkit" -> Seq(1500L), "meteo" -> Seq(1000L))

  test("table4 returns one row per dataset with positive stats") {
    val rows = Experiments.table4(spark, Map("webkit" -> Seq(2000L), "meteo" -> Seq(2000L)))
    assert(rows.size == 2)
    assert(rows.forall(r => r(1).toString.toLong == 2000))
  }

  test("fig11 runs and NJ/TA window counts agree") {
    val rows = Experiments.fig11(spark, tiny, reps = 1, warmup = 0)
    assert(rows.size == 2)
    assert(rows.forall(_(2).toString.toLong > 0))
  }

  test("fig12 runs and TA N-subtree cardinality matches NJ") {
    val rows = Experiments.fig12(spark, tiny, reps = 1, warmup = 0)
    assert(rows.size == 2)
    assert(rows.forall(_(2).toString.toLong > 0))
  }

  test("fig13 runs and NJ/TA left-outer cardinalities agree") {
    val rows = Experiments.fig13(spark, tiny, reps = 1, warmup = 0)
    assert(rows.size == 2)
  }

  test("fig14 percentages are sane") {
    val rows = Experiments.fig14(spark, Map("webkit" -> Seq(1500L)), reps = 1, warmup = 0)
    assert(rows.size == 1)
    val pcts = rows.head.drop(3).map(_.toString.stripSuffix("%").toDouble)
    assert(pcts.forall(p => p >= 0 && p <= 100))
  }

  test("fig15 runs on a tiny size") {
    val rows = Experiments.fig15(spark, Map("meteo" -> Seq(1000L)), reps = 1, warmup = 0)
    assert(rows.size == 1)
    assert(rows.head(2).toString.toLong > 0)
  }

  test("workload inputs are duplicate-free TP relations") {
    val w = Experiments.workload(spark, "meteo", 1000)
    import org.apache.spark.sql.expressions.Window
    import org.apache.spark.sql.functions._
    val win = Window.partitionBy(col("station"), col("metric")).orderBy(col("ts"))
    Seq(w.r, w.s).foreach { df =>
      val bad = df.withColumn("_prev", lag(col("te"), 1).over(win))
        .filter(col("_prev").isNotNull && col("ts") < col("_prev")).count()
      assert(bad == 0)
    }
    Experiments.release(w)
  }

  test("parseArgs takes a figure or all, and sizes that replace the defaults") {
    val req = Experiments.parseArgs(Seq("fig13", "meteo=1000,2000"))
    assert(req.figures.map(_.name) == Seq("fig13"))
    assert(req.sizes.contains(Map("meteo" -> Seq(1000L, 2000L))))
    val all = Experiments.parseArgs(Seq("all"))
    assert(all.figures == Experiments.figures && all.sizes.isEmpty)
  }

  test("parseArgs rejects bad arguments with an error naming them") {
    Seq(
      Seq.empty[String] -> "usage",
      Seq("fig16") -> "'fig16'",
      Seq("fig11", "webkit") -> "'webkit'",
      Seq("fig11", "tpch=100") -> "'tpch'",
      Seq("fig11", "meteo=10,x") -> "'x'",
      Seq("fig11", "meteo=") -> "'meteo='",
      Seq("fig11", "meteo=0") -> "'0'",
      Seq("fig11", "meteo=-5") -> "'-5'",
      Seq("fig11", "meteo=1", "meteo=2") -> "'meteo'",
    ).foreach { case (args, named) =>
      val e = intercept[IllegalArgumentException](Experiments.parseArgs(args))
      assert(e.getMessage.contains(named), s"$args: ${e.getMessage}")
    }
  }

  test("workload rejects an unknown dataset by name") {
    val e = intercept[IllegalArgumentException](Experiments.workload(spark, "tpch", 100))
    assert(e.getMessage.contains("'tpch'"))
  }

  test("run prints one figure at a tiny size") {
    val lines = Experiments.run(spark, Experiments.parseArgs(Seq("fig15", "meteo=500")))
    assert(lines.size == 4) // title, header, separator, one row
    assert(lines.head.contains("Fig. 15"))
    assert(lines.last.startsWith("| meteo | 500 | "))
  }
}
