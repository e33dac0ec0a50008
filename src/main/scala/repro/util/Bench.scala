package repro.util

import org.apache.spark.sql.Dataset

/** Minimal wall-clock benchmark harness: warmup + median-of-k runs.
  *
  * Queries are timed through [[noopMedianMs]], which writes every row of the
  * query to Spark's `noop` sink. `count()` would let Catalyst prune the
  * columns a count does not need (the fact-unpacking projection among them),
  * so it would time a smaller plan than the query's.
  */
object Bench {

  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    ((a, (System.nanoTime() - t0) / 1e6))
  }

  /** Median runtime in ms over `reps` timed runs after `warmup` discards. */
  def medianMs(reps: Int = 3, warmup: Int = 1)(f: => Unit): Double = {
    (0 until warmup).foreach(_ => f)
    val times = (0 until reps).map(_ => timeMs(f)._2).sorted
    times(times.length / 2)
  }

  /** [[medianMs]] of running `query` to completion into the `noop` sink. */
  def noopMedianMs(reps: Int, warmup: Int)(query: => Dataset[_]): Double =
    medianMs(reps, warmup)(query.write.format("noop").mode("overwrite").save())

  /** Render one markdown table row. */
  def row(cells: Any*): String =
    cells.map {
      case d: Double => f"$d%.1f"
      case x         => x.toString
    }.mkString("| ", " | ", " |")

  /** Print a titled markdown table; returns the lines for reuse. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[Any]]): Seq[String] = {
    val lines =
      Seq(s"\n### $title", header.mkString("| ", " | ", " |"),
          header.map(_ => "---").mkString("| ", " | ", " |")) ++
        rows.map(r => row(r: _*))
    lines.foreach(println)
    lines
  }
}
