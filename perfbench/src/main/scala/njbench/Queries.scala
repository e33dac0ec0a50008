package njbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{NegationJoin, TPJoinOp}
import repro.ta.TemporalAlignment

/** The timed queries: NJ ▷ ⟕ ⟖ ⟗ and TA ⟕, each one `DataFrame`. */
object Queries {

  /** Op names, in the order every round runs them. */
  val ops: Seq[String] = Seq("anti", "left", "right", "full", "ta_left")

  /** The end-to-end metric each op's median time is reported as. */
  def metric(op: String): String = if (op == "ta_left") "ta_left_s" else s"nj_${op}_s"

  def build(in: Inputs, op: String): DataFrame = op match {
    case "anti"    => NegationJoin(in.r, in.s, in.theta, TPJoinOp.Anti)
    case "left"    => NegationJoin(in.r, in.s, in.theta, TPJoinOp.LeftOuter)
    case "right"   => NegationJoin(in.r, in.s, in.theta, TPJoinOp.RightOuter)
    case "full"    => NegationJoin(in.r, in.s, in.theta, TPJoinOp.FullOuter)
    case "ta_left" => TemporalAlignment.leftOuter(in.ta._1, in.ta._2, in.theta)
  }

  /** Materialize every column of every row, keeping nothing. */
  def noop(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  /** Seconds taken by `f`. */
  def seconds(f: => Unit): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0) / 1e9
  }

  /** Row count plus an order-independent row hash of `df` over `cols`.
    *
    * Each row hashes to a value in [0, 2^40) (`p` rounded to 1e-9 first) and
    * the hash is their sum, so the hash of a disjoint union is the sum of
    * the parts' hashes.
    */
  final case class Digest(rows: Long, hash: Long) {
    def +(o: Digest): Digest = Digest(rows + o.rows, hash + o.hash)
  }

  def digest(df: DataFrame, cols: Seq[String]): Digest = {
    val vals = cols.map(c => if (c == "p") round(col(c), 9) else col(c))
    val row = df.agg(count(lit(1)), sum(pmod(xxhash64(vals: _*), lit(1L << 40)))).collect()(0)
    Digest(row.getLong(0), if (row.isNullAt(1)) 0L else row.getLong(1))
  }

  /** `df` with every column of `like` it lacks added as a typed null. */
  def padTo(df: DataFrame, like: DataFrame): DataFrame =
    df.select(like.schema.fields.toSeq.map { f =>
      if (df.columns.contains(f.name)) col(f.name) else lit(null).cast(f.dataType).as(f.name)
    }: _*)
}
