package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** TP change preservation (paper §III): only consecutive time points with
  * equal facts and equivalent lineages may be grouped into one interval, and
  * intervals must be maximal.
  *
  * [[coalesce]] merges adjacent/overlapping rows that agree on every column
  * except `ts`/`te` (facts, lineage string, probability) into maximal
  * intervals — a gaps-and-islands pass. The NJ operator's output is maximal
  * by construction (every window boundary is a change point), so tests
  * assert `coalesce` is a no-op on it.
  *
  * String equality of lineages is used as the equivalence proxy: rows
  * produced by one deterministic pipeline render equivalent lineages
  * identically (operand order is construction order, disjuncts sorted).
  */
object ChangePreserve {

  def coalesce(df: DataFrame): DataFrame = {
    val keyCols = df.columns.toSeq.filterNot(c => c == "ts" || c == "te")
    val w = Window.partitionBy(keyCols.map(col): _*).orderBy(col("ts"), col("te"))
    val prevTe = lag(col("te"), 1).over(w)
    val flagged = df
      .withColumn("_new", when(prevTe.isNull || col("ts") > prevTe, 1).otherwise(0))
      .withColumn("_isl", sum(col("_new")).over(
        w.rowsBetween(Window.unboundedPreceding, Window.currentRow)))
    flagged
      .groupBy((keyCols :+ "_isl").map(col): _*)
      .agg(min(col("ts")).as("ts"), max(col("te")).as("te"))
      .select(df.columns.map(col).toSeq: _*)
  }
}
