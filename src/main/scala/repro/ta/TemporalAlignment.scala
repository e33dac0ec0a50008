package repro.ta

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core._

/** TA — the Temporal Alignment baseline (Dignös et al., SIGMOD'12/TODS'16)
  * with the TP reduction rules the paper built for its comparison (§VII-A,
  * Fig. 10b/10c).
  *
  * Two primitive operators adjust intervals by *replicating* input tuples:
  *
  *  - [[align]] `Φ(k, m)` — for every matching overlapping pair, a copy of
  *    the `k` tuple restricted to the pairwise intersection, plus copies for
  *    the maximal subintervals of `k.T` not covered by any matching `m`
  *    tuple, found by align's own scan (as in Dignös et al.'s operator).
  *    The contributing `m` tuples are NOT recorded (the paper's stated
  *    limitation), so recombining facts/lineages needs further joins.
  *  - [[normalize]] `N(k, m)` — `k` tuples split at every boundary of a
  *    matching `m` tuple (group-based adjustment).
  *
  * Each adjustment operator is ONE left outer join `k ⟕_{θ ∧ overlap} m` and
  * one scan per `k` tuple, as in Dignös et al.; TA shares no join, row format
  * or sweep with NJ.
  *
  * The TP reduction rules then compute
  *
  *  - `WO ∪ WU` as `Φ(k,m) ⟕_{θ ∧ T=T} Φ(m,k)` + duplicate elimination
  *    (Fig. 10b) — the interval-overlap join work is done TWICE (once per
  *    alignment), and identical replicas force a `distinct`;
  *  - `WN ∪ WU` via normalization + a containment join + re-grouping
  *    (Fig. 10c) — the unmatched windows are computed a SECOND time;
  *  - TP joins as the duplicate-eliminating union of the two subtrees.
  *
  * This reproduces the redundancy the paper measures: per TP left outer
  * join, TA plans 5 joins (two aligns, their pairing join, a normalize and
  * its containment join) + an aggregation + 2 distincts, where NJ plans 1
  * join + one partition-local sweep. Both implementations
  * produce identical results (tested), and both compose and value output
  * lineage with the same functions ([[Lineage.overlapping]],
  * [[Lineage.negating]]), so the runtime gap isolates the plan-shape
  * difference.
  */
object TemporalAlignment {

  import NegationJoin.factCols

  /** A WO ∪ WU row's `(lin, p)`: `k`'s, or `λk ∧ λm` if an `m` tuple matched. */
  private val uoLineage = udf((kLin: String, kP: Double, mLin: String, mP: java.lang.Double) =>
    if (mLin == null) (kLin, kP) else Lineage.overlapping(kLin, kP, mLin, mP))

  /** A WN ∪ WU row's `(lin, p)`: `k`'s, or `λk ∧ ¬∨λm` over the `(lin, p)`s `ms`. */
  private val nuLineage = udf((kLin: String, kP: Double, ms: Seq[Row]) =>
    if (ms.isEmpty) (kLin, kP) else Lineage.negating(kLin, kP, ms.map(_.getString(0)), ms.map(_.getDouble(1))))

  private def overlapCond: Column =
    col("_l.ts") < col("_r.te") && col("_r.ts") < col("_l.te")

  /** Φ(k, m): replicate `k` per pairwise intersection with matching `m`
    * tuples, plus the uncovered gaps. θ is in (k-alias, m-alias) order.
    * Output keeps `k`'s schema (facts + lin/p) with adjusted `ts`/`te`, plus
    * `ots`/`ote`: `k`'s interval for an intersection, so the downstream
    * equal-interval join can verify the joined interval IS the pairwise
    * intersection of the generating tuples, and the gap itself for a gap.
    */
  def align(k: DataFrame, m: DataFrame, theta: (String, String) => Column): DataFrame =
    perTuple(k, m, theta) { (ts, te, ms) =>
      // gaps: a frontier scan over the matches in start order; a gap ends at
      // the next start (or at k.te) beyond the frontier
      val sorted = ms.sortBy(_._1)
      val frontiers = sorted.scanLeft(ts)((cover, mt) => math.max(cover, mt._2))
      val gaps = (sorted.map(_._1) :+ te).zip(frontiers)
        .collect { case (end, cover) if cover < end => (cover, end, cover, end) }
      ms.map { case (os, oe) => (os, oe, ts, te) } ++ gaps
    }

  /** N(k, m): split each `k` tuple at every boundary of a matching `m`
    * tuple (clipped to `k.T`). θ in (k-alias, m-alias) order. Output keeps
    * `k`'s schema with the split intervals as `ts`/`te`.
    */
  def normalize(k: DataFrame, m: DataFrame, theta: (String, String) => Column): DataFrame =
    perTuple(k, m, theta) { (ts, te, ms) =>
      val bounds = (ms.flatMap { case (os, oe) => Seq(os, oe) } ++ Seq(ts, te)).distinct.sorted
      bounds.sliding(2).collect { case Seq(a, b) if a < b => (a, b, a, b) }.toSeq
    }.drop("ots", "ote")

  /** The adjustment plan: `split` maps a `k` tuple's interval and its
    * matches clipped to it to the replicas' `(ts, te, ots, ote)`. Output:
    * `k`'s columns with `ts`/`te` replaced, plus `ots`/`ote`.
    */
  private def perTuple(k: DataFrame, m: DataFrame, theta: (String, String) => Column)(
      split: (Long, Long, Seq[(Long, Long)]) => Seq[(Long, Long, Long, Long)]): DataFrame = {
    val splitUdf = udf((ts: Long, te: Long, ms: Seq[Row]) =>
      split(ts, te, ms.map(x => (x.getLong(0), x.getLong(1)))))
    k.as("_l").join(m.as("_r"), theta("_l", "_r") && overlapCond, "left_outer")
      .groupBy(k.columns.toSeq.map(c => col(s"_l.$c")): _*)
      .agg(collect_list(when(col("_r.ts").isNotNull,
        struct(greatest(col("_l.ts"), col("_r.ts")), least(col("_l.te"), col("_r.te"))))).as("_ms"))
      .withColumn("_seg", explode(splitUdf(col("ts"), col("te"), col("_ms"))))
      .select(k.columns.toSeq.map {
        case "ts" => col("_seg._1").as("ts")
        case "te" => col("_seg._2").as("te")
        case c => col(c)
      } ++ Seq(col("_seg._3").as("ots"), col("_seg._4").as("ote")): _*)
  }

  /** Fig. 10b subtree: `Φ(k,m) ⟕_{θ ∧ T=T} Φ(m,k)` + distinct → WO ∪ WU
    * rows: `k`'s facts as the struct `_rf`, the matching `m` tuple's facts
    * as `_sf` (null for a WU row), and `lin`, `p`, `ts`, `te`.
    */
  def windowsUO(k: DataFrame, m: DataFrame, theta: (String, String) => Column): DataFrame = {
    val kf = factCols(k)
    val mf = factCols(m)
    val ak = align(k, m, theta)
    val am = align(m, k, (o, i) => theta(i, o))
    // θ ∧ equal adjusted intervals, and the joined interval must equal the
    // pairwise intersection of the ORIGINAL intervals of both replicas —
    // otherwise replicas generated by third tuples pair up into spurious
    // sub-windows of the true overlap.
    val pairCond =
      col("_l.ts") === col("_r.ts") && col("_l.te") === col("_r.te") &&
        col("_l.ts") === greatest(col("_l.ots"), col("_r.ots")) &&
        col("_l.te") === least(col("_l.ote"), col("_r.ote"))
    ak.as("_l").join(am.as("_r"), theta("_l", "_r") && pairCond, "left_outer")
      .select(
        struct(kf.map(c => col(s"_l.$c").as(c)): _*).as("_rf"),
        when(col("_r.lin").isNotNull, struct(mf.map(c => col(s"_r.$c").as(c)): _*)).as("_sf"),
        uoLineage(col("_l.lin"), col("_l.p"), col("_r.lin"), col("_r.p")).as("_lp"),
        col("_l.ts").as("ts"), col("_l.te").as("te"))
      .select(col("_rf"), col("_sf"), col("_lp._1").as("lin"), col("_lp._2").as("p"), col("ts"), col("te"))
      .distinct()
  }

  /** Fig. 10c subtree: normalization + containment join + grouping →
    * WN ∪ WU rows, with `k`'s facts as `_rf`. The WU rows are computed here
    * a second time (deduplicated away in the final union).
    */
  def windowsNU(k: DataFrame, m: DataFrame, theta: (String, String) => Column): DataFrame = {
    val kf = factCols(k)
    val segs = normalize(k, m, theta)
    // segments never cross a matching boundary, so overlap ⇒ containment
    val j = segs.as("_l").join(m.as("_r"), theta("_l", "_r") && overlapCond, "left_outer")
    val grouped = j
      .groupBy(kf.map(c => col(s"_l.$c")) ++ Seq(
        col("_l.lin"), col("_l.p"), col("_l.ts"), col("_l.te")): _*)
      .agg(sort_array(collect_list(
        when(col("_r.lin").isNotNull, struct(col("_r.lin").as("lin"), col("_r.p").as("p")))
      )).as("ms"))
    grouped.select(
      struct(kf.map(c => col(s"_l.$c").as(c)): _*).as("_rf"),
      nuLineage(col("_l.lin"), col("_l.p"), col("ms")).as("_lp"),
      col("_l.ts").as("ts"), col("_l.te").as("te"))
      .select(col("_rf"), col("_lp._1").as("lin"), col("_lp._2").as("p"), col("ts"), col("te"))
  }

  /** WN ∪ WU rows of a swapped (s;r) subtree: their facts are the right side's.
    * Unions by name fill the side a row lacks, `_sf` or `_rf`, with null.
    */
  private def flip(nuRows: DataFrame): DataFrame = nuRows.withColumnRenamed("_rf", "_sf")

  // ------------------------------------------------------------- TP joins

  /** `r ▷Tp s` via TA: the N-subtree alone (WU ∪ WN). */
  def anti(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame =
    output(windowsNU(r, s, theta), r, s, anti = true)

  /** `r ⟕Tp s` via TA: duplicate-eliminating union of both subtrees. */
  def leftOuter(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame =
    output(windowsUO(r, s, theta).unionByName(windowsNU(r, s, theta), allowMissingColumns = true)
      .distinct(), r, s, anti = false)

  /** `r ⟖Tp s` via TA: WO of (r;s) plus flipped WU ∪ WN of (s;r). */
  def rightOuter(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame = {
    val o = windowsUO(r, s, theta).filter(col("_sf").isNotNull)
    val nu = flip(windowsNU(s, r, (o2, i) => theta(i, o2)))
    output(o.unionByName(nu, allowMissingColumns = true).distinct(), r, s, anti = false)
  }

  /** `r ⟗Tp s` via TA: left outer plus flipped WU ∪ WN of (s;r). */
  def fullOuter(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame = {
    val left = windowsUO(r, s, theta).unionByName(windowsNU(r, s, theta), allowMissingColumns = true)
    val nu = flip(windowsNU(s, r, (o2, i) => theta(i, o2)))
    output(left.unionByName(nu, allowMissingColumns = true).distinct(), r, s, anti = false)
  }

  /** NJ's output select, so both implementations share an output schema. */
  private def output(rows: DataFrame, r: DataFrame, s: DataFrame, anti: Boolean): DataFrame =
    NegationJoin.output(rows, r, s, anti)(c => col(s"_rf.$c"), c => col(s"_sf.$c"))
}
