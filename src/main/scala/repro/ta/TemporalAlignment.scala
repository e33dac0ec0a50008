package repro.ta

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core._

/** A tuple of a normalized relation: the generating tuple's fact (packed),
  * lineage and probability, with one split subinterval.
  */
final case class SegRow(fr: String, lr: String, pr: Double, ts: Long, te: Long)

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
  * join, TA runs 4 interval joins + an aggregation + 2 distincts where NJ
  * runs 1 interval join + one partition-local sweep. Both implementations
  * produce identical results (tested), and both compose and value output
  * lineage with the same functions ([[Lineage.renderAnd]],
  * [[Lineage.renderAndNotOr]], [[Lineage.probAnd]], [[Lineage.probAndNotOr]]),
  * so the runtime gap isolates the plan-shape difference.
  */
object TemporalAlignment {

  import NegationJoin.{factCols, winitRows}

  private val linAnd = udf((a: String, b: String) => Lineage.renderAnd(a, b))
  private val linAndNotOr = udf((a: String, bs: Seq[String]) => Lineage.renderAndNotOr(a, bs))
  private val probAnd = udf((a: String, pa: Double, b: String, pb: Double) =>
    Lineage.probAnd(a, pa, b, pb))
  private val probAndNotOr = udf((a: String, pa: Double, bs: Seq[String], pbs: Seq[Double]) =>
    Lineage.probAndNotOr(a, pa, bs, pbs))

  private def overlapCond: Column =
    col("_l.ts") < col("_r.te") && col("_r.ts") < col("_l.te")

  /** Φ(k, m): replicate `k` per pairwise intersection with matching `m`
    * tuples, plus the uncovered gaps. θ is in (k-alias, m-alias) order.
    * Output keeps `k`'s schema (facts + lin/p) with adjusted `ts`/`te`.
    */
  def align(k: DataFrame, m: DataFrame, theta: (String, String) => Column): DataFrame = {
    val kf = factCols(k)
    // replica per matching pair: the pairwise intersection. `ots`/`ote` keep
    // the replica's original interval (as the kernel implementation does) so
    // the downstream equal-interval join can verify the joined interval IS
    // the pairwise intersection of the generating tuples.
    val inter = k.as("_l").join(m.as("_r"), theta("_l", "_r") && overlapCond, "inner")
      .select(
        kf.map(c => col(s"_l.$c").as(c)) ++ Seq(
          col("_l.lin").as("lin"), col("_l.p").as("p"),
          greatest(col("_l.ts"), col("_r.ts")).as("ts"),
          least(col("_l.te"), col("_r.te")).as("te"),
          col("_l.ts").as("ots"), col("_l.te").as("ote")): _*)
    // replica per maximal uncovered gap: a frontier scan over the matches in
    // start order; a gap ends at the next start (or at k.te) beyond the frontier
    val gaps = perTuple(k, m, theta) { (t, ms) =>
      val sorted = ms.sortBy(_.os)
      val frontiers = sorted.scanLeft(t.ts)((cover, mt) => math.max(cover, mt.oe))
      (sorted.map(_.os) :+ t.te).zip(frontiers)
        .collect { case (end, cover) if cover < end => t.copy(ts = cover, te = end) }
    }
    inter.unionByName(toKSchema(gaps, k).withColumn("ots", col("ts")).withColumn("ote", col("te")))
  }

  /** N(k, m): split each `k` tuple at every boundary of a matching `m`
    * tuple (clipped to `k.T`). θ in (k-alias, m-alias) order. Output:
    * `k`'s facts packed as JSON + lineage/probability + split interval.
    */
  def normalize(k: DataFrame, m: DataFrame, theta: (String, String) => Column): Dataset[SegRow] =
    perTuple(k, m, theta) { (t, ms) =>
      val bounds = (ms.flatMap(mt => Seq(mt.os, mt.oe)) ++ Seq(t.ts, t.te)).distinct.sorted
      bounds.sliding(2).collect { case Seq(a, b) if a < b => t.copy(ts = a, te = b) }.toSeq
    }

  /** `split` maps each `k` tuple, as a [[SegRow]] over its whole interval,
    * and its matches in `m` clipped to it, to the tuple's replicas.
    */
  private def perTuple(k: DataFrame, m: DataFrame, theta: (String, String) => Column)(
      split: (SegRow, Seq[SMatch]) => Seq[SegRow]): Dataset[SegRow] = {
    val spark = k.sparkSession
    import spark.implicits._
    winitRows(k, m, theta)
      .groupByKey(row => (row.fr, row.lr, row.rts, row.rte))
      .flatMapGroups { (key, it) =>
        val (fr, lr, rts, rte) = key
        val rows = it.toVector
        split(SegRow(fr, lr, rows.head.pr, rts, rte), GroupWindows.toMatches(rows))
      }
  }

  /** Replicas of `k` tuples in `k`'s schema: facts, `lin`, `p`, `ts`, `te`. */
  private def toKSchema(segs: Dataset[SegRow], k: DataFrame): DataFrame = {
    val kf = factCols(k)
    segs.select(from_json(col("fr"), k.select(kf.map(col): _*).schema).as("_f"),
                col("lr").as("lin"), col("pr").as("p"), col("ts"), col("te"))
      .select(kf.map(c => col(s"_f.$c").as(c)) ++ Seq(col("lin"), col("p"), col("ts"), col("te")): _*)
  }

  /** Fig. 10b subtree: `Φ(k,m) ⟕_{θ ∧ T=T} Φ(m,k)` + distinct → WO ∪ WU
    * rows, in [[OutRow]] shape (left table = `k`).
    */
  def windowsUO(k: DataFrame, m: DataFrame, theta: (String, String) => Column): DataFrame = {
    val kf = factCols(k)
    val mf = factCols(m)
    val ak = align(k, m, theta)
    val am = align(m, k, (o, i) => theta(i, o))
    val matched = col("_r.lin").isNotNull
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
        to_json(struct(kf.map(c => col(s"_l.$c").as(c)): _*)).as("rfJson"),
        when(matched, to_json(struct(mf.map(c => col(s"_r.$c").as(c)): _*))).as("sfJson"),
        when(matched, linAnd(col("_l.lin"), col("_r.lin"))).otherwise(col("_l.lin")).as("lin"),
        when(matched, probAnd(col("_l.lin"), col("_l.p"), col("_r.lin"), col("_r.p")))
          .otherwise(col("_l.p")).as("p"),
        col("_l.ts").as("ts"), col("_l.te").as("te"))
      .distinct()
  }

  /** Fig. 10c subtree: normalization + containment join + grouping →
    * WN ∪ WU rows (left table = `k`). The WU rows are computed here a
    * second time (deduplicated away in the final union).
    */
  def windowsNU(k: DataFrame, m: DataFrame, theta: (String, String) => Column): DataFrame = {
    val kf = factCols(k)
    // unpack segments back to k's schema so θ can be applied again
    val segs = toKSchema(normalize(k, m, theta), k)
    // segments never cross a matching boundary, so overlap ⇒ containment
    val j = segs.as("_l").join(m.as("_r"), theta("_l", "_r") && overlapCond, "left_outer")
    val grouped = j
      .groupBy(kf.map(c => col(s"_l.$c")) ++ Seq(
        col("_l.lin"), col("_l.p"), col("_l.ts"), col("_l.te")): _*)
      .agg(sort_array(collect_list(
        when(col("_r.lin").isNotNull, struct(col("_r.lin").as("lin"), col("_r.p").as("p")))
      )).as("ms"))
    grouped.select(
      to_json(struct(kf.map(c => col(s"_l.$c").as(c)): _*)).as("rfJson"),
      lit(null: String).as("sfJson"),
      when(size(col("ms")) === 0, col("_l.lin"))
        .otherwise(linAndNotOr(col("_l.lin"), expr("transform(ms, x -> x.lin)"))).as("lin"),
      when(size(col("ms")) === 0, col("_l.p"))
        .otherwise(probAndNotOr(col("_l.lin"), col("_l.p"),
          expr("transform(ms, x -> x.lin)"), expr("transform(ms, x -> x.p)"))).as("p"),
      col("_l.ts").as("ts"), col("_l.te").as("te"))
  }

  private def flip(outRows: DataFrame): DataFrame =
    outRows.select(col("sfJson").as("rfJson"), col("rfJson").as("sfJson"),
                   col("lin"), col("p"), col("ts"), col("te"))

  // ------------------------------------------------------------- TP joins

  /** `r ▷Tp s` via TA: the N-subtree alone (WU ∪ WN). */
  def anti(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame =
    unpackOut(windowsNU(r, s, theta), r, s, anti = true)

  /** `r ⟕Tp s` via TA: duplicate-eliminating union of both subtrees. */
  def leftOuter(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame =
    unpackOut(windowsUO(r, s, theta).unionByName(windowsNU(r, s, theta)).distinct(),
              r, s, anti = false)

  /** `r ⟖Tp s` via TA: WO of (r;s) plus flipped WU ∪ WN of (s;r). */
  def rightOuter(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame = {
    val o = windowsUO(r, s, theta).filter(col("sfJson").isNotNull)
    val nu = flip(windowsNU(s, r, (o2, i) => theta(i, o2)))
    unpackOut(o.unionByName(nu).distinct(), r, s, anti = false)
  }

  /** `r ⟗Tp s` via TA: left outer plus flipped WU ∪ WN of (s;r). */
  def fullOuter(r: DataFrame, s: DataFrame, theta: (String, String) => Column): DataFrame = {
    val left = windowsUO(r, s, theta).unionByName(windowsNU(r, s, theta))
    val nu = flip(windowsNU(s, r, (o2, i) => theta(i, o2)))
    unpackOut(left.unionByName(nu).distinct(), r, s, anti = false)
  }

  /** Same unpacking as NJ so both implementations share an output schema. */
  private def unpackOut(outRows: DataFrame, r: DataFrame, s: DataFrame, anti: Boolean): DataFrame = {
    val spark = r.sparkSession
    import spark.implicits._
    NegationJoin.unpack(outRows.as[OutRow], r, s, anti)
  }
}
