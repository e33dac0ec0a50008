package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.execution.joins.BaseJoinExec
import repro.core.{Lineage, TPTuple}
import scala.util.Random

/** Shared fixtures: the paper's running example (Fig. 1a), random
  * duplicate-free TP relation generators, and row canonicalization for
  * cross-implementation comparisons.
  */
object TestUtil {

  /** Relation `a` (wantsToVisit) of Fig. 1a: (name, loc, lin, p, ts, te). */
  final case class ATup(name: String, loc: String, lin: String, p: Double, ts: Long, te: Long)
  /** Relation `b` (hotelAvailability) of Fig. 1a: (hotel, loc, lin, p, ts, te). */
  final case class BTup(hotel: String, loc: String, lin: String, p: Double, ts: Long, te: Long)

  val aTuples = Seq(
    ATup("Ann", "ZAK", "a1", 0.7, 2, 8),
    ATup("Jim", "WEN", "a2", 0.8, 7, 10))

  val bTuples = Seq(
    BTup("hotel3", "SOR", "b1", 0.9, 1, 4),
    BTup("hotel2", "ZAK", "b2", 0.6, 5, 8),
    BTup("hotel1", "ZAK", "b3", 0.7, 4, 6))

  def aDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    aTuples.toDF()
  }

  def bDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    bTuples.toDF()
  }

  def aRef: Seq[TPTuple] =
    aTuples.map(t => TPTuple(Map("name" -> t.name, "loc" -> t.loc), t.lin, t.p, t.ts, t.te))
  def bRef: Seq[TPTuple] =
    bTuples.map(t => TPTuple(Map("hotel" -> t.hotel, "loc" -> t.loc), t.lin, t.p, t.ts, t.te))

  /** Single-fact-column TP tuple used by randomized tests: (k, lin, p, ts, te). */
  final case class KTup(k: String, lin: String, p: Double, ts: Long, te: Long)

  /** Random duplicate-free TP relation over facts drawn from `facts`:
    * per fact, a random set of pairwise-disjoint intervals within
    * [0, horizon). Deterministic in (seed, idPrefix).
    */
  def randomRelation(seed: Long, facts: Seq[String], horizon: Int,
                     maxTuplesPerFact: Int, idPrefix: String): Seq[KTup] = {
    val rnd = new Random(seed)
    var id = 0
    facts.flatMap { f =>
      val n = rnd.nextInt(maxTuplesPerFact + 1)
      // draw 2n distinct cut points; consecutive pairs give disjoint intervals
      val cuts = rnd.shuffle((0 until horizon).toList).take(2 * n).sorted
      cuts.grouped(2).toSeq.collect {
        case List(s, e) if s < e =>
          id += 1
          KTup(f, s"$idPrefix$id", (rnd.nextInt(89) + 10) / 100.0, s, e)
      }
    }
  }

  /** Facts made of the lineage grammar's operators, and id prefixes that
    * use every non-alphanumeric atom character (ids like `r-1.a:b#2`).
    */
  val hostileFacts: Seq[String] = Seq("a&b", "c|!d", "(e)")
  val hostileIdPrefixes: (String, String) = ("r-1.a:b#", "s_2.c:d#")

  def kDf(spark: SparkSession, ts: Seq[KTup]): DataFrame = {
    import spark.implicits._
    ts.toDF()
  }

  def kRef(ts: Seq[KTup]): Seq[TPTuple] =
    ts.map(t => TPTuple(Map("k" -> t.k), t.lin, t.p, t.ts, t.te))

  /** Canonicalize an output row for set comparison: lineage made
    * order-insensitive, probability rounded, nulls normalized.
    */
  def canonRow(r: Row): Seq[String] =
    r.toSeq.zipWithIndex.map { case (v, i) =>
      val name = r.schema.fields(i).name
      v match {
        case null            => "∅"
        case d: Double       => f"$d%.9f"
        case s: String if name == "lin" => Lineage.canonicalString(s)
        case x               => x.toString
      }
    }

  def canonSet(df: DataFrame): Set[Seq[String]] = {
    val cols = df.columns.sorted
    df.select(cols.head, cols.tail: _*).collect().map(canonRow).toSet
  }

  /** `df`'s physical plan, planned with adaptive execution off, so that
    * the plan holds every operator up front: an adaptive plan's root hides
    * its operators from a tree walk.
    */
  def physicalPlan(spark: SparkSession)(df: => DataFrame): SparkPlan = {
    val aqe = "spark.sql.adaptive.enabled"
    val was = spark.conf.get(aqe)
    spark.conf.set(aqe, false)
    try df.queryExecution.executedPlan
    finally spark.conf.set(aqe, was)
  }

  /** The number of joins and of shuffle exchanges in `df`'s physical plan. */
  def planShape(spark: SparkSession)(df: => DataFrame): (Int, Int) = {
    val plan = physicalPlan(spark)(df)
    (plan.collect { case j: BaseJoinExec => j }.size,
     plan.collect { case e: ShuffleExchangeLike => e }.size)
  }
}
