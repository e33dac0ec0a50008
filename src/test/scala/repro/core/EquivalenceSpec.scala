package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.TestUtil._
import repro.ta.TemporalAlignment
import scala.jdk.CollectionConverters._

/** The bar every TP join is held to: NJ ≡ TA ≡ SnapshotRef ≡ DuckDB, for
  * every op (▷ ⟕ ⟖ ⟗) on one corpus of named inputs.
  *
  * Each entry states its θ once, as a [[EquivalenceSpec.Theta]]; the Spark
  * column, the SnapshotRef predicate and the DuckDB SQL all derive from it.
  * NJ's rows are compared with TA's and SnapshotRef's as multisets of one
  * canonical form (facts by output name, order-insensitive lineage, `p` to
  * 1e-9, interval), so a duplicated row fails as a missing one does; and
  * with DuckDB at time-point granularity ([[PointOracle]]).
  */
class EquivalenceSpec extends SparkSpec {
  import EquivalenceSpec._

  private def df(rel: Rel): DataFrame = {
    val schema = StructType(rel.facts.map(StructField(_, StringType)) ++ Seq(
      StructField("lin", StringType), StructField("p", DoubleType),
      StructField("ts", LongType), StructField("te", LongType)))
    spark.createDataFrame(
      rel.tuples.map(t => Row.fromSeq(rel.facts.map(t.fact) ++ Seq(t.lin, t.p, t.ts, t.te))).asJava, schema)
  }

  /** The canonical rows of an NJ or TA output. */
  private def rowsOf(out: DataFrame): Seq[String] = {
    val facts = NegationJoin.factCols(out)
    out.collect().toSeq.map(r => canon(facts.map(c => c -> r.getAs[Any](c)),
      r.getAs[String]("lin"), r.getAs[Double]("p"), r.getAs[Long]("ts"), r.getAs[Long]("te")))
  }

  /** Fails, naming `impl`, unless `other` holds NJ's rows as a multiset. */
  private def sameRows(impl: String, nj: Seq[String], other: Seq[String]): Unit = {
    val (njOnly, otherOnly) = (nj.diff(other), other.diff(nj))
    if (njOnly.nonEmpty || otherOnly.nonEmpty)
      fail(s"NJ ≢ $impl (${nj.size} vs ${other.size} rows)\n" +
        s"  only in NJ: ${njOnly.take(3).mkString("; ")}\n  only in $impl: ${otherOnly.take(3).mkString("; ")}")
  }

  for (e <- corpus; op <- ops) test(s"${e.name} [θ: ${e.theta}] ${op.name}") {
    val r = df(e.r)
    val s = if (e.s == e.r) r else df(e.s)
    val anti = op.op == TPJoinOp.Anti
    // each s fact's output name, as NJ's output select names it
    val sOut = if (anti) Nil else e.s.facts.map(c => c -> (if (e.r.facts.contains(c)) s"s_$c" else c))
    val nj = NegationJoin(r, s, e.theta.column, op.op)
    val njRows = rowsOf(nj)
    sameRows("TA", njRows, rowsOf(op.ta(r, s, e.theta.column)))
    sameRows("SnapshotRef", njRows, op.ref(e.r.tuples, e.s.tuples, e.theta.holds).map { o =>
      canon(e.r.facts.map(c => c -> o.leftFact.map(_(c)).orNull) ++
        sOut.map { case (c, out) => out -> o.rightFact.map(_(c)).orNull }, o.lin, o.p, o.ts, o.te)
    })
    val sql = op.op match {
      case TPJoinOp.Anti       => PointOracle.antiSql(e.r.facts, e.s.facts, e.theta.sql)
      case TPJoinOp.LeftOuter  => PointOracle.leftOuterSql(e.r.facts, sOut, e.theta.sql)
      case TPJoinOp.RightOuter => PointOracle.rightOuterSql(e.r.facts, sOut, e.theta.sql)
      case TPJoinOp.FullOuter  => PointOracle.fullOuterSql(e.r.facts, sOut, e.theta.sql)
    }
    try Oracle.assertEquivalent(PointOracle.expand(nj), sql, "r" -> r, "s" -> s)
    catch { case x: IllegalArgumentException => fail(s"NJ ≢ DuckDB, per time point: ${x.getMessage}") }
  }
}

object EquivalenceSpec {

  /** How θ compares one fact of its two arguments, in each implementation's terms. */
  sealed abstract class Cmp(val sql: String, val holds: Int => Boolean, val column: (Column, Column) => Column)
  case object Eq extends Cmp("=", _ == 0, _ === _)
  case object Ne extends Cmp("<>", _ != 0, _ =!= _)
  case object Lt extends Cmp("<", _ < 0, _ < _)

  /** θ(l, r) = `l.on cmp r.on`, and `l.g = r.g` as well when `key` names a
    * column `g`. Facts are ASCII strings, whose order Spark, DuckDB and the
    * JVM agree on.
    */
  final case class Theta(cmp: Cmp, on: String, key: Option[String] = None) {
    def column(l: String, r: String): Column = {
      val c = cmp.column(col(s"$l.$on"), col(s"$r.$on"))
      key.fold(c)(g => col(s"$l.$g") === col(s"$r.$g") && c)
    }
    def holds(l: Map[String, String], r: Map[String, String]): Boolean =
      key.forall(g => l(g) == r(g)) && cmp.holds(l(on).compareTo(r(on)))
    def sql(l: String, r: String): String =
      key.fold("")(g => s"$l.$g = $r.$g AND ") + s"$l.$on ${cmp.sql} $r.$on"
    override def toString: String = sql("l", "r")
  }

  /** A test relation: its fact columns, in order, and its tuples. */
  final case class Rel(facts: Seq[String], tuples: Seq[TPTuple])

  /** One corpus input. `s == r` makes it a self-join: one DataFrame on both sides. */
  final case class Entry(name: String, r: Rel, s: Rel, theta: Theta)

  /** One op and its TA and SnapshotRef counterparts. */
  final case class Op(name: String, op: TPJoinOp,
                      ta: (DataFrame, DataFrame, (String, String) => Column) => DataFrame,
                      ref: (Seq[TPTuple], Seq[TPTuple], SnapshotRef.Theta) => Seq[RefOut])

  private val ops: Seq[Op] = Seq(
    Op("▷", TPJoinOp.Anti, TemporalAlignment.anti, SnapshotRef.anti),
    Op("⟕", TPJoinOp.LeftOuter, TemporalAlignment.leftOuter, SnapshotRef.leftOuter),
    Op("⟖", TPJoinOp.RightOuter, TemporalAlignment.rightOuter, SnapshotRef.rightOuter),
    Op("⟗", TPJoinOp.FullOuter, TemporalAlignment.fullOuter, SnapshotRef.fullOuter))

  /** A row in the form all four implementations are compared in. */
  private def canon(facts: Seq[(String, Any)], lin: String, p: Double, ts: Long, te: Long): String =
    facts.map { case (c, v) => s"$c=${Option(v).getOrElse("∅")}" }.mkString(", ") +
      s" | ${Lineage.canonicalString(lin)} | ${math.rint(p * 1e9) / 1e9} | [$ts, $te)"

  private def kRel(ts: KTup*): Rel = Rel(Seq("k"), kRef(ts))

  /** Random relations of `seeds`, one per value of the fact `g`: under a θ
    * with `g` as its key, each seed's tuples meet only their own seed's, so
    * one query checks every seed as if it ran alone.
    */
  private def seeds(seeds: Range, offset: Int, facts: Seq[String], horizon: Int, maxPerFact: Int,
                    idPrefix: String): Rel =
    Rel(Seq("g", "k"), seeds.flatMap { seed =>
      randomRelation(seed + offset, facts, horizon, maxPerFact, s"$idPrefix$seed.")
        .map(t => TPTuple(Map("g" -> seed.toString, "k" -> t.k), t.lin, t.p, t.ts, t.te))
    })

  private val abc = Seq("A", "B", "C")
  private val (rId, sId) = hostileIdPrefixes
  private val a = Rel(Seq("name", "loc"), aRef)
  private val onK = Theta(Eq, "k")
  private def keyed(cmp: Cmp) = Theta(cmp, "k", Some("g"))
  private val random = seeds(1 to 8, 0, abc, 30, 3, "x")

  private val corpus: Seq[Entry] = Seq(
    Entry("paper example (a, b)", a, Rel(Seq("hotel", "loc"), bRef), Theta(Eq, "loc")),
    Entry("paper self-join (a, a)", a, a, Theta(Eq, "loc")),
    Entry("random, 12 seeds", seeds(1 to 12, 0, abc, 30, 3, "x"), seeds(1 to 12, 1000, abc, 30, 3, "y"),
      keyed(Eq)),
    Entry("random, reserved-character facts and ids, 12 seeds",
      seeds(1 to 12, 0, hostileFacts, 30, 3, rId), seeds(1 to 12, 1000, hostileFacts, 30, 3, sId), keyed(Eq)),
    // meteo's shape: equal key, different fact; several facts of s match one r tuple
    Entry("random, 8 seeds", seeds(1 to 8, 300, abc, 24, 2, "x"), seeds(1 to 8, 400, abc, 24, 2, "y"),
      keyed(Ne)),
    // asymmetric: a θ whose arguments are swapped anywhere gives other rows
    Entry("random, 8 seeds", seeds(1 to 8, 500, abc, 24, 2, "x"), seeds(1 to 8, 600, abc, 24, 2, "y"),
      keyed(Lt)),
    // no equality key: the CLJ cannot hash-partition on θ
    Entry("random, no equality key", kRel(randomRelation(7, Seq("A", "B"), 20, 2, "x"): _*),
      kRel(randomRelation(107, Seq("A", "B"), 20, 2, "y"): _*), Theta(Ne, "k")),
    Entry("random self-join, 8 seeds", random, random, keyed(Eq)),
    Entry("empty s", kRel(randomRelation(99, Seq("A", "B"), 20, 3, "x"): _*), kRel(), onK),
    Entry("empty r", kRel(), kRel(randomRelation(98, Seq("A", "B"), 20, 3, "y"): _*), onK),
    Entry("both empty", kRel(), kRel(), onK),
    Entry("one row each, reserved characters", kRel(KTup("a&b", s"${rId}1", 0.5, 2, 8)),
      kRel(KTup("a&b", s"${sId}1", 0.4, 5, 12)), onK),
    Entry("r inside s", kRel(KTup("A", "x1", 0.5, 3, 6)), kRel(KTup("A", "y1", 0.4, 0, 10)), onK),
    Entry("no match", kRel(KTup("A", "x1", 0.5, 3, 6)), kRel(KTup("B", "y1", 0.4, 0, 10)), onK))
}
