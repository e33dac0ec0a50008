package repro.core

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** The TP join ops with negation treated by the paper (Tables I & III). */
sealed trait TPJoinOp
object TPJoinOp {
  /** `r ▷Tp s` — anti join: WU(r;s) ∪ WN(r;s). */
  case object Anti extends TPJoinOp
  /** `r ⟕Tp s` — left outer join: WU(r;s) ∪ WN(r;s) ∪ WO. */
  case object LeftOuter extends TPJoinOp
  /** `r ⟖Tp s` — right outer join: WO ∪ WU(s;r) ∪ WN(s;r). */
  case object RightOuter extends TPJoinOp
  /** `r ⟗Tp s` — full outer join: all five window sets. */
  case object FullOuter extends TPJoinOp
}

/** A finalized output tuple before fact unpacking.
  *
  * `rfJson`/`sfJson` are the fact structs of the user-facing left/right
  * input, packed as JSON (None where the paper writes `-`/null facts).
  */
final case class OutRow(
    rfJson: Option[String], sfJson: Option[String],
    lin: String, p: Double, ts: Long, te: Long)

/** NJ — the paper's NegationJoins operator (Alg. 3) on Spark DataFrames.
  *
  * Input TP relations are DataFrames with arbitrary fact columns plus the
  * four TP meta columns `lin` (lineage string, for base relations the unique
  * tuple identifier), `p` (probability), `ts`, `te` (half-open interval).
  *
  * Plan shape, mirroring paper Fig. 10a. One pass, with an outer and an
  * inner relation, is:
  *
  *  1. `winit` — ONE conventional Catalyst left outer join
  *     `outer ⟕_{θ ∧ θo} inner` with `θo : outer.ts < inner.te ∧
  *     inner.ts < outer.te` (the CLJ node; Catalyst picks the physical join,
  *     as PostgreSQL's optimizer does in the paper).
  *  2. `groupByKey` on the generating outer tuple + `flatMapGroups` running
  *     [[GroupWindows.windows]] partition-locally: one boundary sweep per
  *     group yields the W_uo and W_n nodes' windows together. It emits only
  *     the window kinds the op outputs ([[Mode]]). No tuple replication, no
  *     further interval joins, no duplicate-eliminating union.
  *  3. Per-window-set lineage concatenation turns windows into output
  *     tuples (`λr`, `λr∧λs`, `λr∧¬λs`).
  *
  * ▷ and ⟕ are one (r;s) pass. ⟖ is one sides-swapped (s;r) pass: a
  * mirrored ⟕. ⟗ is the ⟕ pass plus a second, sides-swapped ▷ pass, as
  * Alg. 3 re-invokes NegationJoins; it alone plans two joins.
  *
  * θ is supplied as `(rAlias, sAlias) => Column`, where the two arguments
  * are the SQL aliases under which the original left (`r`) and right (`s`)
  * relations' columns are reachable — e.g.
  * `(a, b) => col(s"$a.loc") === col(s"$b.loc")`. The operator itself decides
  * which side is the outer of each pass.
  *
  * Output probabilities are exact under the model's base-tuple independence:
  * `P(λr∧λs)=pr·ps` and `P(λr∧¬∨λsᵢ)=pr·Π(1−psᵢ)`, or `pa` and 0 for a base
  * tuple `a` on both sides (cross-checked in tests against [[Lineage.prob]]).
  * Derived input lineage whose operands share base tuples is rejected.
  */
object NegationJoin {

  /** The reserved TP meta columns; everything else is a fact attribute. */
  val MetaCols: Seq[String] = Seq("lin", "p", "ts", "te")

  def factCols(df: DataFrame): Seq[String] =
    df.columns.toSeq.filterNot(MetaCols.contains)

  /** Equality θ on identically-named fact columns of both inputs. */
  def thetaEq(cols: String*): (String, String) => Column =
    (l, r) => cols.map(c => col(s"$l.$c") === col(s"$r.$c")).reduce(_ && _)

  /** Step 1: the conventional left outer join `winit` (paper §VI-A, Fig. 5).
    *
    * `swap=true` runs the pass with `s` as the outer relation (for the
    * second NegationJoins invocation of Alg. 3); θ argument order is fixed
    * to (original left alias, original right alias) either way.
    */
  def winitRows(r: DataFrame, s: DataFrame, theta: (String, String) => Column,
                swap: Boolean = false): Dataset[XRow] = {
    val (outer, inner) = if (swap) (s, r) else (r, s)
    val spark = outer.sparkSession
    import spark.implicits._
    val of = factCols(outer)
    val inf = factCols(inner)
    val lhs = outer.as("_l")
    val rhs = inner.as("_r")
    val thetaCol = if (swap) theta("_r", "_l") else theta("_l", "_r")
    val overlap = col("_l.ts") < col("_r.te") && col("_r.ts") < col("_l.te")
    // θo needs a non-null `_r.ts`; a match with a null lin or p is the sweep's to reject
    val matched = col("_r.ts").isNotNull
    lhs.join(rhs, thetaCol && overlap, "left_outer").select(
      to_json(struct(of.map(c => col(s"_l.$c").as(c)): _*)).as("fr"),
      col("_l.lin").as("lr"),
      col("_l.p").as("pr"),
      col("_l.ts").as("rts"),
      col("_l.te").as("rte"),
      when(matched, to_json(struct(inf.map(c => col(s"_r.$c").as(c)): _*))).as("fs"),
      col("_r.lin").as("ls"),
      col("_r.p").as("ps"),
      when(matched, greatest(col("_l.ts"), col("_r.ts"))).cast(LongType).as("os"),
      when(matched, least(col("_l.te"), col("_r.te"))).cast(LongType).as("oe"),
    ).as[XRow]
  }

  /** The window sets one sweep pass builds, as the kinds it emits. */
  sealed abstract class Mode(val u: Boolean, val o: Boolean, val n: Boolean)
  object Mode {
    case object UO extends Mode(u = true, o = true, n = false)
    case object N extends Mode(u = false, o = false, n = true)
    case object UN extends Mode(u = true, o = false, n = true)
    case object All extends Mode(u = true, o = true, n = true)
  }

  /** Step 2: group winit by generating outer tuple and sweep (LAWA-U/N). */
  def windowsFrom(x: Dataset[XRow], mode: Mode): Dataset[Win] = {
    val spark = x.sparkSession
    import spark.implicits._
    x.groupByKey(row => (row.fr, row.lr, row.rts, row.rte))
      .flatMapGroups { (key, it) =>
        val (fr, lr, rts, rte) = key
        val rows = it.toVector
        GroupWindows.windows(fr, lr, rows.head.pr, rts, rte, GroupWindows.toMatches(rows), mode).iterator
      }
  }

  // ------------------------------------------------------------- finalize

  /** Step 3: lineage concatenation per window set (paper §V, Alg. 3 l.10-17).
    *
    * `windowSideIsLeft` states whether the window pass used the user-facing
    * left table as its outer relation. It decides on which side of the
    * output the window's facts land, and orders the ∧ operands of an O
    * window by output side: `λr∧λs` from either pass. U and N windows keep
    * the outer tuple's lineage first (`λs∧¬λr` in a swapped pass).
    *
    * The lineage strings come from [[Lineage.renderAnd]] and
    * [[Lineage.renderAndNotOr]]: joined directly for base-tuple ids, parsed
    * and rendered only for derived lineage. Their probabilities come from
    * [[Lineage.probAnd]] and [[Lineage.probAndNotOr]].
    */
  def windowToOut(w: Win, windowSideIsLeft: Boolean): OutRow = {
    val (lin, p) = w.kind match {
      case "U" => (w.lr, w.pr)
      case "O" =>
        val l =
          if (windowSideIsLeft) Lineage.renderAnd(w.lr, w.lsLins.head)
          else Lineage.renderAnd(w.lsLins.head, w.lr)
        (l, Lineage.probAnd(w.lr, w.pr, w.lsLins.head, w.lsProbs.head))
      case "N" =>
        (Lineage.renderAndNotOr(w.lr, w.lsLins), Lineage.probAndNotOr(w.lr, w.pr, w.lsLins, w.lsProbs))
    }
    if (windowSideIsLeft) OutRow(Some(w.fr), w.fs, lin, p, w.ts, w.te)
    else OutRow(w.fs, Some(w.fr), lin, p, w.ts, w.te)
  }

  /** Unpack OutRows into the user-facing schema.
    *
    * Left fact columns keep their names; right fact columns are prefixed
    * with `s_` when they would clash with a left fact column or a meta
    * column. Anti joins emit no right fact columns (paper: "Fr is the only
    * fact included"). An output name that would still appear twice (`s`'s
    * `k` renamed to `s_k` next to a fact column already named `s_k`), under
    * the session's case sensitivity, is rejected here, before the query
    * runs.
    */
  def unpack(out: Dataset[OutRow], r: DataFrame, s: DataFrame, anti: Boolean): DataFrame = {
    val rf = factCols(r)
    val sf = factCols(s)
    val rSchema = r.select(rf.map(col): _*).schema
    val sSchema = s.select(sf.map(col): _*).schema
    def sName(c: String) = if (rf.contains(c) || MetaCols.contains(c)) s"s_$c" else c
    val caseSensitive = out.sparkSession.conf.get("spark.sql.caseSensitive").toBoolean
    def key(name: String) = if (caseSensitive) name else name.toLowerCase(java.util.Locale.ROOT)
    val sources = rf.map(c => c -> s"r.$c") ++
      (if (anti) Nil else sf.map(c => sName(c) -> s"s.$c")) ++
      MetaCols.map(c => c -> s"meta column $c")
    sources.groupBy(nc => key(nc._1)).values.find(_.size > 1).foreach { clash =>
      throw new IllegalArgumentException(
        s"output column '${clash.head._1}' would come from ${clash.map(_._2).mkString(" and ")}; " +
          "rename a fact column of r or s")
    }
    val withStructs = out.toDF()
      .withColumn("_rf", from_json(col("rfJson"), rSchema))
      .withColumn("_sf", from_json(col("sfJson"), sSchema))
    val cols =
      rf.map(c => col(s"_rf.$c").as(c)) ++
        (if (anti) Nil else sf.map(c => col(s"_sf.$c").as(sName(c)))) ++
        Seq(col("lin"), col("p"), col("ts"), col("te"))
    withStructs.select(cols: _*)
  }

  // ------------------------------------------------------------- joins

  /** NegationJoins(r, s, θ, op) — paper Alg. 3.
    *
    * Every op is at most two passes of one kind: a CLJ, a sweep building
    * only the window sets the op outputs, and finalization. WO(r;s) and
    * WO(s;r) are the same pairwise intersections, so `r ⟖ s` is `s ⟕ r`
    * with its output sides swapped.
    */
  def apply(r: DataFrame, s: DataFrame, theta: (String, String) => Column,
            op: TPJoinOp): DataFrame = {
    val spark = r.sparkSession
    import spark.implicits._
    def pass(swap: Boolean, mode: Mode): Dataset[OutRow] =
      windowsFrom(winitRows(r, s, theta, swap), mode)
        .map(w => windowToOut(w, windowSideIsLeft = !swap))
    val out = op match {
      case TPJoinOp.Anti       => pass(swap = false, Mode.UN)
      case TPJoinOp.LeftOuter  => pass(swap = false, Mode.All)
      case TPJoinOp.RightOuter => pass(swap = true, Mode.All)
      // Alg. 3 line 18: r ⟕ s plus NegationJoins(s, r, θ, ▷).
      case TPJoinOp.FullOuter  => pass(swap = false, Mode.All).union(pass(swap = true, Mode.UN))
    }
    unpack(out, r, s, anti = op == TPJoinOp.Anti)
  }
}
