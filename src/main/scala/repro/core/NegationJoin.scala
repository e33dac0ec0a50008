package repro.core

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.api.java.UDF2
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

/** A finalized window with the facts of the user-facing left/right input
  * packed as JSON (None where the paper writes `-`/null facts): the row
  * format of NJ's perfbench views only; neither NJ nor TA runs it. JSON
  * keeps a timestamp fact to milliseconds only, so this view cuts its
  * sub-millisecond digits.
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
  * inner relation, is one DataFrame pipeline:
  *
  *  1. [[clj]] — ONE conventional Catalyst left outer join
  *     `outer ⟕_{θ ∧ θo} inner` with `θo : outer.ts < inner.te ∧
  *     inner.ts < outer.te` (the CLJ node; Catalyst picks the physical join,
  *     as PostgreSQL's optimizer does in the paper).
  *  2. [[windows]] — `groupBy` every outer column and `collect_list` the
  *     matches; one kernel UDF per group runs [[GroupWindows.windows]] (one
  *     boundary sweep yields the W_uo and W_n nodes' windows together, of
  *     the kinds the op outputs, [[Mode]]) and finalizes each window's
  *     lineage (`λr`, `λr∧λs`, `λr∧¬λs`) and probability; `explode` gives one
  *     row per window. The grouping keys include θ's equality keys, so the
  *     CLJ's hash partitioning already clusters each group: the sweep adds
  *     no exchange. No tuple replication, no further interval joins, no
  *     duplicate-eliminating union.
  *  3. One `select` names the output columns.
  *
  * Facts stay typed columns throughout: the inner tuple's facts ride in the
  * collected structs and are read back by the O window's match position.
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

  /** The columns a pass adds next to the outer relation's own; an outer fact
    * column may not take one of these names.
    */
  val InternalCols: Seq[String] = Seq("_m", "_ms", "_w", "_f", "_kind")

  def factCols(df: DataFrame): Seq[String] =
    df.columns.toSeq.filterNot(MetaCols.contains)

  /** Equality θ on identically-named fact columns of both inputs. */
  def thetaEq(cols: String*): (String, String) => Column =
    (l, r) => cols.map(c => col(s"$l.$c") === col(s"$r.$c")).reduce(_ && _)

  /** The window sets one sweep pass builds, as the kinds it emits. */
  sealed abstract class Mode(val u: Boolean, val o: Boolean, val n: Boolean)
  object Mode {
    case object UO extends Mode(u = true, o = true, n = false)
    case object N extends Mode(u = false, o = false, n = true)
    case object UN extends Mode(u = true, o = false, n = true)
    case object All extends Mode(u = true, o = true, n = true)
  }

  /** `name` as the session compares column names. */
  private def nameKey(df: DataFrame)(name: String): String =
    if (df.sparkSession.conf.get("spark.sql.caseSensitive").toBoolean) name
    else name.toLowerCase(java.util.Locale.ROOT)

  /** Step 1: the conventional left outer join `winit` (paper §VI-A, Fig. 5).
    *
    * Returns the outer tuple's columns under their own names plus one
    * struct `_m = (ls, ps, os, oe, f)`: the inner tuple's lineage and
    * probability, the overlap `[os, oe)` and its facts `f`. `_m` is null for
    * an outer tuple that matched nothing. A tuple of either input with a
    * null `ts` or `te` is rejected, naming it: θo could never hold for it, so
    * it would otherwise drop out unseen. `swap=true` runs the pass with `s`
    * as the outer relation (for the second NegationJoins invocation of
    * Alg. 3); θ argument order is fixed to (original left alias, original
    * right alias) either way.
    */
  def clj(r: DataFrame, s: DataFrame, theta: (String, String) => Column,
          swap: Boolean = false): DataFrame = {
    val (outer, inner) = if (swap) (s, r) else (r, s)
    val key = nameKey(outer) _
    factCols(outer).find(c => InternalCols.exists(key(_) == key(c))).foreach { c =>
      throw new IllegalArgumentException(
        s"fact column '$c' of ${if (swap) "s" else "r"} is named like an internal column of NJ " +
          s"(${InternalCols.mkString(", ")}); rename it")
    }
    val thetaCol = if (swap) theta("_r", "_l") else theta("_l", "_r")
    val overlap = col("_l.ts") < col("_r.te") && col("_r.ts") < col("_l.te")
    // θo needs a non-null `_r.ts`; a match with a null lin or p is the kernel's to reject
    val m = struct(
      col("_r.lin").as("ls"), col("_r.p").as("ps"),
      greatest(col("_l.ts"), col("_r.ts")).cast(LongType).as("os"),
      least(col("_l.te"), col("_r.te")).cast(LongType).as("oe"),
      struct(factCols(inner).map(c => col(s"_r.$c").as(c)): _*).as("f"))
    checked(outer).as("_l").join(checked(inner).as("_r"), thetaCol && overlap, "left_outer")
      .select(outer.columns.toSeq.map(c => col(s"_l.$c").as(c)) :+
        when(col("_r.ts").isNotNull, m).as("_m"): _*)
  }

  /** Fails for a tuple with a null `ts` or `te`, naming it. Not nullable:
    * `coalesce` calls it only on a null, so its result is never read. A Java
    * UDF, so that planning resolves no input encoders for it: a typed Scala
    * UDF here made each NJ query plan measurably slower on small inputs.
    */
  private val nullInterval = udf(new UDF2[String, String, java.lang.Long] {
    def call(lin: String, c: String): java.lang.Long =
      throw new IllegalArgumentException(s"tuple $lin has a null $c")
  }, LongType).asNonNullable()

  /** `df` with a null `ts` or `te` rejected. The checked columns are not
    * nullable, so Catalyst infers no `isnotnull` filter from θo that could
    * drop a tuple before the check sees it.
    */
  private def checked(df: DataFrame): DataFrame =
    df.select(df.columns.toSeq.map {
      case c @ ("ts" | "te") => coalesce(col(c), nullInterval(col("lin"), lit(c))).as(c)
      case c => col(c)
    }: _*)

  /** One kernel output row: the O window's match position (-1 for U and N
    * windows), the window's kind, finalized lineage and probability, and
    * interval. Public: the UDF result serializer Spark generates cannot call
    * a private class's accessors and falls back to interpreted mode.
    */
  final case class KernelRow(i: Int, kind: String, lin: String, p: Double, ts: Long, te: Long)

  /** Step 2: sweep each outer tuple's matches (LAWA-U/N) and finalize.
    *
    * Returns one row per window: the outer tuple's facts under their own
    * names, the O window's match facts `_f` (null for U and N windows), the
    * window's `_kind` and its `lin`, `p`, `ts` and `te`. A null `p` on an
    * outer tuple is rejected, naming the tuple.
    */
  def windows(clj: DataFrame, mode: Mode, windowSideIsLeft: Boolean): DataFrame = {
    val outerCols = clj.columns.toSeq.filterNot(_ == "_m")
    val facts = outerCols.filterNot(MetaCols.contains).map(col)
    // Boxed p: a Scala UDF skips a null primitive argument, and explode(null)
    // would then drop the tuple silently. `clj` has rejected a null ts or te.
    val kernel = udf { (lr: String, pr: java.lang.Double, rts: Long, rte: Long,
                        ls: Seq[String], ps: Seq[java.lang.Double], os: Seq[Long], oe: Seq[Long]) =>
      require(pr != null, s"tuple $lr has a null p")
      val ms = ls.indices.map { k =>
        require(ls(k) != null && ps(k) != null,
          s"an s tuple matching r tuple $lr over [${os(k)}, ${oe(k)}) has a null lin or p")
        Match(ls(k), ps(k), os(k), oe(k))
      }
      GroupWindows.windows(lr, pr, rts, rte, ms, mode).map { w =>
        val (lin, p) = finalizeWindow(w.kind, lr, pr, w.matches.map(ms(_).ls), w.matches.map(ms(_).ps),
          windowSideIsLeft)
        KernelRow(if (w.kind == "O") w.matches.head else -1, w.kind, lin, p, w.ts, w.te)
      }
    }
    val w = kernel(col("lin"), col("p"), col("ts"), col("te"),
      col("_ms.ls"), col("_ms.ps"), col("_ms.os"), col("_ms.oe"))
    clj.groupBy(outerCols.map(col): _*).agg(collect_list(col("_m")).as("_ms"))
      .select(facts ++ Seq(col("_ms"), explode(w).as("_w")): _*)
      .select(facts ++ Seq(
        when(col("_w.i") >= 0, col("_ms")(col("_w.i")).getField("f")).as("_f"), col("_w.kind").as("_kind"),
        col("_w.lin").as("lin"), col("_w.p").as("p"), col("_w.ts").as("ts"), col("_w.te").as("te")): _*)
  }

  /** Step 3's lineage concatenation per window set (paper §V, Alg. 3
    * l.10-17): a window's output lineage and probability.
    *
    * `windowSideIsLeft` states whether the window pass used the user-facing
    * left table as its outer relation. It orders the ∧ operands of an O
    * window by output side: `λr∧λs` from either pass. U and N windows keep
    * the outer tuple's lineage first (`λs∧¬λr` in a swapped pass).
    *
    * The lineage strings come from [[Lineage.renderAnd]] and
    * [[Lineage.renderAndNotOr]]: joined directly for base-tuple ids, parsed
    * and rendered only for derived lineage. Their probabilities come from
    * [[Lineage.probAnd]] and [[Lineage.probAndNotOr]].
    */
  def finalizeWindow(kind: String, lr: String, pr: Double, ls: Seq[String], ps: Seq[Double],
                     windowSideIsLeft: Boolean): (String, Double) = kind match {
    case "U" => (lr, pr)
    case "O" =>
      val l = if (windowSideIsLeft) Lineage.renderAnd(lr, ls.head) else Lineage.renderAnd(ls.head, lr)
      (l, Lineage.probAnd(lr, pr, ls.head, ps.head))
    case "N" => (Lineage.renderAndNotOr(lr, ls), Lineage.probAndNotOr(lr, pr, ls, ps))
  }

  /** Step 3: the user-facing columns of a join's windows.
    *
    * Left fact columns keep their names; right fact columns are prefixed
    * with `s_` when they would clash with a left fact column or a meta
    * column. Anti joins emit no right fact columns (paper: "Fr is the only
    * fact included"). `left(c)`/`right(c)` read fact `c` of `r`/`s` from
    * `df`. An output name that would still appear twice (`s`'s `k` renamed
    * to `s_k` next to a fact column already named `s_k`), under the
    * session's case sensitivity, is rejected here, before the query runs.
    */
  def output(df: DataFrame, r: DataFrame, s: DataFrame, anti: Boolean)(
      left: String => Column, right: String => Column): DataFrame = {
    val rf = factCols(r)
    val sf = if (anti) Nil else factCols(s)
    def sName(c: String) = if (rf.contains(c) || MetaCols.contains(c)) s"s_$c" else c
    val sources = rf.map(c => c -> s"r.$c") ++ sf.map(c => sName(c) -> s"s.$c") ++
      MetaCols.map(c => c -> s"meta column $c")
    sources.groupBy(nc => nameKey(r)(nc._1)).values.find(_.size > 1).foreach { clash =>
      throw new IllegalArgumentException(
        s"output column '${clash.head._1}' would come from ${clash.map(_._2).mkString(" and ")}; " +
          "rename a fact column of r or s")
    }
    df.select(rf.map(c => left(c).as(c)) ++ sf.map(c => right(c).as(sName(c))) ++ MetaCols.map(col): _*)
  }

  // ------------------------------------------------------------- joins

  /** NegationJoins(r, s, θ, op) — paper Alg. 3.
    *
    * Every op is at most two passes of one kind: a CLJ, a sweep building
    * and finalizing only the window sets the op outputs, and the output
    * select. WO(r;s) and WO(s;r) are the same pairwise intersections, so
    * `r ⟖ s` is `s ⟕ r` with its output sides swapped.
    */
  def apply(r: DataFrame, s: DataFrame, theta: (String, String) => Column,
            op: TPJoinOp): DataFrame = {
    val anti = op == TPJoinOp.Anti
    def pass(swap: Boolean, mode: Mode): DataFrame = {
      val w = windows(clj(r, s, theta, swap), mode, windowSideIsLeft = !swap)
      val (outerFact, innerFact) = (col _, (c: String) => col(s"_f.$c"))
      if (swap) output(w, r, s, anti)(innerFact, outerFact)
      else output(w, r, s, anti)(outerFact, innerFact)
    }
    op match {
      case TPJoinOp.Anti       => pass(swap = false, Mode.UN)
      case TPJoinOp.LeftOuter  => pass(swap = false, Mode.All)
      case TPJoinOp.RightOuter => pass(swap = true, Mode.All)
      // Alg. 3 line 18: r ⟕ s plus NegationJoins(s, r, θ, ▷).
      case TPJoinOp.FullOuter  => pass(swap = false, Mode.All).union(pass(swap = true, Mode.UN))
    }
  }

  // ------------------------------------------- layer views for perfbench

  // perfbench compiles against this typed, JSON-packed layer API and is
  // frozen; nothing `apply`, TA or the figure harness runs calls these views.

  /** [[clj]] with the facts packed as JSON, as typed [[XRow]]s. */
  def winitRows(r: DataFrame, s: DataFrame, theta: (String, String) => Column,
                swap: Boolean = false): Dataset[XRow] = {
    val spark = r.sparkSession
    import spark.implicits._
    clj(r, s, theta, swap).select(
      to_json(struct(factCols(if (swap) s else r).map(col): _*)).as("fr"),
      col("lin").as("lr"), col("p").as("pr"), col("ts").as("rts"), col("te").as("rte"),
      to_json(col("_m.f")).as("fs"), col("_m.ls").as("ls"), col("_m.ps").as("ps"),
      col("_m.os").as("os"), col("_m.oe").as("oe")).as[XRow]
  }

  /** The windows of each outer tuple's [[XRow]]s, typed. */
  def windowsFrom(x: Dataset[XRow], mode: Mode): Dataset[Win] = {
    val spark = x.sparkSession
    import spark.implicits._
    x.groupByKey(row => (row.fr, row.lr, row.rts, row.rte)).flatMapGroups { (_, it) =>
      val rows = it.toVector
      val h = rows.head
      GroupWindows.wins(h.fr, h.lr, h.pr, h.rts, h.rte, GroupWindows.toMatches(rows), mode)
    }
  }

  /** A [[Win]] finalized by [[finalizeWindow]], facts on their output side. */
  def windowToOut(w: Win, windowSideIsLeft: Boolean): OutRow = {
    val (lin, p) = finalizeWindow(w.kind, w.lr, w.pr, w.lsLins, w.lsProbs, windowSideIsLeft)
    if (windowSideIsLeft) OutRow(Some(w.fr), w.fs, lin, p, w.ts, w.te)
    else OutRow(w.fs, Some(w.fr), lin, p, w.ts, w.te)
  }

  /** [[OutRow]]s in the user-facing schema: `from_json`, then [[output]].
    * A perfbench view only; its JSON round trip keeps timestamp facts to
    * milliseconds.
    */
  def unpack(out: Dataset[OutRow], r: DataFrame, s: DataFrame, anti: Boolean): DataFrame = {
    def schema(df: DataFrame) = df.select(factCols(df).map(col): _*).schema
    val structs = out.toDF()
      .withColumn("_rf", from_json(col("rfJson"), schema(r)))
      .withColumn("_sf", from_json(col("sfJson"), schema(s)))
    output(structs, r, s, anti)(c => col(s"_rf.$c"), c => col(s"_sf.$c"))
  }
}
