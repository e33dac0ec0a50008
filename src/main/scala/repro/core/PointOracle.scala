package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DuckDB oracle support: recompute a TP join *by definition* inside DuckDB
  * and compare against the NJ/TA output expanded to time points.
  *
  * TP snapshot reducibility makes the per-time-point result SQL-expressible:
  * expand every `r` tuple to its time points, left-join the `s` tuples valid
  * at each point under θ, and build the canonical lineage string and the
  * independence-based probability per point. The Spark side expands the
  * interval output with `explode(sequence(ts, te-1))`. Probabilities are
  * exact for base-tuple ids, also when both inputs hold the same tuple
  * (self-joins): `a∧a` is `a` with `pa`, and `a∧¬(…a…)` is unsatisfiable,
  * its row kept with `p = 0`. Both sides are fed to
  * `repro.Oracle.assertEquivalent`. Comparing points also checks the window
  * boundaries, since merging windows of different lineage changes the
  * expanded rows; splitting a window does not, so maximality is asserted
  * separately via ChangePreserve.
  *
  * θ is supplied as SQL text over two aliases, e.g.
  * `(r, s) => s"$r.file = $s.file"`.
  */
object PointOracle {

  type ThetaSql = (String, String) => String

  private def castedCte(table: String, facts: Seq[String]): String =
    s"SELECT ${(facts :+ "lin").mkString(", ")}, CAST(p AS DOUBLE) AS p, " +
      s"CAST(ts AS BIGINT) AS ts, CAST(te AS BIGINT) AS te FROM $table"

  /** Common CTE prefix: casted inputs + point-expanded positive side.
    * `rTable`/`sTable` name the oracle's input tables, so the same prefix
    * serves the side-swapped pass of full/right outer joins.
    */
  private def prefix(rFacts: Seq[String], sFacts: Seq[String], theta: ThetaSql,
                     rTable: String = "r", sTable: String = "s"): String =
    s"""WITH rr AS (${castedCte(rTable, rFacts)}),
       |     ss AS (${castedCte(sTable, sFacts)}),
       |     rpts AS (SELECT rr.*, unnest(range(rr.ts, rr.te)) AS t FROM rr),
       |     m AS (
       |       SELECT rp.*, s.lin AS slin, s.p AS sp
       |       FROM rpts rp LEFT JOIN ss s
       |         ON (${theta("rp", "s")}) AND s.ts <= rp.t AND rp.t < s.te
       |     ),
       |     agg AS (
       |       SELECT ${rFacts.map(f => "rp." + f).mkString(", ")}, rp.lin, rp.p, rp.t,
       |              list_sort(list(slin) FILTER (WHERE slin IS NOT NULL)) AS slins,
       |              coalesce(product(1 - sp), 1.0) AS negp,
       |              count(slin) AS match_cnt_
       |       FROM m rp
       |       GROUP BY ${rFacts.map(f => "rp." + f).mkString(", ")}, rp.lin, rp.p, rp.t
       |     ),
       |     neg AS (
       |       SELECT ${rFacts.mkString(", ")},
       |              CASE WHEN match_cnt_ = 0 THEN lin
       |                   WHEN match_cnt_ = 1 THEN lin || '&!' || slins[1]
       |                   ELSE lin || '&!(' || array_to_string(slins, '|') || ')'
       |              END AS lin,
       |              CASE WHEN list_contains(slins, agg.lin) THEN 0.0 ELSE p * negp END AS p, t
       |       FROM agg
       |     )""".stripMargin

  /** The `lin` and `p` columns of an O row `l ∧ r`: `l&r` with `pl·pr`, or
    * `l` with `pl` for one base tuple on both sides (`a∧a` is `a`), as
    * [[Lineage.overlapping]] values base-tuple ids.
    */
  private def and(l: String, r: String): String =
    s"CASE WHEN $l.lin = $r.lin THEN $l.lin ELSE $l.lin || '&' || $r.lin END AS lin, " +
      s"CASE WHEN $l.lin = $r.lin THEN $l.p ELSE $l.p * $r.p END AS p"

  /** DuckDB SQL recomputing `r ▷Tp s` per time point. */
  def antiSql(rFacts: Seq[String], sFacts: Seq[String], theta: ThetaSql): String =
    prefix(rFacts, sFacts, theta) + "\nSELECT * FROM neg"

  /** DuckDB SQL recomputing `r ⟕Tp s` per time point.
    *
    * `sOut` maps each `s` fact column to its name in the Spark output
    * (e.g. `file -> s_file` after clash-prefixing).
    */
  def leftOuterSql(rFacts: Seq[String], sOut: Seq[(String, String)], theta: ThetaSql): String = {
    val sFacts = sOut.map(_._1)
    val sSel = sOut.map { case (in, out) => s"s.$in AS $out" }.mkString(", ")
    val sNull = sOut.map { case (_, out) => s"NULL AS $out" }.mkString(", ")
    prefix(rFacts, sFacts, theta) +
      s"""
         |, orows AS (
         |    SELECT ${rFacts.map(f => "rp." + f).mkString(", ")}, $sSel,
         |           ${and("rp", "s")}, rp.t
         |    FROM rpts rp JOIN ss s
         |      ON (${theta("rp", "s")}) AND s.ts <= rp.t AND rp.t < s.te
         |)
         |SELECT * FROM orows
         |UNION ALL
         |SELECT ${rFacts.mkString(", ")}, $sNull, lin, p, t FROM neg""".stripMargin
  }

  /** DuckDB SQL recomputing `r ⟖Tp s` per time point: `s ⟕Tp r` from the
    * sides-swapped prefix, with the output sides swapped back. O rows keep
    * the `r` lineage first (`λr&λs`), as NJ renders them.
    */
  def rightOuterSql(rFacts: Seq[String], sOut: Seq[(String, String)], theta: ThetaSql): String = {
    val rSel = rFacts.map(f => s"r.$f").mkString(", ")
    val rNull = rFacts.map(f => s"NULL AS $f").mkString(", ")
    def sSel(alias: String) = sOut.map { case (in, out) => s"$alias.$in AS $out" }.mkString(", ")
    // In the swapped prefix, `rpts` holds the points of `s` and `ss` the tuples of `r`.
    prefix(sOut.map(_._1), rFacts, (sp, rp) => theta(rp, sp), rTable = "s", sTable = "r") +
      s"""
         |, orows AS (
         |    SELECT $rSel, ${sSel("sp")},
         |           ${and("r", "sp")}, sp.t
         |    FROM rpts sp JOIN ss r
         |      ON (${theta("r", "sp")}) AND r.ts <= sp.t AND sp.t < r.te
         |)
         |SELECT * FROM orows
         |UNION ALL
         |SELECT $rNull, ${sSel("n")}, n.lin, n.p, n.t FROM neg n""".stripMargin
  }

  /** DuckDB SQL recomputing `r ⟗Tp s` per time point: the left-outer rows
    * plus the negated right side (the per-point anti join of `s` w.r.t.
    * `r`, with the `r` fact columns null).
    */
  def fullOuterSql(rFacts: Seq[String], sOut: Seq[(String, String)], theta: ThetaSql): String = {
    val rNull = rFacts.map(f => s"NULL AS $f").mkString(", ")
    val sSel = sOut.map { case (in, out) => if (in == out) in else s"$in AS $out" }.mkString(", ")
    val rightAnti =
      prefix(sOut.map(_._1), rFacts, (sp, rp) => theta(rp, sp), rTable = "s", sTable = "r") +
        s"\nSELECT $sSel, lin, p, t FROM neg"
    s"""${leftOuterSql(rFacts, sOut, theta)}
       |UNION ALL
       |SELECT $rNull, ra.* FROM ($rightAnti) ra""".stripMargin
  }

  /** Expand an interval-typed TP join output to per-point rows (Spark side).
    * Keeps every column except ts/te, adds `t`.
    */
  def expand(out: DataFrame): DataFrame = {
    val keep = out.columns.toSeq.filterNot(c => c == "ts" || c == "te")
    out.select(keep.map(col) :+
      explode(sequence(col("ts"), col("te") - 1)).as("t"): _*)
  }
}
