package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._

/** The paper's running example, end to end: Fig. 1b (TP left outer join),
  * Fig. 3 (TP anti join), Fig. 5 (winit) and the window sets of Fig. 2/4.
  */
class NegationJoinSpec extends SparkSpec {

  import NegationJoin.{Mode, clj, windows}

  private lazy val a = TestUtil.aDf(spark)
  private lazy val b = TestUtil.bDf(spark)
  private val theta = NegationJoin.thetaEq("loc")

  private def rows(df: org.apache.spark.sql.DataFrame): Set[Seq[String]] = canonSet(df)

  /** The CLJ's matched rows as (outer lin, inner lin, os, oe, outer ts, outer te). */
  private def matched(x: DataFrame): Set[(String, String, Long, Long, Long, Long)] =
    x.filter(col("_m").isNotNull).select("lin", "_m.ls", "_m.os", "_m.oe", "ts", "te").collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2), r.getLong(3), r.getLong(4), r.getLong(5))).toSet

  /** The windows of one kind as (name, lin, ts, te). */
  private def kind(w: DataFrame, k: String): Set[(String, String, Long, Long)] =
    w.filter(col("_kind") === k).select("name", "lin", "ts", "te").collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2), r.getLong(3))).toSet

  test("winit contains the overlapping windows of Fig. 5") {
    val byLin = matched(clj(a, b, theta)).map(m => m._2 -> (m._3, m._4)).toMap
    assert(byLin.size == 2)
    assert(byLin("b3") == (4L, 6L))
    assert(byLin("b2") == (5L, 8L))
    // the inner tuple's facts ride in _m.f as a typed struct
    assert(clj(a, b, theta).filter(col("_m.ls") === "b3").select("_m.f.hotel", "_m.f.loc").head().toSeq ==
      Seq("hotel1", "ZAK"))
  }

  test("winit keeps fully-unmatched r tuples with null s side") {
    val unmatched = clj(a, b, theta).filter(col("_m").isNull).select("lin", "ts", "te").collect()
    assert(unmatched.map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSeq == Seq(("a2", 7L, 10L)))
  }

  test("winit join interval is the pairwise intersection") {
    matched(clj(a, b, theta)).foreach { case (_, _, os, oe, ts, te) =>
      assert(os >= ts && oe <= te && os < oe)
    }
  }

  test("window sets match Fig. 2: unmatched windows w1, w2") {
    assert(kind(windows(clj(a, b, theta), Mode.All, windowSideIsLeft = true), "U") ==
      Set(("Ann", "a1", 2L, 4L), ("Jim", "a2", 7L, 10L)))
  }

  test("window sets match Fig. 2: overlapping windows w3, w4") {
    val w = windows(clj(a, b, theta), Mode.All, windowSideIsLeft = true)
    assert(kind(w, "O") == Set(("Ann", "a1&b3", 4L, 6L), ("Ann", "a1&b2", 5L, 8L)))
    // an O window carries its match's facts; U and N windows carry none
    assert(w.filter(col("_kind") === "O").select("_f.hotel").collect().map(_.getString(0)).toSet ==
      Set("hotel1", "hotel2"))
    assert(w.filter(col("_kind") =!= "O" && col("_f").isNotNull).isEmpty)
  }

  test("window sets match Fig. 2: negating windows w5, w6, w7") {
    assert(kind(windows(clj(a, b, theta), Mode.All, windowSideIsLeft = true), "N") == Set(
      ("Ann", "a1&!b3", 4L, 5L),
      ("Ann", "a1&!(b2|b3)", 5L, 6L),
      ("Ann", "a1&!b2", 6L, 8L)))
  }

  test("TP anti join reproduces Fig. 3 exactly") {
    val out = NegationJoin(a, b, theta, TPJoinOp.Anti)
    assert(out.columns.toSeq == Seq("name", "loc", "lin", "p", "ts", "te"))
    val got = out.collect().map(r =>
      (r.getString(0), r.getString(1), r.getString(2),
        math.rint(r.getDouble(3) * 1e9) / 1e9, r.getLong(4), r.getLong(5))).toSet
    assert(got == Set(
      ("Ann", "ZAK", "a1", 0.7, 2L, 4L),
      ("Ann", "ZAK", "a1&!b3", 0.21, 4L, 5L),
      ("Ann", "ZAK", "a1&!(b2|b3)", 0.084, 5L, 6L),
      ("Ann", "ZAK", "a1&!b2", 0.28, 6L, 8L),
      ("Jim", "WEN", "a2", 0.8, 7L, 10L)))
  }

  test("TP left outer join reproduces Fig. 1b exactly") {
    val out = NegationJoin(a, b, theta, TPJoinOp.LeftOuter)
    assert(out.columns.toSeq == Seq("name", "loc", "hotel", "s_loc", "lin", "p", "ts", "te"))
    val got = out.collect().map(r =>
      (r.getString(0), r.getString(1), Option(r.getString(2)).getOrElse("-"),
        r.getString(4),
        math.rint(r.getDouble(5) * 1e9) / 1e9, r.getLong(6), r.getLong(7))).toSet
    assert(got == Set(
      ("Ann", "ZAK", "-", "a1", 0.7, 2L, 4L),
      ("Ann", "ZAK", "hotel1", "a1&b3", 0.49, 4L, 6L),
      ("Ann", "ZAK", "hotel2", "a1&b2", 0.42, 5L, 8L),
      ("Ann", "ZAK", "-", "a1&!b3", 0.21, 4L, 5L),
      ("Ann", "ZAK", "-", "a1&!(b2|b3)", 0.084, 5L, 6L),
      ("Ann", "ZAK", "-", "a1&!b2", 0.28, 6L, 8L),
      ("Jim", "WEN", "-", "a2", 0.8, 7L, 10L)))
  }

  test("TP right outer join: WO plus unmatched/negating of b w.r.t. a") {
    val out = NegationJoin(a, b, theta, TPJoinOp.RightOuter)
    val got = out.collect().map(r =>
      (Option(r.getString(0)).getOrElse("-"), Option(r.getString(2)).getOrElse("-"),
        Lineage.canonicalString(r.getString(4)),
        math.rint(r.getDouble(5) * 1e9) / 1e9, r.getLong(6), r.getLong(7))).toSet
    assert(got == Set(
      ("Ann", "hotel1", "a1&b3", 0.49, 4L, 6L),
      ("Ann", "hotel2", "a1&b2", 0.42, 5L, 8L),
      ("-", "hotel3", "b1", 0.9, 1L, 4L),
      ("-", "hotel1", "!a1&b3", 0.7 * 0.3, 4L, 6L),
      ("-", "hotel2", "!a1&b2", 0.6 * 0.3, 5L, 8L)))
  }

  test("TP full outer join = left outer ∪ negated right side") {
    val full = NegationJoin(a, b, theta, TPJoinOp.FullOuter)
    val left = NegationJoin(a, b, theta, TPJoinOp.LeftOuter)
    val right = NegationJoin(a, b, theta, TPJoinOp.RightOuter)
    val fullSet = rows(full)
    val leftSet = rows(left)
    val rightOnly = rows(right.filter(col("name").isNull))
    assert(fullSet == leftSet ++ rightOnly)
    assert(fullSet.size == leftSet.size + rightOnly.size)
  }

  private val ops = Seq(TPJoinOp.Anti, TPJoinOp.LeftOuter, TPJoinOp.RightOuter, TPJoinOp.FullOuter)

  test("plan shape: ▷, ⟕ and ⟖ plan one join, ⟗ two") {
    // Per pass: one exchange for each CLJ input and none for the sweep,
    // whose grouping keys include θ's equality key; ⟗'s swapped pass
    // reuses the CLJ input exchanges of its first pass.
    assert(ops.map(op => planShape(spark)(NegationJoin(a, b, theta, op))) ==
      Seq((1, 2), (1, 2), (1, 2), (2, 2)))
  }

  test("plans hold no JSON expression and no typed object operator") {
    import org.apache.spark.sql.catalyst.expressions.{JsonToStructs, StructsToJson}
    import org.apache.spark.sql.execution._
    val ta = repro.ta.TemporalAlignment
    val queries = ops.map(op => s"NJ $op" -> NegationJoin(a, b, theta, op)) ++ Seq(
      "TA anti" -> ta.anti(a, b, theta), "TA leftOuter" -> ta.leftOuter(a, b, theta),
      "TA rightOuter" -> ta.rightOuter(a, b, theta), "TA fullOuter" -> ta.fullOuter(a, b, theta))
    for ((name, query) <- queries) {
      // the analyzed plan: Catalyst later swaps these expressions for
      // invocations of their evaluators
      val analyzed = query.queryExecution.analyzed
      val json = analyzed.flatMap(_.expressions.flatMap(_.collect {
        case e: StructsToJson => e
        case e: JsonToStructs => e
      }))
      val plan = physicalPlan(spark)(query)
      val typed = plan.collect {
        case p: DeserializeToObjectExec => p
        case p: SerializeFromObjectExec => p
        case p: MapGroupsExec => p
        case p: AppendColumnsExec => p
      }
      assert(json.isEmpty, s"$name:\n$analyzed")
      assert(typed.isEmpty, s"$name:\n$plan")
    }
  }

  test("anti join of disjoint relations passes r through unchanged") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val s = Seq(KTup("B", "y1", 0.5, 0, 10)).toDF()
    val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.Anti).collect()
    assert(out.length == 1)
    assert(out.head.getString(0) == "A" && out.head.getString(1) == "x1")
    assert(out.head.getLong(3) == 0L && out.head.getLong(4) == 10L)
  }

  test("matching tuple with probability 1 yields probability-0 negation row") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val s = Seq(KTup("A", "y1", 1.0, 0, 10)).toDF()
    val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.Anti).collect()
    assert(out.length == 1)
    assert(out.head.getDouble(2) == 0.0)
    assert(out.head.getString(1) == "x1&!y1")
  }

  test("s tuple strictly inside r splits r into five windows for left outer") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val s = Seq(KTup("A", "y1", 0.4, 3, 6)).toDF()
    val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter)
    val got = out.select("lin", "ts", "te").collect()
      .map(x => (x.getString(0), x.getLong(1), x.getLong(2))).toSet
    assert(got == Set(
      ("x1", 0L, 3L), ("x1&y1", 3L, 6L), ("x1&!y1", 3L, 6L), ("x1", 6L, 10L)))
  }

  test("identical intervals produce only overlap and negation windows") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 2, 9)).toDF()
    val s = Seq(KTup("A", "y1", 0.4, 2, 9)).toDF()
    val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter)
    val got = out.select("lin", "ts", "te").collect()
      .map(x => (x.getString(0), x.getLong(1), x.getLong(2))).toSet
    assert(got == Set(("x1&y1", 2L, 9L), ("x1&!y1", 2L, 9L)))
  }

  test("left outer probability columns: O rows pr*ps, N rows pr*(1-ps)") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 2, 9)).toDF()
    val s = Seq(KTup("A", "y1", 0.4, 2, 9)).toDF()
    val out = NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter)
      .select("lin", "p").collect().map(x => (x.getString(0), x.getDouble(1))).toMap
    assert(math.abs(out("x1&y1") - 0.2) < 1e-12)
    assert(math.abs(out("x1&!y1") - 0.3) < 1e-12)
  }

  test("three stacked s tuples produce pairwise O windows and set-based N windows") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val s = Seq(
      KTup("A", "y1", 0.5, 0, 4),
      KTup("A", "y2", 0.5, 2, 8),
      KTup("A", "y3", 0.5, 6, 10)).toDF()
    val wins = windows(clj(r, s, NegationJoin.thetaEq("k")), Mode.All, windowSideIsLeft = true)
      .select("_kind", "lin", "ts", "te").collect().map(x => (x.getString(0), x.getString(1), x.getLong(2), x.getLong(3)))
    val n = wins.filter(_._1 == "N").map(w => (w._2, w._3, w._4)).toSet
    assert(n == Set(
      ("x1&!y1", 0L, 2L), ("x1&!(y1|y2)", 2L, 4L), ("x1&!y2", 4L, 6L),
      ("x1&!(y2|y3)", 6L, 8L), ("x1&!y3", 8L, 10L)))
    assert(wins.count(_._1 == "U") == 0)
    assert(wins.count(_._1 == "O") == 3)
  }

  test("theta on non-equal attributes (inequality) is honored") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val s = Seq(KTup("A", "y1", 0.5, 0, 10), KTup("B", "y2", 0.5, 0, 10)).toDF()
    val thetaNe: (String, String) => Column =
      (l, rr) => col(s"$l.k") =!= col(s"$rr.k")
    val out = NegationJoin(r, s, thetaNe, TPJoinOp.Anti).collect()
    assert(out.length == 1)
    assert(out.head.getString(1) == "x1&!y2")
  }

  test("meteo-style two-column θ: equal metric, different station") {
    import spark.implicits._
    val r = Seq(
      (1L, 0L, "x1", 0.5, 0L, 10L),
      (2L, 1L, "x2", 0.5, 0L, 10L)).toDF("station", "metric", "lin", "p", "ts", "te")
    val s = Seq(
      (1L, 0L, "y1", 0.5, 2L, 5L),  // same station → no match for x1
      (3L, 0L, "y2", 0.5, 2L, 5L),  // matches x1
      (4L, 1L, "y3", 0.5, 4L, 8L)   // matches x2
    ).toDF("station", "metric", "lin", "p", "ts", "te")
    val theta2: (String, String) => Column = (l, rr) =>
      col(s"$l.metric") === col(s"$rr.metric") && col(s"$l.station") =!= col(s"$rr.station")
    val out = NegationJoin(r, s, theta2, TPJoinOp.Anti)
      .select("lin", "ts", "te").collect()
      .map(x => (x.getString(0), x.getLong(1), x.getLong(2))).toSet
    assert(out == Set(
      ("x1", 0L, 2L), ("x1&!y2", 2L, 5L), ("x1", 5L, 10L),
      ("x2", 0L, 4L), ("x2&!y3", 4L, 8L), ("x2", 8L, 10L)))
  }

  test("derived input lineage is composed through the formula tree") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1|x2", 0.5, 0, 10)).toDF()
    val s = Seq(KTup("A", "y1&!y2", 0.4, 3, 6)).toDF()
    val kTheta = NegationJoin.thetaEq("k")
    val u = Set(("x1|x2", 0.5, 0L, 3L), ("x1|x2", 0.5, 6L, 10L))
    val o = ("(x1|x2)&y1&!y2", 0.2, 3L, 6L)
    val n = ("(x1|x2)&!(y1&!y2)", 0.3, 3L, 6L)
    // s lies inside r: the swapped pass has one N window and no U window
    val ns = ("y1&!y2&!(x1|x2)", 0.2, 3L, 6L)
    val ta = repro.ta.TemporalAlignment
    val cases = Seq(
      (TPJoinOp.Anti, ta.anti _, u + n), (TPJoinOp.LeftOuter, ta.leftOuter _, u + o + n),
      (TPJoinOp.RightOuter, ta.rightOuter _, Set(o, ns)), (TPJoinOp.FullOuter, ta.fullOuter _, u + o + n + ns))
    def got(df: DataFrame) = df.select("lin", "p", "ts", "te").collect()
      .map(x => (x.getString(0), math.rint(x.getDouble(1) * 1e9) / 1e9, x.getLong(2), x.getLong(3))).toSet
    for ((op, taOp, want) <- cases) {
      assert(got(NegationJoin(r, s, kTheta, op)) == want, s"NJ $op")
      assert(got(taOp(r, s, kTheta)) == want, s"TA $op")
    }
  }

  test("a self-join is exact: a∧a has p(a) and a∧¬a has p = 0, in NJ, TA and SnapshotRef") {
    val refTheta: SnapshotRef.Theta = (f1, f2) => f1("loc") == f2("loc")
    type Row6 = (String, String, String, Double, Long, Long)
    def nj(df: DataFrame): Set[Row6] = df.select("name", "s_name", "lin", "p", "ts", "te")
      .collect().map(r => (Option(r.getString(0)).getOrElse("-"), Option(r.getString(1)).getOrElse("-"),
        Lineage.canonicalString(r.getString(2)), math.rint(r.getDouble(3) * 1e9) / 1e9,
        r.getLong(4), r.getLong(5))).toSet
    def ref(out: Seq[RefOut]): Set[Row6] = out.map(o =>
      (o.leftFact.map(_("name")).getOrElse("-"), o.rightFact.map(_("name")).getOrElse("-"),
        Lineage.canonicalString(o.lin), math.rint(o.p * 1e9) / 1e9, o.ts, o.te)).toSet
    val o = Set[Row6](("Ann", "Ann", "a1", 0.7, 2, 8), ("Jim", "Jim", "a2", 0.8, 7, 10))
    val nl = Set[Row6](("Ann", "-", Lineage.canonicalString("a1&!a1"), 0.0, 2, 8),
      ("Jim", "-", Lineage.canonicalString("a2&!a2"), 0.0, 7, 10))
    val nr = nl.map { case (l, _, lin, p, ts, te) => ("-", l, lin, p, ts, te) }
    val ta = repro.ta.TemporalAlignment
    val cases = Seq(
      (TPJoinOp.Anti, nl, ta.anti _, SnapshotRef.anti _),
      (TPJoinOp.LeftOuter, o ++ nl, ta.leftOuter _, SnapshotRef.leftOuter _),
      (TPJoinOp.RightOuter, o ++ nr, ta.rightOuter _, SnapshotRef.rightOuter _),
      (TPJoinOp.FullOuter, o ++ nl ++ nr, ta.fullOuter _, SnapshotRef.fullOuter _))
    for ((op, want, taOp, refOp) <- cases) {
      // ▷ outputs no right facts: read the right name as absent
      def norm(df: DataFrame) = if (op == TPJoinOp.Anti) df.withColumn("s_name", lit(null: String)) else df
      assert(nj(norm(NegationJoin(a, a, theta, op))) == want, s"NJ $op")
      assert(nj(norm(taOp(a, a, theta))) == want, s"TA $op")
      assert(ref(refOp(aRef, aRef, refTheta)) == want, s"SnapshotRef $op")
    }
  }

  test("operands sharing a base tuple through derived lineage are rejected: (r ▷ s) ⟕ s") {
    import spark.implicits._
    val r = Seq(KTup("A", "a", 0.5, 0, 10)).toDF()
    val s = Seq(KTup("A", "b", 0.4, 3, 6)).toDF()
    val kTheta = NegationJoin.thetaEq("k")
    val rs = NegationJoin(r, s, kTheta, TPJoinOp.Anti)
    rejects("share base tuples b")(NegationJoin(rs, s, kTheta, TPJoinOp.LeftOuter).collect())
    rejects("share base tuples b")(repro.ta.TemporalAlignment.leftOuter(rs, s, kTheta).collect())
  }

  // ------------------------------------------------------ input contract

  /** `run` fails with an `IllegalArgumentException`, possibly wrapped by
    * Spark, whose message contains `msg`.
    */
  private def rejects(msg: String)(run: => Any): Unit = {
    val e = intercept[Exception](run)
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case x: IllegalArgumentException => x }
    assert(cause.exists(_.getMessage.contains(msg)), e.toString)
  }

  private type NullableTup = (String, String, Option[Double], Long, Long)
  private def nullableDf(ts: NullableTup*): DataFrame = {
    import spark.implicits._
    ts.toDF("k", "lin", "p", "ts", "te")
  }

  test("a matching s tuple with a null lin or p is rejected, not ignored") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val kTheta = NegationJoin.thetaEq("k")
    for (s <- Seq(nullableDf(("A", null, Some(0.4), 3, 6)), nullableDf(("A", "y1", None, 3, 6))))
      rejects("matching r tuple x1 over [3, 6) has a null lin or p")(
        NegationJoin(r, s, kTheta, TPJoinOp.Anti).collect())
  }

  test("r tuples over an empty or inverted interval are rejected, not dropped") {
    import spark.implicits._
    val s = Seq(KTup("B", "y1", 0.4, 0, 10)).toDF()
    for ((ts, te) <- Seq((5L, 5L), (9L, 7L))) {
      val r = Seq(KTup("A", "x1", 0.5, ts, te)).toDF()
      rejects(s"empty or inverted interval [$ts, $te)")(
        NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter).collect())
    }
  }

  test("probabilities outside [0, 1] are rejected on either side") {
    import spark.implicits._
    val kTheta = NegationJoin.thetaEq("k")
    val ok = Seq(KTup("A", "ok", 0.5, 0, 10)).toDF()
    val high = Seq(KTup("A", "x1", 1.5, 0, 10)).toDF()
    val low = Seq(KTup("A", "y1", -0.1, 3, 6)).toDF()
    rejects("x1 has probability 1.5 outside [0, 1]")(
      NegationJoin(high, ok, kTheta, TPJoinOp.LeftOuter).collect())
    rejects("y1 has probability -0.1 outside [0, 1]")(
      NegationJoin(ok, low, kTheta, TPJoinOp.LeftOuter).collect())
  }

  test("an r tuple with a null lineage is rejected with a clear error") {
    rejects("null lineage")(NegationJoin(nullableDf(("A", null, Some(0.5), 0, 10)),
      nullableDf(("A", "y1", Some(0.4), 3, 6)), NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter).collect())
  }

  test("a right fact renamed onto a left fact's name is rejected before the query runs") {
    import spark.implicits._
    val r = Seq(("A", "B", "x1", 0.5, 0L, 10L)).toDF("k", "s_k", "lin", "p", "ts", "te")
    val s = Seq(KTup("A", "y1", 0.5, 0, 10)).toDF()
    for (op <- Seq(TPJoinOp.LeftOuter, TPJoinOp.RightOuter, TPJoinOp.FullOuter)) {
      val e = intercept[IllegalArgumentException](NegationJoin(r, s, NegationJoin.thetaEq("k"), op))
      assert(e.getMessage.contains("'s_k'") && e.getMessage.contains("r.s_k and s.k"), e.getMessage)
    }
    intercept[IllegalArgumentException](
      repro.ta.TemporalAlignment.leftOuter(r, s, NegationJoin.thetaEq("k")))
    // ▷ outputs no right fact columns, so nothing collides
    assert(NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.Anti).columns.toSeq ==
      Seq("k", "s_k", "lin", "p", "ts", "te"))
    // a θ over no column is rejected at the call, before any query is built
    rejects("θ needs at least one column")(NegationJoin.thetaEq())
  }

  test("two right facts landing on one output name are rejected before the query runs") {
    import spark.implicits._
    val r = Seq(KTup("A", "x1", 0.5, 0, 10)).toDF()
    val s = Seq(("A", "B", "y1", 0.5, 0L, 10L)).toDF("k", "s_k", "lin", "p", "ts", "te")
    val e = intercept[IllegalArgumentException](
      NegationJoin(r, s, NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter))
    assert(e.getMessage.contains("'s_k'") && e.getMessage.contains("s.k and s.s_k"), e.getMessage)
    // a name differing only in case is the same column to a case-insensitive session
    val sUpper = Seq(("A", "B", "y1", 0.5, 0L, 10L)).toDF("k", "K2", "lin", "p", "ts", "te")
    val rLower = Seq(("A", "b", "x1", 0.5, 0L, 10L)).toDF("k", "k2", "lin", "p", "ts", "te")
    val e2 = intercept[IllegalArgumentException](
      NegationJoin(rLower, sUpper, NegationJoin.thetaEq("k"), TPJoinOp.LeftOuter))
    assert(e2.getMessage.contains("r.k2 and s.K2"), e2.getMessage)
  }

  test("an outer tuple with a null p, ts or te is rejected, naming it, not dropped") {
    import spark.implicits._
    val kTheta = NegationJoin.thetaEq("k")
    val ok = Seq(KTup("A", "ok", 0.5, 0, 10)).toDF()
    def df(lin: String, p: Option[Double], ts: Option[Long], te: Option[Long]) =
      Seq(("A", lin, p, ts, te)).toDF("k", "lin", "p", "ts", "te")
    val nulls = Seq[(String, (String => DataFrame))](
      "p" -> (df(_, None, Some(3), Some(6))),
      "ts" -> (df(_, Some(0.5), None, Some(6))),
      "te" -> (df(_, Some(0.5), Some(3), None)))
    for ((c, tuple) <- nulls) {
      rejects(s"tuple x1 has a null $c")(NegationJoin(tuple("x1"), ok, kTheta, TPJoinOp.LeftOuter).collect())
      // ⟖ is the swapped pass: s is its outer relation
      rejects(s"tuple y1 has a null $c")(NegationJoin(ok, tuple("y1"), kTheta, TPJoinOp.RightOuter).collect())
    }
    // a null ts or te fails θo, so an inner tuple with one would match
    // nothing: it is rejected too, on either side of every op. A repartitioned
    // input is not folded while planning, so there the check runs in a task,
    // after Catalyst has inferred its filters from θo.
    for ((c, tuple) <- nulls.tail; op <- ops; in <- Seq[DataFrame => DataFrame](identity, _.repartition(1))) {
      rejects(s"tuple x1 has a null $c")(NegationJoin(in(tuple("x1")), ok, kTheta, op).collect())
      rejects(s"tuple y1 has a null $c")(NegationJoin(ok, in(tuple("y1")), kTheta, op).collect())
    }
  }

  test("a fact column named like an internal column is rejected where it is an outer column") {
    import spark.implicits._
    val kTheta = NegationJoin.thetaEq("k")
    val plain = Seq(KTup("A", "y1", 0.4, 3, 6)).toDF()
    def named(c: String) = Seq(("A", "v", "x1", 0.5, 0L, 10L)).toDF("k", c, "lin", "p", "ts", "te")
    import TPJoinOp._
    for (c <- NegationJoin.InternalCols ++ NegationJoin.InternalCols.map(_.toUpperCase)) {
      // r is an outer relation of ▷, ⟕ and ⟗; s of ⟖ and ⟗
      for ((op, r, s) <- Seq(Anti, LeftOuter, FullOuter).map((_, named(c), plain)) ++
             Seq(RightOuter, FullOuter).map((_, plain, named(c)))) {
        val e = intercept[IllegalArgumentException](NegationJoin(r, s, kTheta, op))
        assert(e.getMessage.contains(s"'$c'"), e.getMessage)
      }
      // as an inner relation's fact it rides in the match struct and works
      assert(NegationJoin(plain, named(c), kTheta, LeftOuter).filter(col(c) === "v").count() == 1, c)
      assert(NegationJoin(named(c), plain, kTheta, RightOuter).filter(col(c) === "v").count() == 1, c)
    }
    // the join's aliases are not columns: facts named like them work in every op
    for (c <- Seq("_l", "_r"); op <- ops)
      assert(NegationJoin(named(c), plain, kTheta, op).count() ==
        NegationJoin(named("v"), plain, kTheta, op).count(), s"$c $op")
  }

  test("one r tuple against 10^4 disjoint matches: ⟕ gives 3m+1 rows and ▷ 2m+1") {
    import spark.implicits._
    import java.lang.management.{ManagementFactory, MemoryType}
    import scala.jdk.CollectionConverters._
    val m = 10000
    val kTheta = NegationJoin.thetaEq("k")
    val r = Seq(KTup("A", "x", 0.5, 0, 2L * m + 1)).toDF()
    val s = (0 until m).map(i => KTup("A", s"y$i", 0.5, 2L * i + 1, 2L * i + 2)).toDF()
    val heap = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
    heap.foreach(_.resetPeakUsage())
    val t0 = System.nanoTime()
    NegationJoin(r, s, kTheta, TPJoinOp.LeftOuter).write.format("noop").mode("overwrite").save()
    val secs = (System.nanoTime() - t0) / 1e9
    info(f"⟕ into noop: $secs%.2f s, peak heap ${heap.map(_.getPeakUsage.getUsed).sum / 1048576.0}%.0f MB")
    assert(NegationJoin(r, s, kTheta, TPJoinOp.LeftOuter).count() == 3L * m + 1)
    assert(NegationJoin(r, s, kTheta, TPJoinOp.Anti).count() == 2L * m + 1)
  }

  test("the perfbench views winitRows, windowsFrom, windowToOut and unpack give apply's rows") {
    import spark.implicits._
    for ((swap, op) <- Seq(false -> TPJoinOp.LeftOuter, true -> TPJoinOp.RightOuter)) {
      val wins = NegationJoin.windowsFrom(NegationJoin.winitRows(a, b, theta, swap), Mode.All)
      val out = wins.map(NegationJoin.windowToOut(_, windowSideIsLeft = !swap))
      assert(rows(NegationJoin.unpack(out, a, b, anti = false)) == rows(NegationJoin(a, b, theta, op)), op)
    }
  }

  type Column = org.apache.spark.sql.Column
}
