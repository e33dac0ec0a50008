package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._
import repro.ta.TemporalAlignment

/** Edge cases of the conventional `winit` join (the CLJ node,
  * [[NegationJoin.clj]]): strict half-open overlap semantics, null padding,
  * fact packing.
  */
class WinitSpec extends SparkSpec {

  import spark.implicits._
  private val theta = NegationJoin.thetaEq("k")

  import WinitSpec.X

  private def rowsOf(x: org.apache.spark.sql.DataFrame): Array[X] =
    x.select(col("lin").as("lr"), col("p").as("pr"), col("ts").as("rts"), col("te").as("rte"),
      col("_m.ls").as("ls"), col("_m.os").as("os"), col("_m.oe").as("oe")).as[X].collect()

  private def winit(r: Seq[KTup], s: Seq[KTup]) =
    rowsOf(NegationJoin.clj(r.toDF(), s.toDF(), theta))

  test("touching intervals [0,5) and [5,9) do not overlap") {
    val x = winit(Seq(KTup("A", "x", 0.5, 0, 5)), Seq(KTup("A", "y", 0.5, 5, 9)))
    assert(x.length == 1 && !x.head.matched)
  }

  test("one-point overlap [0,5) and [4,9) yields os=4, oe=5") {
    val x = winit(Seq(KTup("A", "x", 0.5, 0, 5)), Seq(KTup("A", "y", 0.5, 4, 9)))
    assert(x.length == 1)
    assert((x.head.os, x.head.oe) == (Some(4L), Some(5L)))
  }

  test("containment clips to the inner interval") {
    val x = winit(Seq(KTup("A", "x", 0.5, 0, 10)), Seq(KTup("A", "y", 0.5, 3, 6)))
    assert((x.head.os, x.head.oe) == (Some(3L), Some(6L)))
  }

  test("identical unit intervals overlap on themselves") {
    val x = winit(Seq(KTup("A", "x", 0.5, 7, 8)), Seq(KTup("A", "y", 0.5, 7, 8)))
    assert((x.head.os, x.head.oe) == (Some(7L), Some(8L)))
  }

  test("θ mismatch yields a null-padded row even when intervals overlap") {
    val x = winit(Seq(KTup("A", "x", 0.5, 0, 9)), Seq(KTup("B", "y", 0.5, 0, 9)))
    assert(x.length == 1 && x.head.ls.isEmpty && x.head.os.isEmpty)
  }

  test("an r tuple with several matches produces one row per match plus none padded") {
    val x = winit(
      Seq(KTup("A", "x", 0.5, 0, 10)),
      Seq(KTup("A", "y1", 0.5, 1, 3), KTup("A", "y2", 0.5, 5, 7), KTup("B", "z", 0.5, 0, 10)))
    assert(x.count(_.ls.isDefined) == 2)
    assert(x.count(_.ls.isEmpty) == 0)
  }

  test("facts are packed as JSON with the fact column name") {
    // by the perfbench view winitRows; the CLJ itself keeps facts typed
    val x = NegationJoin.winitRows(Seq(KTup("A", "x", 0.5, 0, 2)).toDF(), Seq(KTup("A", "y", 0.5, 1, 3)).toDF(), theta)
      .collect()
    assert(x.head.fr.contains("\"k\":\"A\"") && x.head.fs.contains("{\"k\":\"A\"}"))
    val typed = NegationJoin.clj(Seq(KTup("A", "x", 0.5, 0, 2)).toDF(), Seq(KTup("A", "y", 0.5, 1, 3)).toDF(), theta)
    assert(typed.select("k", "_m.f.k").head().toSeq == Seq("A", "A"))
  }

  test("winit preserves the r tuple's full interval in rts/rte") {
    val x = winit(Seq(KTup("A", "x", 0.25, 2, 11)), Seq(KTup("A", "y", 0.5, 4, 6)))
    assert((x.head.rts, x.head.rte, x.head.pr) == (2L, 11L, 0.25))
  }

  test("swap=true makes s the outer relation") {
    val r = Seq(KTup("A", "x", 0.5, 0, 4)).toDF()
    val s = Seq(KTup("A", "y", 0.5, 2, 8), KTup("C", "z", 0.5, 0, 2)).toDF()
    val x = rowsOf(NegationJoin.clj(r, s, theta, swap = true))
    assert(x.map(_.lr).toSet == Set("y", "z"))
    val yRow = x.find(_.lr == "y").get
    assert(yRow.ls.contains("x") && (yRow.os, yRow.oe) == (Some(2L), Some(4L)))
    assert(x.find(_.lr == "z").get.ls.isEmpty)
  }

  // NJ and TA carry facts as typed structs into the same output select;
  // both must give every fact back as it came in.

  test("multi-column facts come back in NJ's and TA's output") {
    val a = TestUtil.aDf(spark)
    val b = TestUtil.bDf(spark)
    val thetaLoc = NegationJoin.thetaEq("loc")
    for (out <- Seq(NegationJoin(a, b, thetaLoc, TPJoinOp.LeftOuter), TemporalAlignment.leftOuter(a, b, thetaLoc))) {
      val row = out.filter(col("hotel") === "hotel1").collect().head
      assert(row.getString(0) == "Ann" && row.getString(1) == "ZAK" && row.getString(3) == "ZAK")
    }
  }

  test("long fact values with quotes come back in NJ's and TA's output") {
    val r = Seq(KTup("""A "quoted" fact""", "x", 0.5, 0, 5)).toDF()
    val s = Seq.empty[KTup].toDF()
    for (out <- Seq(NegationJoin(r, s, theta, TPJoinOp.Anti), TemporalAlignment.anti(r, s, theta)))
      assert(out.collect().head.getString(0) == """A "quoted" fact""")
  }
}

object WinitSpec {
  /** One CLJ row: the outer tuple's lin, p, ts, te and its match, if any. */
  final case class X(lr: String, pr: Double, rts: Long, rte: Long,
                     ls: Option[String], os: Option[Long], oe: Option[Long]) {
    def matched: Boolean = ls.isDefined
  }
}
