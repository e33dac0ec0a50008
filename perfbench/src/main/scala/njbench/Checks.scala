package njbench

import repro.core.{NegationJoin, TPJoinOp}
import njbench.Queries.{Digest, digest, padTo}

/** The untimed output checks of one run. They are also the run's warm-up:
  * every timed query runs once here, fully projected.
  */
object Checks {

  /** Outcome: checks attempted, failure messages, and each op's digest. */
  final case class Result(attempted: Int, failures: Seq[String], digests: Map[String, Digest])

  def run(in: Inputs): Result = {
    var attempted = 0
    val failures = Seq.newBuilder[String]
    def check(name: String)(ok: => Boolean, detail: => String): Unit = {
      attempted += 1
      val passed =
        try ok
        catch { case e: Exception => failures += s"$name threw $e"; return }
      if (!passed) failures += s"$name: $detail"
    }

    // One fully projected run of every query, over the ⟗ column order.
    val full = Queries.build(in, "full")
    val cols = full.columns.toSeq
    val digests = Map.newBuilder[String, Digest]
    for (op <- Queries.ops) {
      var d: Digest = null
      check(s"$op runs")({ d = digest(padTo(Queries.build(in, op), full), cols); true }, "")
      if (d != null) digests += op -> d
    }
    val ds = digests.result()
    def has(ops: String*) = ops.forall(ds.contains)

    // NJ ⟕ ≡ TA ⟕ (on hotkey, on TA's own smaller input).
    if (has("ta_left")) {
      var nj: Digest = null
      check("NJ left = TA left")({
        nj = if (in.ta == ((in.r, in.s))) ds("left")
             else digest(NegationJoin(in.ta._1, in.ta._2, in.theta, TPJoinOp.LeftOuter), cols)
        nj == ds("ta_left")
      }, s"NJ $nj, TA ${ds("ta_left")}")
    }
    // Table III: ⟗ = ⟖ ⊎ ▷ (▷ padded with null s facts).
    if (has("full", "right", "anti"))
      check("Table III: full = right + anti")(
        ds("full") == ds("right") + ds("anti"),
        s"full ${ds("full")}, right ${ds("right")}, anti ${ds("anti")}")
    // The generator's closed-form output counts.
    for ((op, n) <- in.expected if ds.contains(op))
      check(s"closed-form $op rows")(ds(op).rows == n, s"got ${ds(op).rows}, expected $n")

    Result(attempted, failures.result(), ds)
  }
}
