package repro.core

/** A TP tuple in the reference implementation's local representation. */
final case class TPTuple(fact: Map[String, String], lin: String, p: Double, ts: Long, te: Long)

/** A reference output tuple: fact of each side (None where the paper prints
  * `-`), lineage string, probability, interval.
  */
final case class RefOut(
    leftFact: Option[Map[String, String]], rightFact: Option[Map[String, String]],
    lin: String, p: Double, ts: Long, te: Long)

/** Independent ground truth by *definition*: TP snapshot reducibility +
  * TP change preservation (paper §III), executed literally.
  *
  * For every time point `t`, the probabilistic join-with-negation semantics
  * (paper §IV) is applied to the tuples valid at `t`; consecutive time points
  * with equal facts and equivalent lineage are then merged into maximal
  * intervals. Exponential in the time range — test-scale only. This is a
  * deliberately naive second implementation: it shares no window code with
  * [[NegationJoin]], so agreement between the two is meaningful evidence.
  *
  * Inputs must be base relations (atomic lineage = tuple identifier), and
  * may share tuples (a self-join): each output lineage is valued by
  * [[Lineage.prob]] over the base-tuple probabilities, so `a∧¬a` gets 0.
  */
object SnapshotRef {

  type Theta = (Map[String, String], Map[String, String]) => Boolean

  private def pointsOf(ts: Seq[TPTuple]): Seq[Long] =
    ts.flatMap(t => t.ts until t.te)

  /** Per-time-point result rows of `r ⟕Tp s` (before interval merging). */
  def leftOuterPoints(r: Seq[TPTuple], s: Seq[TPTuple], theta: Theta): Seq[(Long, RefOut)] = {
    val allPoints = (pointsOf(r) ++ pointsOf(s)).distinct.sorted
    val base = (r ++ s).map(t => t.lin -> t.p).toMap
      .withDefault(id => throw new IllegalArgumentException(s"no base tuple '$id'"))
    def out(rt: TPTuple, st: Option[TPTuple], lin: Lineage, t: Long) =
      RefOut(Some(rt.fact), st.map(_.fact), lin.render, lin.prob(base), t, t + 1)
    for {
      t <- allPoints
      rt <- r if rt.ts <= t && t < rt.te
      row <- {
        val matches = s.filter(st => st.ts <= t && t < st.te && theta(rt.fact, st.fact))
          .sortBy(_.lin)
        val oRows = matches.map { st =>
          out(rt, Some(st), Lineage.andL(Lineage.parse(rt.lin), Lineage.parse(st.lin)), t)
        }
        val negRow =
          if (matches.isEmpty) out(rt, None, Lineage.parse(rt.lin), t)
          else {
            val neg = Lineage.or(matches.map(m => Lineage.parse(m.lin)))
            out(rt, None, Lineage.andNot(Lineage.parse(rt.lin), neg), t)
          }
        oRows :+ negRow
      }
    } yield (t, row)
  }

  /** Merge per-point rows into maximal intervals (TP change preservation). */
  def mergePoints(points: Seq[(Long, RefOut)]): Seq[RefOut] =
    points
      .groupBy { case (_, o) => (o.leftFact, o.rightFact, o.lin) }
      .toSeq
      .flatMap { case ((lf, rf, lin), rows) =>
        val p = rows.head._2.p
        val ts = rows.map(_._1).distinct.sorted
        // islands of consecutive time points
        val islands = ts.foldLeft(List.empty[(Long, Long)]) {
          case ((s0, e0) :: rest, t) if t == e0 => (s0, t + 1) :: rest
          case (acc, t)                         => (t, t + 1) :: acc
        }
        islands.reverse.map { case (s0, e0) => RefOut(lf, rf, lin, p, s0, e0) }
      }

  def leftOuter(r: Seq[TPTuple], s: Seq[TPTuple], theta: Theta): Seq[RefOut] =
    mergePoints(leftOuterPoints(r, s, theta))

  def anti(r: Seq[TPTuple], s: Seq[TPTuple], theta: Theta): Seq[RefOut] =
    mergePoints(leftOuterPoints(r, s, theta).filter(_._2.rightFact.isEmpty))

  /** Snapshot semantics is symmetric: flip sides, flip θ, flip the output.
    * O-row lineages then read `λs∧λr`, while NJ orders them by output side
    * (`λr∧λs`); compare via [[Lineage.canonical]].
    */
  def rightOuter(r: Seq[TPTuple], s: Seq[TPTuple], theta: Theta): Seq[RefOut] =
    leftOuter(s, r, (a, b) => theta(b, a))
      .map(o => RefOut(o.rightFact, o.leftFact, o.lin, o.p, o.ts, o.te))

  def fullOuter(r: Seq[TPTuple], s: Seq[TPTuple], theta: Theta): Seq[RefOut] = {
    val left = leftOuter(r, s, theta)
    val rightNeg = leftOuter(s, r, (a, b) => theta(b, a))
      .filter(_.rightFact.isEmpty)
      .map(o => RefOut(None, o.leftFact, o.lin, o.p, o.ts, o.te))
    left ++ rightNeg
  }
}
