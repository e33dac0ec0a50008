package repro.core

/** Boolean lineage formulas over independent base-tuple identifiers.
  *
  * A lineage expression is a formula over tuple-identifier atoms with the
  * connectives ∧ (rendered `&`), ∨ (rendered `|`) and ¬ (rendered `!`).
  * Tuple identifiers are independent Boolean random variables (paper §III).
  *
  * The string grammar (used to move lineages through DataFrames) is
  * {{{
  *   expr   := term ('|' term)*
  *   term   := factor ('&' factor)*
  *   factor := '!' factor | '(' expr ')' | atom
  *   atom   := [A-Za-z0-9_.:#-]+
  * }}}
  * Rendering inserts parentheses only where precedence requires them, so
  * `a1 ∧ ¬(b2 ∨ b3)` renders as `a1&!(b2|b3)` — the form used throughout
  * the paper's examples and by the DuckDB oracle queries.
  *
  * Rendering preserves operand order (no sorting), so equal construction
  * order yields equal strings; logical equivalence is decided by
  * [[Lineage.equiv]] via truth-table enumeration.
  *
  * The joins compose an output lineage and its probability with one call
  * per window: [[Lineage.overlapping]] for an O window, [[Lineage.negating]]
  * for an N window. For base-tuple ids (every operand one atom) these build
  * the string directly; only derived, non-atomic lineage is parsed into a
  * formula, combined and rendered. Both paths give the same bytes.
  */
sealed trait Lineage {
  /** Canonical string form (paper-style, minimal parentheses). */
  def render: String = this match {
    case LVar(id)  => id
    case LNot(c)   =>
      c match {
        case LVar(id) => s"!$id"
        case _        => s"!(${c.render})"
      }
    case LAnd(cs)  =>
      cs.map {
        case o @ LOr(_) => s"(${o.render})"
        case c          => c.render
      }.mkString("&")
    case LOr(cs)   => cs.map(_.render).mkString("|")
  }

  /** All atoms (tuple identifiers) occurring in the formula. */
  def vars: Set[String] = this match {
    case LVar(id) => Set(id)
    case LNot(c)  => c.vars
    case LAnd(cs) => cs.flatMap(_.vars).toSet
    case LOr(cs)  => cs.flatMap(_.vars).toSet
  }

  /** Evaluate under a total truth assignment. */
  def eval(assign: Map[String, Boolean]): Boolean = this match {
    case LVar(id) => assign(id)
    case LNot(c)  => !c.eval(assign)
    case LAnd(cs) => cs.forall(_.eval(assign))
    case LOr(cs)  => cs.exists(_.eval(assign))
  }

  /** Exact marginal probability under tuple independence.
    *
    * Uses independence shortcuts when subformulas have disjoint variable
    * sets, and otherwise Shannon expansion on a shared variable. Exponential
    * in the worst case — intended for the formula sizes produced by a single
    * TP join (small per-window formulas) and for test cross-checks.
    */
  def prob(p: Map[String, Double]): Double = this match {
    case LVar(id) => p(id)
    case LNot(c)  => 1.0 - c.prob(p)
    case LAnd(cs) =>
      if (Lineage.pairwiseDisjoint(cs)) cs.map(_.prob(p)).product
      else Lineage.shannon(this, p)
    case LOr(cs) =>
      if (Lineage.pairwiseDisjoint(cs)) 1.0 - cs.map(c => 1.0 - c.prob(p)).product
      else Lineage.shannon(this, p)
  }

}

/** Atomic lineage: a single base-tuple identifier. */
final case class LVar(id: String) extends Lineage
/** Negation. */
final case class LNot(child: Lineage) extends Lineage
/** Conjunction (n-ary, flattened). */
final case class LAnd(children: Vector[Lineage]) extends Lineage
/** Disjunction (n-ary, flattened). */
final case class LOr(children: Vector[Lineage]) extends Lineage

object Lineage {

  /** Smart conjunction: flattens nested ∧, drops duplicates, preserves order. */
  def and(ls: Seq[Lineage]): Lineage = {
    val flat = ls.flatMap {
      case LAnd(cs) => cs
      case x        => Vector(x)
    }.distinct.toVector
    flat match {
      case Vector(one) => one
      case many        => LAnd(many)
    }
  }

  /** Smart disjunction: flattens nested ∨, drops duplicates, preserves order. */
  def or(ls: Seq[Lineage]): Lineage = {
    val flat = ls.flatMap {
      case LOr(cs) => cs
      case x       => Vector(x)
    }.distinct.toVector
    flat match {
      case Vector(one) => one
      case many        => LOr(many)
    }
  }

  def not(l: Lineage): Lineage = l match {
    case LNot(c) => c
    case x       => LNot(x)
  }

  /** `λr ∧ λs` — the lineage-concatenation function for overlapping windows. */
  def andL(a: Lineage, b: Lineage): Lineage = and(Seq(a, b))

  /** `λr ∧ ¬λs` — the lineage-concatenation function for negating windows. */
  def andNot(a: Lineage, b: Lineage): Lineage = and(Seq(a, not(b)))

  /** An overlapping window's lineage `λa ∧ λb` and its probability, given
    * `P(λa) = pa` and `P(λb) = pb`: for base-tuple ids `a&b` with `pa·pb`,
    * or `a` with `pa` for one tuple on both sides. Derived operands are
    * parsed once and valued `pa·pb`, exact when they share no base tuple;
    * else an `IllegalArgumentException` names the shared ones.
    */
  def overlapping(a: String, pa: Double, b: String, pb: Double): (String, Double) =
    if (isAtom(a) && isAtom(b)) { if (a == b) (a, pa) else (s"$a&$b", pa * pb) }
    else (and(independent(Seq(a, b))).render, pa * pb)

  /** A negating window's lineage `λa ∧ ¬(λb₁ ∨ … ∨ λbₖ)`, `k ≥ 1`, and its
    * probability; a repeated disjunct counts once (first occurrence kept).
    * For base-tuple ids `a&!b` or `a&!(b|c)`, valued 0 when `a` is among the
    * `bs` and `pa·Π(1−pbᵢ)` otherwise; derived operands as in [[overlapping]].
    */
  def negating(a: String, pa: Double, bs: Seq[String], pbs: Seq[Double]): (String, Double) = {
    require(bs.nonEmpty, s"a negating window of $a has no match")
    val ds = bs.zip(pbs).distinctBy(_._1)
    val p = pa * ds.map(1.0 - _._2).product
    if (isAtom(a) && bs.forall(isAtom)) {
      val lin = if (ds.size == 1) s"$a&!${ds.head._1}" else ds.map(_._1).mkString(s"$a&!(", "|", ")")
      (lin, if (ds.exists(_._1 == a)) 0.0 else p)
    } else {
      val parsed = independent(a +: ds.map(_._1))
      (andNot(parsed.head, or(parsed.tail)).render, p)
    }
  }

  /** The parsed `operands`, which must share no base tuple: only then is
    * the probability of their conjunction the product of theirs.
    */
  private def independent(operands: Seq[String]): Seq[Lineage] = {
    val parsed = operands.map(parse)
    val vars = parsed.flatMap(_.vars)
    val shared = vars.diff(vars.distinct).distinct.sorted
    require(shared.isEmpty, s"lineage operands ${operands.mkString("'", "', '", "'")} " +
      s"share base tuples ${shared.mkString(", ")}: their probabilities are not independent")
    parsed
  }

  /** Whether `s` is one base-tuple id: a whole `atom` of the grammar. */
  def isAtom(s: String): Boolean = s.nonEmpty && s.forall(isAtomChar)

  private def isAtomChar(c: Char): Boolean =
    c.isLetterOrDigit || c == '_' || c == '.' || c == ':' || c == '#' || c == '-'

  private[core] def pairwiseDisjoint(cs: Seq[Lineage]): Boolean = {
    val sets = cs.map(_.vars)
    val total = sets.map(_.size).sum
    sets.foldLeft(Set.empty[String])(_ ++ _).size == total
  }

  /** Shannon expansion on the first variable of the formula. */
  private[core] def shannon(l: Lineage, p: Map[String, Double]): Double = {
    val v = l.vars.head
    val pv = p(v)
    pv * cofactorProb(l, v, value = true, p) +
      (1.0 - pv) * cofactorProb(l, v, value = false, p)
  }

  private def cofactorProb(l: Lineage, v: String, value: Boolean, p: Map[String, Double]): Double =
    cofactor(l, v, value) match {
      case Left(b)    => if (b) 1.0 else 0.0
      case Right(sub) => sub.prob(p)
    }

  /** Cofactor of `l` with `v := value`; Left(b) when it collapses to const. */
  private[core] def cofactor(l: Lineage, v: String, value: Boolean): Either[Boolean, Lineage] =
    l match {
      case LVar(id) if id == v => Left(value)
      case x @ LVar(_)         => Right(x)
      case LNot(c) =>
        cofactor(c, v, value) match {
          case Left(b)    => Left(!b)
          case Right(sub) => Right(not(sub))
        }
      case LAnd(cs) =>
        val parts = cs.map(cofactor(_, v, value))
        if (parts.exists(_ == Left(false))) Left(false)
        else {
          val remaining = parts.collect { case Right(x) => x }
          if (remaining.isEmpty) Left(true) else Right(and(remaining))
        }
      case LOr(cs) =>
        val parts = cs.map(cofactor(_, v, value))
        if (parts.exists(_ == Left(true))) Left(true)
        else {
          val remaining = parts.collect { case Right(x) => x }
          if (remaining.isEmpty) Left(false) else Right(or(remaining))
        }
    }

  /** Logical equivalence by truth-table enumeration over the union of vars.
    * Guarded at 20 variables (2^20 assignments) — ample for window formulas.
    */
  def equiv(a: Lineage, b: Lineage): Boolean = {
    val vs = (a.vars ++ b.vars).toVector
    require(vs.size <= 20, s"equiv(): too many variables (${vs.size})")
    val n = vs.size
    (0 until (1 << n)).forall { mask =>
      val assign = vs.zipWithIndex.map { case (v, i) => v -> ((mask & (1 << i)) != 0) }.toMap
      a.eval(assign) == b.eval(assign)
    }
  }

  /** Order-insensitive canonical string: sort ∧/∨ operands recursively.
    * Used by tests to compare lineages produced with different operand
    * orders (e.g. `a1&b3` vs `b3&a1`). NOT a normal form — equivalent but
    * structurally different formulas may still differ; use [[equiv]] for
    * full logical equivalence.
    */
  def canonical(l: Lineage): Lineage = l match {
    case v @ LVar(_) => v
    case LNot(c)     => LNot(canonical(c))
    case LAnd(cs)    => LAnd(cs.map(canonical).sortBy(_.render))
    case LOr(cs)     => LOr(cs.map(canonical).sortBy(_.render))
  }

  def canonicalString(s: String): String = canonical(parse(s)).render

  // ---------------------------------------------------------------- parsing

  /** Parse the string grammar documented on [[Lineage]]. */
  def parse(s: String): Lineage = {
    val p = new Parser(s)
    val e = p.expr()
    p.expectEnd()
    e
  }

  private final class Parser(s: String) {
    private var pos = 0
    private def peek: Char = if (pos < s.length) s.charAt(pos) else '\u0000'
    private def skipWs(): Unit = while (pos < s.length && s.charAt(pos).isWhitespace) pos += 1

    def expr(): Lineage = {
      var terms = Vector(term())
      skipWs()
      while (peek == '|') { pos += 1; terms :+= term(); skipWs() }
      or(terms)
    }

    def term(): Lineage = {
      var factors = Vector(factor())
      skipWs()
      while (peek == '&') { pos += 1; factors :+= factor(); skipWs() }
      and(factors)
    }

    def factor(): Lineage = {
      skipWs()
      peek match {
        case '!' => pos += 1; not(factor())
        case '(' =>
          pos += 1
          val e = expr()
          skipWs()
          require(peek == ')', s"expected ')' at $pos in '$s'")
          pos += 1
          e
        case _ => atom()
      }
    }

    def atom(): Lineage = {
      skipWs()
      val start = pos
      while (pos < s.length && isAtomChar(s.charAt(pos))) pos += 1
      require(pos > start, s"expected atom at $start in '$s'")
      LVar(s.substring(start, pos))
    }

    def expectEnd(): Unit = {
      skipWs()
      require(pos == s.length, s"trailing input at $pos in '$s'")
    }
  }
}
