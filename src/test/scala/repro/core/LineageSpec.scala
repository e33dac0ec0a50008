package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Unit tests for the lineage engine: grammar, canonical rendering,
  * logical equivalence and exact probability valuation.
  */
class LineageSpec extends AnyFunSuite {

  private def p(s: String) = Lineage.parse(s)

  // ------------------------------------------------------------ parsing

  test("parse atom")            { assert(p("a1") == LVar("a1")) }
  test("parse atom with symbols") { assert(p("w_12.3:x#y-z") == LVar("w_12.3:x#y-z")) }
  test("parse conjunction")     { assert(p("a1&b2") == LAnd(Vector(LVar("a1"), LVar("b2")))) }
  test("parse disjunction")     { assert(p("a1|b2") == LOr(Vector(LVar("a1"), LVar("b2")))) }
  test("parse negated atom")    { assert(p("!a1") == LNot(LVar("a1"))) }
  test("parse negated group")   { assert(p("!(a|b)") == LNot(LOr(Vector(LVar("a"), LVar("b"))))) }
  test("and binds tighter than or") {
    assert(p("a&b|c") == LOr(Vector(LAnd(Vector(LVar("a"), LVar("b"))), LVar("c"))))
  }
  test("parens override precedence") {
    assert(p("a&(b|c)") == LAnd(Vector(LVar("a"), LOr(Vector(LVar("b"), LVar("c"))))))
  }
  test("nested and flattens")   { assert(p("a&(b&c)") == LAnd(Vector(LVar("a"), LVar("b"), LVar("c")))) }
  test("nested or flattens")    { assert(p("a|(b|c)") == LOr(Vector(LVar("a"), LVar("b"), LVar("c")))) }
  test("double negation cancels via smart constructor") {
    assert(Lineage.not(Lineage.not(LVar("a"))) == LVar("a"))
  }
  test("whitespace tolerated")  { assert(p(" a1 & ! b2 ") == p("a1&!b2")) }
  test("parse rejects trailing garbage") {
    assertThrows[IllegalArgumentException](p("a1)"))
  }
  test("parse rejects empty atom") {
    assertThrows[IllegalArgumentException](p("a1&"))
  }
  test("parse rejects unbalanced paren") {
    assertThrows[IllegalArgumentException](p("(a1"))
  }

  // ---------------------------------------------------------- rendering

  test("render atom")           { assert(p("a1").render == "a1") }
  test("render and")            { assert(p("a1&b2").render == "a1&b2") }
  test("render or")             { assert(p("a1|b2").render == "a1|b2") }
  test("render not-atom without parens") { assert(p("!a1").render == "!a1") }
  test("render not-group with parens")   { assert(p("!(a1|b2)").render == "!(a1|b2)") }
  test("render or under and with parens") { assert(p("a&(b|c)").render == "a&(b|c)") }
  test("paper lineage renders as in Fig. 1b") {
    val l = Lineage.andNot(LVar("a1"), Lineage.or(Seq(LVar("b3"), LVar("b2"))))
    assert(l.render == "a1&!(b3|b2)")
  }
  test("roundtrip render∘parse is identity on renders") {
    val samples = Seq("a", "!a", "a&b", "a|b", "a&!b", "a&!(b|c)", "a&(b|c)&!d",
      "!(a&b)", "a|b&c", "(a|b)&(c|d)", "!(a|!(b&c))")
    samples.foreach { s =>
      val r = p(s).render
      assert(p(r).render == r, s"sample $s")
    }
  }

  // -------------------------------------------------------- equivalence

  test("equiv: commutativity of and") { assert(Lineage.equiv(p("a&b"), p("b&a"))) }
  test("equiv: commutativity of or")  { assert(Lineage.equiv(p("a|b"), p("b|a"))) }
  test("equiv: De Morgan and")  { assert(Lineage.equiv(p("!(a&b)"), p("!a|!b"))) }
  test("equiv: De Morgan or")   { assert(Lineage.equiv(p("!(a|b)"), p("!a&!b"))) }
  test("equiv: absorption")     { assert(Lineage.equiv(p("a|(a&b)"), p("a"))) }
  test("equiv: distribution")   { assert(Lineage.equiv(p("a&(b|c)"), p("a&b|a&c"))) }
  test("equiv: double negation") { assert(Lineage.equiv(p("!(!a)"), p("a"))) }
  test("not equiv: a vs b")     { assert(!Lineage.equiv(p("a"), p("b"))) }
  test("not equiv: a&b vs a|b") { assert(!Lineage.equiv(p("a&b"), p("a|b"))) }
  test("not equiv: a&!b vs a")  { assert(!Lineage.equiv(p("a&!b"), p("a"))) }

  // ------------------------------------------------------------- vars

  test("vars of nested formula") { assert(p("a&!(b|c&a)").vars == Set("a", "b", "c")) }

  // ------------------------------------------------------- canonical

  test("canonical sorts and-operands")  { assert(Lineage.canonicalString("b&a") == "a&b") }
  test("canonical sorts or-operands")   { assert(Lineage.canonicalString("c|a|b") == "a|b|c") }
  test("canonical recurses under not")  { assert(Lineage.canonicalString("!(c|b)") == "!(b|c)") }
  test("canonical is stable")           {
    val c = Lineage.canonicalString("x&!(z|y)&w")
    assert(Lineage.canonicalString(c) == c)
  }

  // ------------------------------------------------------ probability

  private val probs = Map("a" -> 0.7, "b" -> 0.6, "c" -> 0.9, "d" -> 0.2)

  test("prob of atom")          { assert(p("a").prob(probs) == 0.7) }
  test("prob of negation")      { assert(math.abs(p("!a").prob(probs) - 0.3) < 1e-12) }
  test("prob of independent and") { assert(math.abs(p("a&b").prob(probs) - 0.42) < 1e-12) }
  test("prob of independent or") {
    assert(math.abs(p("a|b").prob(probs) - (1 - 0.3 * 0.4)) < 1e-12)
  }
  test("prob of contradiction is 0") { assert(p("a&!a").prob(probs) == 0.0) }
  test("prob of tautology is 1")     { assert(p("a|!a").prob(probs) == 1.0) }
  test("prob of paper Fig. 1b row [5,6)") {
    // a1 ∧ ¬(b3 ∨ b2) with p(a1)=0.7, p(b3)=0.7, p(b2)=0.6 → 0.084
    val l = p("a1&!(b3|b2)")
    val m = Map("a1" -> 0.7, "b3" -> 0.7, "b2" -> 0.6)
    assert(math.abs(l.prob(m) - 0.084) < 1e-12)
  }
  test("prob with shared vars uses Shannon expansion: a&b | a&c") {
    // P = P(a) * (1 - (1-P(b))(1-P(c)))
    val expected = 0.7 * (1 - 0.4 * 0.1)
    assert(math.abs(p("a&b|a&c").prob(probs) - expected) < 1e-12)
  }
  test("prob of xor-like shared formula") {
    // a&!b | !a&b
    val expected = 0.7 * 0.4 + 0.3 * 0.6
    assert(math.abs(p("a&!b|!a&b").prob(probs) - expected) < 1e-12)
  }
  test("prob matches brute-force enumeration on random formulas") {
    val rnd = new Random(42)
    val vars = Vector("a", "b", "c", "d")
    def randomFormula(depth: Int): Lineage =
      if (depth == 0 || rnd.nextInt(3) == 0) LVar(vars(rnd.nextInt(vars.size)))
      else rnd.nextInt(3) match {
        case 0 => Lineage.and(Seq(randomFormula(depth - 1), randomFormula(depth - 1)))
        case 1 => Lineage.or(Seq(randomFormula(depth - 1), randomFormula(depth - 1)))
        case 2 => Lineage.not(randomFormula(depth - 1))
      }
    def brute(l: Lineage): Double = {
      val vs = l.vars.toVector
      (0 until (1 << vs.size)).map { mask =>
        val assign = vs.zipWithIndex.map { case (v, i) => v -> ((mask & (1 << i)) != 0) }.toMap
        if (l.eval(assign)) assign.map { case (v, tv) => if (tv) probs(v) else 1 - probs(v) }.product
        else 0.0
      }.sum
    }
    (1 to 60).foreach { i =>
      val f = randomFormula(3)
      assert(math.abs(f.prob(probs) - brute(f)) < 1e-9, s"formula ${f.render} (case $i)")
    }
  }
  test("equiv matches eval on all assignments for random formula pairs") {
    val rnd = new Random(7)
    val vars = Vector("a", "b", "c")
    def rf(depth: Int): Lineage =
      if (depth == 0 || rnd.nextInt(3) == 0) LVar(vars(rnd.nextInt(vars.size)))
      else rnd.nextInt(3) match {
        case 0 => Lineage.and(Seq(rf(depth - 1), rf(depth - 1)))
        case 1 => Lineage.or(Seq(rf(depth - 1), rf(depth - 1)))
        case 2 => Lineage.not(rf(depth - 1))
      }
    (1 to 40).foreach { _ =>
      val (f, g) = (rf(2), rf(2))
      val vs = (f.vars ++ g.vars).toVector
      val allEqual = (0 until (1 << vs.size)).forall { mask =>
        val assign = vs.zipWithIndex.map { case (v, i) => v -> ((mask & (1 << i)) != 0) }.toMap
        f.eval(assign) == g.eval(assign)
      }
      assert(Lineage.equiv(f, g) == allEqual, s"${f.render} vs ${g.render}")
    }
  }

  // ---------------------------------------------- concatenation functions

  test("andL flattens nested conjunctions") {
    assert(Lineage.andL(p("a&b"), p("c")).render == "a&b&c")
  }
  test("andNot on atoms") { assert(Lineage.andNot(p("a"), p("b")).render == "a&!b") }
  test("andNot on disjunction parenthesizes") {
    assert(Lineage.andNot(p("a"), p("b|c")).render == "a&!(b|c)")
  }
  test("or dedups identical operands") {
    assert(Lineage.or(Seq(p("a"), p("a"), p("b"))).render == "a|b")
  }

  // ---------------------------------------------- window lineage functions

  private def astAnd(a: String, b: String) = Lineage.andL(p(a), p(b)).render
  private def astAndNotOr(a: String, bs: Seq[String]) =
    Lineage.andNot(p(a), Lineage.or(bs.map(p))).render

  test("overlapping and negating equal the formula rendering on base-tuple ids") {
    val rnd = new Random(11)
    // letters, digits and every other atom character
    val chars = "aZé09_.:#-"
    def id() = Iterator.fill(1 + rnd.nextInt(4))(chars(rnd.nextInt(chars.length))).mkString
    (1 to 500).foreach { i =>
      // a small pool, so operands repeat: a == b, repeated disjuncts, a among bs
      val pool = Vector.fill(1 + rnd.nextInt(4))(id())
      def pick() = pool(rnd.nextInt(pool.size))
      val (a, b) = (pick(), pick())
      val bs = Vector.fill(1 + rnd.nextInt(5))(pick())
      val probs = pool.map(_ -> rnd.nextDouble()).toMap
      assert(pool.forall(Lineage.isAtom), s"case $i")
      // the valuation is exact: it equals Lineage.prob of the composed lineage
      val (oLin, oP) = Lineage.overlapping(a, probs(a), b, probs(b))
      assert(oLin == astAnd(a, b), s"$a ∧ $b (case $i)")
      assert(math.abs(oP - p(oLin).prob(probs)) < 1e-12, s"P($a ∧ $b) (case $i)")
      val (nLin, nP) = Lineage.negating(a, probs(a), bs, bs.map(probs))
      assert(nLin == astAndNotOr(a, bs), s"$a ∧ ¬∨$bs (case $i)")
      assert(math.abs(nP - p(nLin).prob(probs)) < 1e-12, s"P($a ∧ ¬∨$bs) (case $i)")
    }
    assert(Lineage.overlapping("r-1.a:b#2", 0.5, "r-1.a:b#2", 0.5) == ("r-1.a:b#2", 0.5))
    assert(Lineage.overlapping("r-1.a:b#2", 0.5, "s_3", 0.25) == ("r-1.a:b#2&s_3", 0.125))
    assert(Lineage.negating("a", 0.5, Seq("b", "b"), Seq(0.5, 0.5)) == ("a&!b", 0.25))
    assert(Lineage.negating("a", 0.5, Seq("b", "a", "b", "c"), Seq(0.5, 0.5, 0.5, 0.5)) == ("a&!(b|a|c)", 0.0))
  }

  test("overlapping and negating equal the formula rendering on derived lineage") {
    val derived = Seq("a&b", "a|b", "!a", "(a)", " a ", "a&(b|c)")
    val all = derived ++ Seq("a", "b", "c")
    derived.foreach(d => assert(!Lineage.isAtom(d), d))
    val probs = Map("a" -> 0.5, "b" -> 0.25, "c" -> 0.75)
    def pr(x: String) = p(x).prob(probs)
    // `compose` renders `want` and values it as Lineage.prob does, unless
    // derived operands share a base tuple: then it is rejected, naming it
    def check(operands: Seq[String], want: String)(compose: => (String, Double)): Unit = {
      val vars = operands.flatMap(p(_).vars)
      if (operands.forall(Lineage.isAtom) || vars.distinct == vars) {
        val (lin, prob) = compose
        assert(lin == want, operands)
        assert(math.abs(prob - p(want).prob(probs)) < 1e-12, s"P($want)")
      } else {
        val e = intercept[IllegalArgumentException](compose)
        val shared = vars.diff(vars.distinct).distinct.sorted.mkString(", ")
        assert(e.getMessage.contains(s"share base tuples $shared"), e.getMessage)
      }
    }
    for (x <- all; y <- all) {
      check(Seq(x, y), astAnd(x, y))(Lineage.overlapping(x, pr(x), y, pr(y)))
      check(Seq(x, y), astAndNotOr(x, Seq(y)))(Lineage.negating(x, pr(x), Seq(y), Seq(pr(y))))
      // a repeated disjunct counts once
      check(x +: Seq(y, "c").distinct, astAndNotOr(x, Seq(y, "c", y)))(
        Lineage.negating(x, pr(x), Seq(y, "c", y), Seq(y, "c", y).map(pr)))
    }
  }

  test("overlapping and negating reject malformed lineage as parse does") {
    Seq("", "a&", "a b", "a)").foreach { bad =>
      assert(!Lineage.isAtom(bad))
      assertThrows[IllegalArgumentException](Lineage.overlapping(bad, 0.5, "b", 0.5))
      assertThrows[IllegalArgumentException](Lineage.overlapping("a", 0.5, bad, 0.5))
      assertThrows[IllegalArgumentException](Lineage.negating(bad, 0.5, Seq("b"), Seq(0.5)))
      assertThrows[IllegalArgumentException](Lineage.negating("a", 0.5, Seq("b", bad), Seq(0.5, 0.5)))
    }
    // a negating window has at least one match
    assertThrows[IllegalArgumentException](Lineage.negating("a", 0.5, Nil, Nil))
  }
}
