"""The factored rational functions against plain numerator/denominator pairs.

Every reference value here is a (num, den) pair of polynomials combined by
cross-multiplication, with a whole-polynomial box limit, all written in
this file; the checks compare two independent computations of the same
rational function.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from sgmc.algebra import Polynomial, RationalFunction, limit_at_box_zero
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import PoleAtLimit, StarOfUnit, ZeroDenominator
from sgmc.loopkleene import Concat, Epsilon, Letter, Star, Union, kleene_to_rf
from sgmc.markov import ChainGenerator, MarkovChainSpec
from sgmc.mixing import expected_tau
from sgmc.pipeline import (
    build_semigroup,
    full_report,
    normalization_holds,
    stationary,
)

import reference

CHAINS = Path(__file__).with_name("chains")
ONE = Polynomial.const(1)
ZERO = (Polynomial.zero(), ONE)


def add(p, q):
    return (p[0] * q[1] + q[0] * p[1], p[1] * q[1])


def sub(p, q):
    return add(p, (-q[0], q[1]))


def mul(p, q):
    return (p[0] * q[0], p[1] * q[1])


def same(rf, pair):
    """rf and the pair are the same function, by cross-multiplication."""
    return rf.num * pair[1] == pair[0] * rf.den


def plain_rf(node):
    """Kleene expression to a (num, den) pair with unreduced arithmetic."""
    if isinstance(node, Epsilon):
        return (ONE, ONE)
    if isinstance(node, Letter):
        return (Polynomial.variable(node.label), ONE)
    if isinstance(node, Concat):
        out = (ONE, ONE)
        for p in node.parts:
            out = mul(out, plain_rf(p))
        return out
    if isinstance(node, Union):
        out = ZERO
        for p in node.parts:
            out = add(out, plain_rf(p))
        return out
    if isinstance(node, Star):
        num, den = plain_rf(node.inner)
        if den.constant_term() == 0 or num.constant_term() != 0:
            raise StarOfUnit("no geometric series")
        return (den, den - num)
    raise TypeError(node)


def plain_limit(pair, box, elim, generators):
    """Box limit of a (num, den) pair, by whole-polynomial orders."""
    repl = ONE - Polynomial.variable(box)
    for v in generators:
        if v != elim:
            repl = repl - Polynomial.variable(v)
    num, den = (p.substitute(elim, repl) for p in pair)
    if den.is_zero():
        raise ZeroDenominator("denominator vanishes")
    if num.is_zero():
        return ZERO
    j, n1 = num.divide_out(box)
    k, d1 = den.divide_out(box)
    if j < k:
        raise PoleAtLimit("pole")
    if j > k:
        return ZERO
    return (n1.set_var_zero(box), d1.set_var_zero(box))


def plain_sum(parts):
    out = ZERO
    for p in parts:
        out = add(out, p)
    return out


def quotient_rule(num, den, var):
    """d(num/den)/d var as the pair (num' den - num den', den^2)."""
    d = reference.poly_partial
    return (d(num, var) * den - num * d(den, var), den * den)


def random_poly(rnd, variables, max_terms=3, max_degree=2, constant=None):
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        exps = tuple(rnd.randint(0, max_degree) for _ in variables)
        c = rnd.choice([1, 2, -1, Fraction(1, 2), Fraction(-3, 2)])
        term = Polynomial.const(c)
        for v, e in zip(variables, exps):
            term = term * Polynomial.variable(v) ** e
        terms[exps] = term  # a repeated monomial replaces the earlier term
    p = sum(terms.values(), Polynomial.zero())
    if constant is not None:
        p = p - Polynomial.const(p.constant_term()) + Polynomial.const(constant)
    return p


def random_factored(rnd, variables):
    """(factored form, the same value as a plain pair) from random factors."""
    poly = random_poly(rnd, variables)
    form = RationalFunction(poly)
    plain = (poly, ONE)
    for _ in range(rnd.randint(0, 3)):
        base = random_poly(rnd, variables, constant=rnd.choice([1, 2, 0]))
        if base.is_zero():
            continue
        e = rnd.choice([-2, -1, 1, 2])
        form = form * RationalFunction.power(base, e)
        step = (base, ONE) if e > 0 else (ONE, base)
        for _ in range(abs(e)):
            plain = mul(plain, step)
    return form, plain


def random_free(rnd, depth):
    """A random Kleene expression whose language does not contain ε."""
    kind = rnd.choice(["letter"] + ["concat", "union"] * (depth > 0))
    if kind == "letter":
        return Letter(rnd.choice("abc"))
    if kind == "union":
        return Union(tuple(random_free(rnd, depth - 1) for _ in range(rnd.randint(2, 3))))
    parts = [random_free(rnd, depth - 1)]
    parts += [random_any(rnd, depth - 1) for _ in range(rnd.randint(1, 2))]
    rnd.shuffle(parts)
    return Concat(tuple(parts))


def random_any(rnd, depth):
    if depth > 0 and rnd.random() < 0.4:
        return Star(random_free(rnd, depth - 1))
    return random_free(rnd, depth)


class TestOperations:
    def test_product_sum_star_match_plain_arithmetic(self):
        rnd = random.Random(5)
        for _ in range(40):
            f, pf = random_factored(rnd, ["a", "b"])
            g, pg = random_factored(rnd, ["a", "b"])
            assert same(f * g, mul(pf, pg))
            assert same(RationalFunction.sum([f, g, f]), plain_sum([pf, pg, pf]))
            assert same(f - g, sub(pf, pg))
            assert same(f, pf) and (f - f).is_zero()

    def test_star_matches_plain_series(self):
        rnd = random.Random(6)
        for _ in range(30):
            f, (num, den) = random_factored(rnd, ["a", "b"])
            if den.constant_term() == 0 or num.constant_term() != 0:
                with pytest.raises(StarOfUnit):
                    f.star()
                continue
            assert same(f.star(), (den, den - num))

    def test_shared_factor_is_not_multiplied_out(self):
        a, b = Polynomial.variable("a"), Polynomial.variable("b")
        inv = RationalFunction.power(ONE - a, -1)
        total = RationalFunction.sum([RationalFunction(a) * inv, RationalFunction(b) * inv])
        assert total.num == a + b and total.den == ONE - a

    def test_factors_are_interned(self):
        a = Polynomial.variable("a")
        f = RationalFunction.power(Polynomial.const(2) - 2 * a, -1)
        g = RationalFunction.power(ONE - a, 1)
        assert (f * g).equals(Fraction(1, 2))
        assert not (f * g).factors

    def test_box_limit_matches_plain_limit(self):
        rnd = random.Random(7)
        gens = ["a", "b"]
        checked = 0
        for _ in range(60):
            f, pf = random_factored(rnd, ["a", "b", "□"])
            try:
                want = plain_limit(pf, "□", "b", gens)
            except (PoleAtLimit, ZeroDenominator) as exc:
                with pytest.raises(type(exc)):
                    limit_at_box_zero(f, "□", "b", gens)
                continue
            assert same(limit_at_box_zero(f, "□", "b", gens), want)
            # the pair as one quotient, its denominator kept as one factor
            assert same(limit_at_box_zero(RationalFunction(*pf), "□", "b", gens), want)
            checked += 1
        assert checked >= 20


def _masses(path):
    chain = load_chain_file(path)
    res = stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")
    return res.case, res.per_element


def _check_calculus(psi, variables):
    """partial and expected_tau against the quotient rule on psi.num/psi.den."""
    num, den = psi.num, psi.den
    euler = Polynomial.zero()
    for var in variables:
        d = quotient_rule(num, den, var)
        assert reference.partial(psi, var).equals(RationalFunction(*d)), var
        dnum, dden = (reference.poly_partial(p, var) for p in (num, den))
        euler = euler + Polynomial.variable(var) * (dnum * den - num * dden)
    if not psi.is_zero():
        assert expected_tau(psi).equals(RationalFunction(euler, num * den))


class TestCalculus:
    def test_random_forms_match_the_quotient_rule(self):
        rnd = random.Random(13)
        for _ in range(40):
            f, pf = random_factored(rnd, ["a", "b"])
            _check_calculus(f, ["a", "b"])
            for var in "ab":
                assert same(reference.partial(f, var), quotient_rule(*pf, var))

    @pytest.mark.parametrize(
        "path, case",
        [
            (bundled_path("example210.json"), "left_zero"),
            (bundled_path("d2c.json"), "general"),
            (str(CHAINS / "general4.json"), "general"),
        ],
        ids=["example210", "d2c", "general4"],
    )
    def test_stationary_masses_match_the_quotient_rule(self, path, case):
        got, masses = _masses(path)
        assert got == case
        for psi in masses.values():
            _check_calculus(psi, psi.variables())

    def test_evaluate_matches_num_over_den(self):
        rnd = random.Random(17)
        values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
        vanished = 0
        for _ in range(60):
            f, _pf = random_factored(rnd, ["a", "b"])
            point = {"a": rnd.choice(values), "b": rnd.choice(values)}
            den = f.den.evaluate(point)
            if den == 0:
                vanished += 1
                with pytest.raises(ZeroDenominator):
                    f.evaluate(point)
                continue
            assert f.evaluate(point) == f.num.evaluate(point) / den
        assert vanished >= 1

    def test_evaluate_with_a_vanishing_factor(self):
        a = Polynomial.variable("a")
        pole = RationalFunction(a) * RationalFunction.power(ONE - a, -1)
        with pytest.raises(ZeroDenominator, match="x_a=1"):
            pole.evaluate({"a": Fraction(1)})
        root = RationalFunction.power(ONE - a, 2) / RationalFunction.variable("b")
        assert root.evaluate({"a": Fraction(1), "b": Fraction(2)}) == 0
        assert root.evaluate({"a": Fraction(3), "b": Fraction(2)}) == 2


class TestKleene:
    def test_random_expressions_match_plain_conversion(self):
        rnd = random.Random(11)
        for _ in range(60):
            expr = random_any(rnd, 4)
            try:
                want = plain_rf(expr)
            except StarOfUnit:
                with pytest.raises(StarOfUnit):
                    kleene_to_rf(expr)
                continue
            assert same(kleene_to_rf(expr), want), str(expr)


@pytest.mark.parametrize("name", ["d2.json", "d2c.json", "d2box.json", "example210.json"])
def test_bundled_chain_forms_match_plain_arithmetic(name):
    chain = load_chain_file(bundled_path(name))
    res = stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")
    masses = {element: [] for element in res.per_element}
    residual = []
    for t in res.terminals:
        plain = plain_rf(t.expression)
        assert same(t.psi, plain), t.name
        if res.case == "general":
            plain = plain_limit(plain, res.box_var, res.elim_var, res.variables)
            assert same(
                limit_at_box_zero(t.psi, res.box_var, res.elim_var, res.variables),
                plain,
            ), t.name
        if t.element is None:
            residual.append(plain)
        else:
            masses[res.semigroup.name(t.element)].append(plain)
    for element, parts in masses.items():
        assert same(res.per_element[element], plain_sum(parts)), element
    assert same(res.residual_mass, plain_sum(residual))
    assert normalization_holds(res)


def test_pinned_slow_chain_passes_the_oracle():
    # more than 30 s with unreduced pair arithmetic
    actions = [(1, 0, 2), (1, 1, 1), (2, 0, 1)]
    spec = MarkovChainSpec(
        ("s0", "s1", "s2"),
        tuple(ChainGenerator(label, a, None) for label, a in zip("abc", actions)),
    )
    report = full_report(spec, points=3, seed=1)
    assert [rec["outcome"] for rec in report.verification] == ["pass"] * 3
