"""The factored form against plain numerator/denominator arithmetic.

Every reference value here is rebuilt with RationalFunction's own + * /
operators and a termwise box limit, never through Factored, so the checks
compare two independent computations of the same rational function.
"""

import random
from fractions import Fraction

import pytest

from sgmc.algebra import Factored, Polynomial, RationalFunction, limit_at_box_zero
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import PoleAtLimit, StarOfUnit, ZeroDenominator
from sgmc.loopkleene import Concat, Epsilon, Letter, Star, Union, kleene_to_rf
from sgmc.markov import ChainGenerator, MarkovChainSpec
from sgmc.pipeline import (
    build_semigroup,
    full_report,
    normalization_holds,
    stationary,
)

rone = RationalFunction.const(1)


def plain_rf(node):
    """Kleene expression to a rational function with unreduced pair arithmetic."""
    if isinstance(node, Epsilon):
        return RationalFunction.const(1)
    if isinstance(node, Letter):
        return RationalFunction.variable(node.label)
    if isinstance(node, Concat):
        out = RationalFunction.const(1)
        for p in node.parts:
            out = out * plain_rf(p)
        return out
    if isinstance(node, Union):
        out = RationalFunction.zero()
        for p in node.parts:
            out = out + plain_rf(p)
        return out
    if isinstance(node, Star):
        f = plain_rf(node.inner)
        if f.den.constant_term() == 0 or f.num.constant_term() != 0:
            raise StarOfUnit("no geometric series")
        return rone / (rone - f)
    raise TypeError(node)


def plain_limit(r, box, elim, generators):
    """Box limit of a numerator/denominator pair, by whole-polynomial orders."""
    repl = Polynomial.const(1) - Polynomial.variable(box)
    for v in generators:
        if v != elim:
            repl = repl - Polynomial.variable(v)
    num = r.num.substitute(elim, repl)
    den = r.den.substitute(elim, repl)
    if num.is_zero():
        return RationalFunction.zero()
    j, n1 = num.divide_out(box)
    k, d1 = den.divide_out(box)
    if j < k:
        raise PoleAtLimit("pole")
    if j > k:
        return RationalFunction.zero()
    return RationalFunction(n1.set_var_zero(box), d1.set_var_zero(box))


def plain_sum(parts):
    return sum(parts, RationalFunction.zero())


def random_poly(rnd, variables, max_terms=3, max_degree=2, constant=None):
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        mono = tuple(
            sorted(
                (v, e)
                for v in variables
                if (e := rnd.randint(0, max_degree)) > 0
            )
        )
        terms[mono] = rnd.choice([1, 2, -1, Fraction(1, 2), Fraction(-3, 2)])
    p = Polynomial({m: c for m, c in terms.items() if c})
    if constant is not None:
        p = p - Polynomial.const(p.constant_term()) + Polynomial.const(constant)
    return p


def random_factored(rnd, variables):
    """(factored form, the same value as a plain pair) from random factors."""
    form = Factored(random_poly(rnd, variables))
    plain = RationalFunction(form.poly)
    for _ in range(rnd.randint(0, 3)):
        base = random_poly(rnd, variables, constant=rnd.choice([1, 2, 0]))
        if base.is_zero():
            continue
        e = rnd.choice([-2, -1, 1, 2])
        form = form * Factored.power(base, e)
        step = RationalFunction(base) if e > 0 else rone / RationalFunction(base)
        for _ in range(abs(e)):
            plain = plain * step
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
            assert (f * g).expand().equals(pf * pg)
            assert Factored.sum([f, g, f]).expand().equals(pf + pg + pf)
            assert (f - g).expand().equals(pf - pg)
            assert f.equals(pf) and (f - f).is_zero()

    def test_star_matches_plain_series(self):
        rnd = random.Random(6)
        for _ in range(30):
            f, pf = random_factored(rnd, ["a", "b"])
            if pf.den.constant_term() == 0 or pf.num.constant_term() != 0:
                with pytest.raises(StarOfUnit):
                    f.star()
                continue
            assert f.star().expand().equals(rone / (rone - pf))

    def test_shared_factor_is_not_multiplied_out(self):
        a, b = Polynomial.variable("a"), Polynomial.variable("b")
        inv = Factored.power(Polynomial.const(1) - a, -1)
        total = Factored.sum([Factored(a) * inv, Factored(b) * inv]).expand()
        assert total.num == a + b and total.den == Polynomial.const(1) - a

    def test_factors_are_interned(self):
        a = Polynomial.variable("a")
        f = Factored.power(Polynomial.const(2) - 2 * a, -1)
        g = Factored.power(Polynomial.const(1) - a, 1)
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
            assert limit_at_box_zero(f, "□", "b", gens).equals(want)
            assert limit_at_box_zero(pf, "□", "b", gens).equals(want)
            checked += 1
        assert checked >= 20


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
            assert kleene_to_rf(expr).equals(want), str(expr)


@pytest.mark.parametrize("name", ["d2.json", "d2c.json", "d2box.json", "example210.json"])
def test_bundled_chain_forms_match_plain_arithmetic(name):
    chain = load_chain_file(bundled_path(name))
    res = stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")
    masses = {element: [] for element in res.per_element}
    residual = []
    for t in res.terminals:
        plain = plain_rf(t.expression)
        assert t.psi.equals(plain), t.name
        if res.case == "general":
            plain = plain_limit(plain, res.box_var, res.elim_var, res.variables)
            assert limit_at_box_zero(
                t.psi, res.box_var, res.elim_var, res.variables
            ).equals(plain), t.name
        if t.element is None:
            residual.append(plain)
        else:
            masses[res.semigroup.name(t.element)].append(plain)
    for element, parts in masses.items():
        assert res.per_element[element].equals(plain_sum(parts)), element
    assert res.residual_mass.equals(plain_sum(residual))
    assert normalization_holds(res)


def test_pinned_slow_chain_passes_the_oracle():
    # more than 30 s with unreduced pair arithmetic
    actions = [(1, 0, 2), (1, 1, 1), (2, 0, 1)]
    spec = MarkovChainSpec(
        ("s0", "s1", "s2"),
        tuple(ChainGenerator(label, a, None) for label, a in zip("abc", actions)),
    )
    report = full_report(spec, points=3, seed=1)
    assert report.normalization
    assert [rec["outcome"] for rec in report.verification] == ["pass"] * 3
