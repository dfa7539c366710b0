"""Point evaluation, products and sums against the term-by-term arithmetic
they replace.

``Polynomial.evaluate`` sums in integers over one common denominator,
``RationalFunction.product`` multiplies its parts in one pass, and
``RationalFunction.sum`` adds the addends of one factor signature before
multiplying anything out.  Each is checked here against a reference written
in this file: a Fraction walk over the terms, left-to-right multiplication,
and the flat sum that lifts every addend on its own.  Products and sums must
give the same form (poly and factor exponents), not only the same value.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from sgmc import expansions, loopkleene
from sgmc.algebra import Polynomial, RationalFunction, limit_at_box_zero
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import ZeroDenominator
from sgmc.expansions import simple_path_edges
from sgmc.pipeline import build_semigroup, stationary

CHAINS = Path(__file__).with_name("chains")
BUNDLED = ("d2", "d2c", "d2box", "example210")
LOCAL = ("general4", "grid4x3_3", "left_zero3", "mixing3", "pinned2")
PATHS = [bundled_path(f"{name}.json") for name in BUNDLED] + [
    str(CHAINS / f"{name}.json") for name in LOCAL
]
VARIABLES = ("a", "b", "c")


def chain_result(path):
    chain = load_chain_file(path)
    return chain, stationary(
        build_semigroup(chain.spec), box_label=chain.box_label or "□"
    )


def random_poly(rnd, max_terms=6, max_degree=4):
    """Fraction and int coefficients on several denominators."""
    poly = Polynomial.zero()
    for _ in range(rnd.randint(1, max_terms)):
        c = rnd.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 12)])
        term = Polynomial.const(c)
        for v in VARIABLES:
            term = term * Polynomial.variable(v) ** rnd.randint(0, max_degree)
        poly = poly + term
    return poly


# -- point evaluation ----------------------------------------------------------


def walked_value(poly, point):
    """The value as a Fraction walk over the terms, one Fraction per step."""
    total = Fraction(0)
    for mono, c in poly.sorted_terms():
        term = Fraction(c)
        for v, e in mono:
            term *= Fraction(point[v]) ** e
        total += term
    return total


COORDINATES = [
    0, 1, -2, 5, Fraction(1, 2), Fraction(-3, 7), Fraction(10, 9), "3/4", "-1/6", "2"
]


def test_evaluate_matches_a_fraction_walk_on_random_polynomials():
    rnd = random.Random(16)
    for _ in range(300):
        poly = random_poly(rnd)
        point = {v: rnd.choice(COORDINATES) for v in VARIABLES}
        value = poly.evaluate(point)
        assert type(value) is Fraction
        assert value == walked_value(poly, point), (str(poly), point)


def test_evaluate_zero_and_constant_polynomials():
    assert Polynomial.zero().evaluate({}) == 0
    assert type(Polynomial.zero().evaluate({})) is Fraction
    for c in (1, -4, Fraction(-3, 4), Fraction(5, 2)):
        value = Polynomial.const(c).evaluate({"a": "1/3"})
        assert type(value) is Fraction and value == c
    # terms that cancel at the point give an exact zero
    p = Polynomial.variable("a") * 2 - Polynomial.variable("b")
    assert p.evaluate({"a": Fraction(1, 6), "b": "1/3"}) == 0


def test_evaluate_rational_function_raises_at_a_pole():
    a, b = Polynomial.variable("a"), Polynomial.variable("b")
    rf = RationalFunction(a, a - b * 2)
    with pytest.raises(ZeroDenominator, match="denominator vanishes"):
        rf.evaluate({"a": "2/3", "b": Fraction(1, 3)})
    assert rf.evaluate({"a": 1, "b": 0}) == 1


# -- products --------------------------------------------------------------------


def chained(parts):
    """Left-to-right multiplication, one part at a time: the polys
    multiplied, the factor exponents added, and a factor dropped whenever
    its exponent reaches 0."""
    poly, factors = Polynomial.const(1), {}
    for p in parts:
        poly = poly * p.poly
        for f, e in p.factors.items():
            factors[f] = factors.get(f, 0) + e
            if not factors[f]:
                del factors[f]
    return RationalFunction._form(poly, factors)


def assert_same_form(rf, ref):
    assert rf.poly == ref.poly
    assert rf.factors == ref.factors
    assert (str(rf.num), str(rf.den)) == (str(ref.num), str(ref.den))


def product_parts(g, stars, first, edges, last):
    parts = [first]
    for eid in edges:
        _, label, dst = g.edges[eid]
        parts += [RationalFunction.variable(label), stars[dst]]
    return [p for p in parts + [last] if p is not None]


@pytest.mark.parametrize("path", PATHS, ids=BUNDLED + LOCAL)
def test_path_and_loop_products_match_chained_multiplication(path):
    _, result = chain_result(path)
    mc = result.mc
    unique = simple_path_edges(mc)
    stars = loopkleene.loop_stars(mc)
    # a first part of several terms takes the general route
    several = RationalFunction(Polynomial.variable("a") + Fraction(1, 2))
    for t in result.terminals:
        path = unique[t.vertex]
        for first in (stars[mc.root], several):
            parts = (first, loopkleene._product(mc, stars, path, None))
            got = RationalFunction.product(p for p in parts if p is not None)
            ref = chained(product_parts(mc, stars, first, path, None))
            assert_same_form(got, ref)
            if first is stars[mc.root]:
                assert_same_form(t.psi, ref)
    for v in range(mc.n_vertices()):
        for body, closing in expansions._loops(mc, unique, v):
            last = RationalFunction.variable(closing)
            got = loopkleene._product(mc, stars, body, last)
            assert_same_form(got, chained(product_parts(mc, stars, None, body, last)))


def test_product_of_random_forms_and_of_zero():
    rnd = random.Random(17)
    pool = [random_poly(rnd, max_terms=3, max_degree=2) + 1 for _ in range(4)]
    for _ in range(100):
        parts = []
        for _ in range(rnd.randint(0, 5)):
            form = RationalFunction(random_poly(rnd, max_terms=rnd.choice([1, 1, 3])))
            for _ in range(rnd.randint(0, 2)):
                e = rnd.choice([-2, -1, 1])
                form = form * RationalFunction.power(rnd.choice(pool), e)
            parts.append(form)
        assert_same_form(RationalFunction.product(parts), chained(parts))
        parts.insert(rnd.randint(0, len(parts)), RationalFunction.zero())
        assert RationalFunction.product(parts).is_zero()
    assert_same_form(RationalFunction.product([]), RationalFunction.const(1))


# -- sums ------------------------------------------------------------------------


def flat_sum(parts):
    """Every addend lifted on its own to the smallest exponent of each
    factor, clipped at 0, and the lifted polynomials added; a lone addend
    is its own sum."""
    parts = [p for p in parts if not p.is_zero()]
    if len(parts) == 1:
        return parts[0]
    lowest = {}
    for p in parts:
        for f, e in p.factors.items():
            lowest[f] = min(lowest.get(f, 0), e)
    total = Polynomial.zero()
    for p in parts:
        term = p.poly
        for f in set(lowest) | set(p.factors):
            term = term * f.poly ** (p.factors.get(f, 0) - lowest.get(f, 0))
        total = total + term
    if total.is_zero():
        return RationalFunction.zero()
    return RationalFunction._form(total, {f: e for f, e in lowest.items() if e})


def random_forms(rnd, pool, count, signatures=None):
    """count factored forms over a pool of factors; with signatures, each
    form takes one of that many fixed factor dicts."""
    fixed = [
        {rnd.choice(pool): rnd.choice([-2, -1, 1]) for _ in range(rnd.randint(0, 3))}
        for _ in range(signatures or 0)
    ]
    out = []
    for _ in range(count):
        form = RationalFunction(random_poly(rnd, max_terms=3, max_degree=2))
        exponents = rnd.choice(fixed) if fixed else {
            rnd.choice(pool): rnd.choice([-2, -1, 1]) for _ in range(rnd.randint(0, 3))
        }
        for base, e in exponents.items():
            form = form * RationalFunction.power(base, e)
        out.append(form)
    return out


def assert_sum_is_flat(parts):
    got = RationalFunction.sum(parts)
    assert_same_form(got, flat_sum(parts))
    return got


def test_grouped_sum_matches_the_flat_sum_on_random_forms():
    rnd = random.Random(18)
    pool = [random_poly(rnd, max_terms=3, max_degree=2) + 1 for _ in range(5)]
    for _ in range(60):
        parts = random_forms(rnd, pool, rnd.randint(0, 12), rnd.choice([None, 1, 2, 4]))
        assert_sum_is_flat(parts)


def test_grouped_sum_with_addends_that_cancel():
    rnd = random.Random(19)
    pool = [random_poly(rnd, max_terms=3, max_degree=2) + 1 for _ in range(5)]
    for _ in range(40):
        parts = random_forms(rnd, pool, rnd.randint(1, 6), rnd.choice([None, 2]))
        cancelling = random_forms(rnd, pool, rnd.randint(1, 3))
        mixed = parts + [-p for p in cancelling] + cancelling
        rnd.shuffle(mixed)
        assert_sum_is_flat(mixed)
        # a signature whose addends cancel still sets the lowest exponents
        assert_sum_is_flat(cancelling + [-p for p in cancelling] + parts[:1])
        assert assert_sum_is_flat(cancelling + [-p for p in cancelling]).is_zero()


def test_grouped_sum_with_one_signature_for_all_addends():
    rnd = random.Random(20)
    pool = [random_poly(rnd, max_terms=3, max_degree=2) + 1 for _ in range(3)]
    for _ in range(30):
        parts = random_forms(rnd, pool, rnd.randint(2, 10), signatures=1)
        got = assert_sum_is_flat(parts)
        if not got.is_zero() and all(e < 0 for e in parts[0].factors.values()):
            # the shared factors are never multiplied out
            assert got.factors == parts[0].factors


@pytest.mark.parametrize("path", PATHS, ids=BUNDLED + LOCAL)
def test_grouped_sum_matches_the_flat_sum_on_chain_masses(path):
    chain, result = chain_result(path)
    groups = {}
    for t in result.terminals:
        mass = t.psi
        if result.case == "general":
            mass = limit_at_box_zero(
                t.psi, result.box_var, result.elim_var, result.variables
            )
        groups.setdefault(t.element, []).append(mass)
    for element, masses in groups.items():
        got = assert_sum_is_flat(masses)
        if element is not None and result.case == "left_zero":
            assert_same_form(got, result.per_element[result.semigroup.name(element)])
