import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sgmc
from sgmc import algebra
from sgmc.algebra import (
    Polynomial,
    RationalFunction,
    limit_at_box_zero,
    stochastic_complement,
)
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import (
    DivisionByZero,
    NonUnitDenominator,
    PoleAtLimit,
    ZeroDenominator,
)
from sgmc.pipeline import build_semigroup, stationary

import reference

xa = Polynomial.variable("a")
xb = Polynomial.variable("b")
xbox = Polynomial.variable("□")
one = Polynomial.const(1)

ra = RationalFunction.variable("a")
rb = RationalFunction.variable("b")
rbox = RationalFunction.variable("□")
rone = RationalFunction.const(1)

# denominator of the two-generator worked example, fully expanded
D2_DEN = (one - xa - xb) * (one + xa + xb) * (one - xa + xb) * (one + xa - xb)


def random_poly(rnd, variables, max_terms=5, max_exp=3):
    p = Polynomial.zero()
    for _ in range(rnd.randint(0, max_terms)):
        term = Polynomial.const(Fraction(rnd.randint(-6, 6), rnd.randint(1, 4)))
        for v in variables:
            term = term * Polynomial.variable(v) ** rnd.randint(0, max_exp)
        p = p + term
    return p


class TestPolynomial:
    def test_addition_of_variables(self):
        assert str(xa + xb) == "x_a + x_b"

    def test_difference_of_squares(self):
        assert (one - xa) * (one + xa) == one - xa * xa

    def test_four_factor_expansion(self):
        expanded = (
            one - 2 * xa**2 - 2 * xb**2 + (xa**2 - xb**2) ** 2
        )
        assert D2_DEN == expanded

    def test_canonical_form_roundtrip(self):
        rnd = random.Random(5)
        for _ in range(40):
            p = random_poly(rnd, ["a", "b"])
            q = random_poly(rnd, ["a", "b"])
            assert (p + q) - q == p

    def test_zero_coefficients_never_stored(self):
        p = xa - xa
        assert p.is_zero() and p.terms == {}

    def test_rendering_graded_lex(self):
        p = xb**2 + xa * xb + xa**2 + one - 2 * xa
        assert str(p) == "1 - 2*x_a + x_a^2 + x_a*x_b + x_b^2"

    def test_power(self):
        assert (xa + one) ** 3 == xa**3 + 3 * xa**2 + 3 * xa + one

    def test_partial_derivative(self):
        assert reference.poly_partial(xa * xb, "a") == xb
        assert reference.poly_partial(xa**3, "a") == 3 * xa**2


class TestRationalArithmetic:
    def test_add_variables(self):
        r = ra + rb
        assert r.num == xa + xb and r.den == one

    def test_reciprocal(self):
        r = rone / (rone - ra)
        assert r.num == one and r.den == one - xa

    def test_sum_is_unreduced(self):
        # the shared factor x_b is kept once, not squared by cross-multiplying
        r = ra / rb + ra / rb
        assert r.den == xb
        assert r.equals(2 * ra / rb)

    def test_divide_by_zero_function(self):
        with pytest.raises(DivisionByZero):
            rone / RationalFunction.zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction(one, Polynomial.zero())

    def test_nested_fraction_simplifies_to_closed_form(self):
        # the two-generator stationary component as the raw nested fraction
        a2, b2 = ra * ra, rb * rb
        left = a2 * b2 / ((rone - b2 / (rone - a2)) * (rone - a2))
        mid = a2 / (rone - b2 / (rone - a2))
        right = a2 * b2 / ((rone - a2 / (rone - b2)) * (rone - b2))
        last = b2 / (rone - a2 / (rone - b2))
        nested = (
            ra
            * rb
            * rbox
            / ((rone - left - mid - right - last) * (rone - a2 / (rone - b2)))
        )
        closed = ra * rb * rbox * (rone - b2) / RationalFunction(D2_DEN)
        assert nested.equals(closed)

    def test_equality_by_cross_multiplication(self):
        lhs = ra / (rone - rb)
        rhs = ra * (rone + rb) / (rone - rb * rb)
        assert lhs.equals(rhs)
        assert not ra.equals(rb)

    def test_ring_axioms_at_random_points(self):
        rnd = random.Random(11)
        for _ in range(25):
            p = random_poly(rnd, ["a", "b"], max_terms=3)
            q = random_poly(rnd, ["a", "b"], max_terms=3) + one
            r = random_poly(rnd, ["a", "b"], max_terms=3) + one
            f = RationalFunction(p, q)
            g = RationalFunction(q, r)
            point = {
                "a": Fraction(rnd.randint(1, 9), 10),
                "b": Fraction(rnd.randint(1, 9), 10),
            }
            try:
                fv, gv = f.evaluate(point), g.evaluate(point)
                assert (f + g).evaluate(point) == fv + gv
                assert (f * g).evaluate(point) == fv * gv
                if not g.is_zero() and g.evaluate(point) != 0:
                    assert (f / g).evaluate(point) == fv / gv
            except ZeroDenominator:
                continue


class TestSubstituteAndEvaluate:
    def test_linear_substitution(self):
        r = ra + rb
        s = r.substitute("b", one - xa - xbox)
        assert s.equals(rone - rbox)

    def test_substitute_to_zero(self):
        r = ra * rbox / (rone - ra)
        assert r.substitute("□", Polynomial.zero()).equals(0)

    def test_identity_generator_limit_recovers_two_generator_form(self):
        xc = Polynomial.variable("c")
        rc = RationalFunction.variable("c")
        paper = (rone + rb - rc) * (rone - rb - rc) / (8 * (ra + rb))
        at_c0 = paper.substitute("c", Polynomial.zero())
        constrained = at_c0.substitute("a", one - xb)
        assert constrained.equals((rone - rb * rb) / 8)

    def test_substitution_killing_denominator(self):
        r = rone / ra
        with pytest.raises(ZeroDenominator):
            r.substitute("a", Polynomial.zero())

    def test_evaluate_simple(self):
        r = (rone - rb * rb) / 8
        assert r.evaluate({"b": Fraction(1, 2)}) == Fraction(3, 32)

    def test_evaluate_expected_hitting_formula(self):
        x1, x2, x3 = (RationalFunction.variable(v) for v in "123")
        formula = (
            x1 / (x1 + x2 * x3)
            + 2 * x2 * x3 / (x1 + x2 * x3)
            + 2 * x3 * x3 / (rone - x3 * x3)
        )
        third = Fraction(1, 3)
        assert formula.evaluate({"1": third, "2": third, "3": third}) == Fraction(3, 2)

    def test_evaluate_against_naive_term_walk(self):
        def naive(poly, point):
            total = Fraction(0)
            for mono, coeff in poly.sorted_terms():
                val = Fraction(coeff)
                for var, exp in mono:
                    val *= Fraction(point[var]) ** exp
                total += val
            return total

        rnd = random.Random(3)
        for _ in range(10):
            p = random_poly(rnd, ["a", "b"])
            q = random_poly(rnd, ["a", "b"]) + one
            point = {
                "a": Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)),
                "b": Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)),
            }
            r = RationalFunction(p, q)
            try:
                expected = naive(p, point) / naive(q, point)
            except ZeroDivisionError:
                continue
            assert r.evaluate(point) == expected

    def test_evaluate_pole(self):
        with pytest.raises(ZeroDenominator):
            (rone / (rone - ra)).evaluate({"a": 1})

    def test_point_missing_a_variable_names_it(self):
        r = ra * rb
        for point in ({"a": Fraction(1, 2)}, {"a": 1, "c": 1}):
            with pytest.raises(ValueError, match="^point has no value for x_b$"):
                r.evaluate(point)
            with pytest.raises(ValueError, match="^point has no value for x_b$"):
                r.series_at(point, 3)


class TestPartial:
    def test_quotient_rule(self):
        r = rone / (rone - ra)
        assert reference.partial(r, "a").equals(rone / ((rone - ra) * (rone - ra)))

    def test_finite_difference_agreement(self):
        rnd = random.Random(17)
        h = Fraction(1, 10**6)
        checked = 0
        while checked < 10:
            p = random_poly(rnd, ["a", "b"], max_terms=4)
            q = random_poly(rnd, ["a", "b"], max_terms=4) + one
            r = RationalFunction(p, q)
            d = reference.partial(r, "a")
            point = {
                "a": Fraction(rnd.randint(1, 9), 10),
                "b": Fraction(rnd.randint(1, 9), 10),
            }
            up = dict(point, a=point["a"] + h)
            dn = dict(point, a=point["a"] - h)
            try:
                central = (r.evaluate(up) - r.evaluate(dn)) / (2 * h)
                exact = d.evaluate(point)
            except ZeroDenominator:
                continue
            if exact == 0:
                assert abs(float(central)) < 1e-4
            else:
                assert abs(float((central - exact) / exact)) < 1e-4
            checked += 1

    def test_log_derivative_term_of_worked_chain(self):
        # x3 * (d/dx3 r) / r for r = 1/(1-x3^2) is the 2*x3^2/(1-x3^2) term
        x3 = RationalFunction.variable("3")
        r = rone / (rone - x3 * x3)
        term = x3 * reference.partial(r, "3") / r
        assert term.equals(2 * x3 * x3 / (rone - x3 * x3))
        third = Fraction(1, 3)
        assert term.evaluate({"3": third}) == (2 * third**2) / (1 - third**2)


class TestSeries:
    def test_geometric(self):
        x = Fraction(2, 7)
        s = (rone / (rone - ra)).series_at({"a": x}, 4)
        assert s == [1, x, x**2, x**3]

    def test_two_state_component_series(self):
        x2, x3 = (RationalFunction.variable(v) for v in "23")
        p2, p3 = Fraction(1, 3), Fraction(-2, 5)
        pt = {"2": p2, "3": p3}
        r = x2 * x3 / (rone - x3 * x3)
        # strict truncation: x_2*x_3^5 has total degree 6, so it needs bound 7
        assert r.series_at(pt, 6) == [0, 0, p2 * p3, 0, p2 * p3**3, 0]
        assert r.series_at(pt, 7) == [0, 0, p2 * p3, 0, p2 * p3**3, 0, p2 * p3**5]

    def test_truncation_consistency(self):
        rnd = random.Random(23)
        for _ in range(10):
            p = random_poly(rnd, ["a", "b"], max_terms=3)
            q = random_poly(rnd, ["a", "b"], max_terms=3) + one
            r = RationalFunction(p, q)
            pt = {v: Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)) for v in "ab"}
            assert r.series_at(pt, 9)[:5] == r.series_at(pt, 5)
            assert r.series_at(pt, 0) == r.series_at(pt, -2) == []

    def test_non_unit_denominator(self):
        for bound in (4, 0):
            with pytest.raises(NonUnitDenominator):
                (rone / ra).series_at({"a": Fraction(1, 2)}, bound)


class TestBoxLimit:
    def test_pure_box_mass_vanishes(self):
        assert limit_at_box_zero(rbox, "□", "b", ["a", "b"]).equals(0)

    def test_worked_component_limit(self):
        closed = ra * rb * rbox * (rone - rb * rb) / RationalFunction(D2_DEN)
        lim = limit_at_box_zero(closed, "□", "b", ["a", "b"])
        want = ((rone - rb * rb) / 8).substitute("b", one - xa)
        assert lim.equals(want)

    def test_single_letter_component_limit(self):
        f = ra * (rone - ra * ra - rb * rb) * rbox / RationalFunction(D2_DEN)
        lim = limit_at_box_zero(f, "□", "b", ["a", "b"])
        assert lim.equals(ra / 4)

    def test_pole_detected(self):
        with pytest.raises(PoleAtLimit):
            limit_at_box_zero(rone / rbox, "□", "b", ["a", "b"])

    def test_higher_box_power_vanishes(self):
        rnd = random.Random(31)
        for _ in range(10):
            p = random_poly(rnd, ["a"], max_terms=3) + one
            q = random_poly(rnd, ["a"], max_terms=3) + one
            r = RationalFunction(p, q) * rbox
            assert limit_at_box_zero(r, "□", "b", ["a", "b"]).equals(0)


# -- a naive reference in tuple form ------------------------------------------
#
# A reference polynomial is a dict {monomial: nonzero Fraction}, a monomial
# being a tuple of (variable, exponent > 0) pairs sorted by variable name.

# First used in this order, which is not name order; some names are long.
LABELS = ["z", "□", "b", "10", "2", "a", "zeta", "1000"]


def ref_clean(terms):
    return {m: Fraction(c) for m, c in terms.items() if c}


def ref_degree(mono):
    return sum(e for _, e in mono)


def ref_mono(exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return ref_clean(out)


def ref_mul(p, q, bound=None):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = ref_mono(exps)
            if bound is None or ref_degree(m) < bound:
                out[m] = out.get(m, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(p, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_exponent(mono, var):
    return dict(mono).get(var, 0)


def ref_without(mono, var, k):
    exps = dict(mono)
    exps[var] = exps.get(var, 0) - k
    return ref_mono(exps)


def ref_substitute(p, var, value):
    out = {}
    for m, c in p.items():
        e = ref_exponent(m, var)
        term = ref_mul({ref_without(m, var, e): c}, ref_pow(value, e))
        out = ref_add(out, term)
    return out


def ref_divide_out(p, var):
    if not p:
        return 0, p
    k = min(ref_exponent(m, var) for m in p)
    return k, {ref_without(m, var, k): c for m, c in p.items()}


def ref_partial(p, var):
    return ref_clean({
        ref_without(m, var, 1): c * ref_exponent(m, var)
        for m, c in p.items()
        if ref_exponent(m, var)
    })


def ref_variables(p):
    return sorted({v for m in p for v, _ in m})


def ref_order(p):
    """The monomials of p in graded-lex order over its variables by name."""
    variables = ref_variables(p)
    return sorted(
        p,
        key=lambda m: (ref_degree(m), [-ref_exponent(m, v) for v in variables]),
    )


def ref_str(p):
    if not p:
        return "0"
    text = ""
    for m in ref_order(p):
        c = p[m]
        sign = "-" if c < 0 else "+"
        powers = [f"x_{v}^{e}" if e > 1 else f"x_{v}" for v, e in m]
        if abs(c) != 1 or not powers:
            powers.insert(0, str(abs(c)))
        body = "*".join(powers)
        if not text:
            text = body if c > 0 else "-" + body
        else:
            text += f" {sign} {body}"
    return text


def ref_evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        for v, e in m:
            c *= point[v] ** e
        total += c
    return total


def ref_degree_values(p, point, bound):
    """[value at point of the terms of p of total degree k, for k < bound]."""
    values = [Fraction(0)] * max(bound, 0)
    for m, c in p.items():
        if ref_degree(m) < bound:
            values[ref_degree(m)] += ref_evaluate({m: c}, point)
    return values


def ref_series(num, den, bound, inverses):
    """The power series of num/den to total degree < bound, as a polynomial.

    num * (1/c) * sum_k u^k with c the constant term of den and u = 1 - den/c,
    which has no constant term, so u^k has no term of degree below k: the
    sum is taken by iterated products truncated at bound.  The inverse is
    kept in inverses per (den, bound), since many path sums share a
    denominator.
    """
    key = (frozenset(den.items()), bound)
    inv = inverses.get(key)
    if inv is None:
        c = den[()]
        u = {m: -x / c for m, x in den.items() if m and ref_degree(m) < bound}
        total = power = {(): Fraction(1)} if bound > 0 else {}
        for _ in range(1, bound):
            power = ref_mul(power, u, bound)
            if not power:
                break
            total = ref_add(total, power)
        inv = inverses[key] = ref_mul(total, {(): 1 / c})
    return ref_mul(num, inv, bound)


def ref_random(rnd, variables, max_terms=5, max_exp=3):
    out = {}
    for _ in range(rnd.randint(0, max_terms)):
        exps = {v: rnd.randint(0, max_exp) for v in variables}
        c = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
        out = ref_add(out, {ref_mono(exps): c})
    return out


def from_ref(p):
    poly = Polynomial.zero()
    for m, c in p.items():
        term = Polynomial.const(c)
        for v, e in m:
            term = term * Polynomial.variable(v) ** e
        poly = poly + term
    return poly


def as_ref(poly):
    """poly in tuple form, and in the order sorted_terms lists it."""
    terms = poly.sorted_terms()
    return {m: Fraction(c) for m, c in terms}, [m for m, _ in terms]


def check(poly, p):
    """poly equals the reference p, lists it in graded-lex order and prints
    as the reference does."""
    terms, order = as_ref(poly)
    assert terms == p
    assert order == ref_order(p)
    assert str(poly) == ref_str(p)
    assert poly.variables() == ref_variables(p)
    assert poly.total_degree() == max(map(ref_degree, p), default=0)


class TestAgainstTupleReference:
    @pytest.fixture(autouse=True)
    def lanes_out_of_name_order(self):
        for v in LABELS:
            Polynomial.variable(v)
        lanes = [algebra._OFFSET[v] for v in sorted(LABELS)]
        assert lanes != sorted(lanes)

    @pytest.mark.parametrize("seed", range(40))
    def test_operations_match(self, seed):
        rnd = random.Random(seed)
        p = ref_random(rnd, rnd.sample(LABELS, 3))
        q = ref_random(rnd, rnd.sample(LABELS, 3))
        value = ref_random(rnd, rnd.sample(LABELS, 2), max_terms=3, max_exp=2)
        var = rnd.choice(LABELS)
        bound = rnd.randint(0, 8)
        n = rnd.randint(0, 3)
        P, Q, V = from_ref(p), from_ref(q), from_ref(value)

        check(P, p)
        check(P + Q, ref_add(p, q))
        check(P - Q, ref_add(p, {m: -c for m, c in q.items()}))
        check(P * Q, ref_mul(p, q))
        check(P**n, ref_pow(p, n))
        check(P.substitute(var, V), ref_substitute(p, var, value))
        check(reference.poly_partial(P, var), ref_partial(p, var))
        check(P.euler(), {m: c * ref_degree(m) for m, c in p.items() if m})
        check(
            P.set_var_zero(var),
            {m: c for m, c in p.items() if not ref_exponent(m, var)},
        )
        k, rest = P.divide_out(var)
        want_k, want_rest = ref_divide_out(p, var)
        assert k == want_k
        check(rest, want_rest)
        point = {v: Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)) for v in LABELS}
        assert P.evaluate(point) == ref_evaluate(p, point)
        for b in (bound, 10):
            assert P.degree_values(point, b) == ref_degree_values(p, point, b)

    def test_substitute_into_itself(self):
        rnd = random.Random(99)
        for _ in range(10):
            p = ref_random(rnd, ["z", "10", "a"])
            value = ref_random(rnd, ["z", "□"], max_terms=3, max_exp=2)
            check(
                from_ref(p).substitute("z", from_ref(value)),
                ref_substitute(p, "z", value),
            )

    def test_stochastic_complement(self):
        check(
            stochastic_complement("b", ["z", "b", "a"], "□"),
            {(): 1, (("z", 1),): -1, (("a", 1),): -1, (("□", 1),): -1},
        )
        check(stochastic_complement("2", ["10", "2"]), {(): 1, (("10", 1),): -1})


CORPUS = [bundled_path(f"{name}.json") for name in ("example210", "d2", "d2c", "d2box")]
CORPUS += sorted(str(p) for p in (Path(__file__).parent / "chains").glob("*.json"))


def series_points(rnd, variables):
    """A seeded rational point, the same point with one coordinate 0, a point
    of prime-power denominators with an unused coordinate, a point of
    integer-valued Fractions, all ones."""
    point = {v: Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)) for v in variables}
    zeroed = {**point, rnd.choice(variables): 0}
    mixed = {
        v: Fraction(rnd.randint(-9, 9), rnd.choice([2, 3, 5, 7, 11]) ** rnd.randint(1, 2))
        for v in variables
    }
    mixed["unused"] = Fraction(1, 13)
    whole = {v: Fraction(rnd.randint(-4, 4)) for v in variables}
    return [point, zeroed, mixed, whole, dict.fromkeys(variables, 1)]


def check_series_at(rf, num, den, rnd, bound, inverses):
    """rf = num/den reads at seeded points as the reference series does."""
    points = series_points(rnd, sorted({*LABELS, *rf.variables()}))
    if not den.get(()):
        with pytest.raises(NonUnitDenominator):
            rf.series_at(points[0], bound)
        return
    series = ref_series(num, den, bound, inverses)
    for point in points:
        assert rf.series_at(point, bound) == ref_degree_values(series, point, bound)


class TestSeriesAtAgainstReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_forms(self, seed):
        rnd = random.Random(seed)
        bound = rnd.randint(0, 8)
        parts = []
        for _ in range(2):
            num = ref_random(rnd, rnd.sample(LABELS, 2), max_terms=3, max_exp=2)
            den = ref_random(rnd, rnd.sample(LABELS, 2), max_terms=3, max_exp=2)
            den[()] = Fraction(rnd.choice([-3, -1, 1, 2]), rnd.randint(1, 4))
            parts.append((num, den))
            rf = RationalFunction(from_ref(num), from_ref(den))
            check_series_at(rf, num, den, rnd, bound, {})
        (n1, d1), (n2, d2) = parts
        product = RationalFunction(from_ref(n1), from_ref(d1)) * RationalFunction(
            from_ref(n2), from_ref(d2)
        )
        check_series_at(product, ref_mul(n1, n2), ref_mul(d1, d2), rnd, bound, {})

    def test_integer_point(self):
        ones = dict.fromkeys(["a", "b"], 1)
        assert algebra.integer_point(ones) == (1, ones)
        mixed = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": 2}
        assert algebra.integer_point(mixed) == (6, {"a": 3, "b": 2, "c": 12})
        # floats are read as Fractions, as Polynomial.evaluate reads them
        floats = {"a": 0.5, "b": 0.25, "c": 2.0}
        assert algebra.integer_point(floats) == (4, {"a": 2, "b": 1, "c": 8})
        ints = algebra.integer_point(mixed)[1].values()
        assert all(type(x) is int for x in ints)

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: Path(p).stem)
    def test_corpus_path_sums_and_masses(self, path):
        chain = load_chain_file(path)
        result = stationary(
            build_semigroup(chain.spec), box_label=chain.box_label or "□"
        )
        rnd = random.Random(71)
        rfs = [t.psi for t in result.terminals] + list(result.per_element.values())
        inverses = {}
        for rf in rfs:
            num, den = as_ref(rf.num)[0], as_ref(rf.den)[0]
            check_series_at(rf, num, den, rnd, 7, inverses)


def test_lane_order_never_reaches_a_print():
    """Lanes assigned in reverse name order leave sgmc analyze's output as pinned."""
    from test_cli_pinned import PINNED, _digest

    chain = bundled_path("d2c.json")
    program = (
        "import sys\n"
        "from sgmc import algebra\n"
        "from sgmc.cli import main\n"
        "for v in sys.argv[2:]:\n"
        "    algebra.Polynomial.variable(v)\n"
        "assert list(algebra._OFFSET) == sys.argv[2:], algebra._OFFSET\n"
        "sys.exit(main(['analyze', sys.argv[1]]))\n"
    )
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env.pop("SGMC_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sgmc.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", program, chain, "□", "c", "b", "a"],
        capture_output=True,
        env=env,
        timeout=120,
    )
    out = done.stdout.decode("utf-8")
    err = done.stderr.decode("utf-8")
    assert (done.returncode, _digest(out), _digest(err)) == PINNED["analyze d2c.json"]
