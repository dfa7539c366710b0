"""The normalization check, summed before the constraint is substituted.

``reference_normalization_holds`` is ``normalization_holds`` as it was
before: in the left-zero case it substitutes x_elim = 1 - sum(others) into
every part, and then sums.  Both must give the same answer, or raise the
same ZeroDenominator, on the true masses of left-zero and general chains
and of seeded random semigroups, and on masses changed so that they still
sum to 1 under the constraint, or no longer do, or sum to 1 only through a
denominator that vanishes under it.  ``full_report`` raises
VerificationFailed when the check fails, and otherwise prints "pass".
"""

import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from sgmc import pipeline
from sgmc.algebra import Polynomial, RationalFunction, stochastic_complement
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import VerificationFailed, ZeroDenominator
from sgmc.pipeline import build_semigroup, normalization_holds, stationary
from sgmc.semigroup import FiniteSemigroup

CHAINS = Path(__file__).with_name("chains")


def reference_normalization_holds(result):
    parts = [result.residual_mass, *result.per_element.values()]
    if result.case == "left_zero":
        elim = max(result.variables)
        repl = stochastic_complement(elim, result.variables)
        parts = [part.substitute(elim, repl) for part in parts]
    return RationalFunction.sum(parts).equals(1)


def outcome(check, result):
    try:
        return check(result)
    except ZeroDenominator as exc:
        return f"ZeroDenominator: {exc}"


def assert_agree(result, expected):
    assert outcome(reference_normalization_holds, result) == expected
    assert outcome(normalization_holds, result) == expected


FILES = {
    **{name: bundled_path(f"{name}.json") for name in ("d2", "d2c", "d2box", "example210")},
    **{
        name: str(CHAINS / f"{name}.json")
        for name in (
            "general4",
            "general4b",
            "general5",
            "grid4x3_3",
            "left_zero3",
            "mixing3",
            "pinned2",
        )
    },
}


def random_semigroups(seed, per_case):
    """Seeded random transformation semigroups, per_case of each ideal case."""
    rnd = random.Random(seed)
    out = {"left_zero": [], "general": []}
    while min(map(len, out.values())) < per_case:
        n = rnd.randint(2, 4)
        k = rnd.randint(2, 3)
        gens = [("abc"[i], tuple(rnd.randrange(n) for _ in range(n))) for i in range(k)]
        s = FiniteSemigroup.generate(gens)
        case = "left_zero" if s.minimal_ideal().is_left_zero else "general"
        if len(out[case]) < per_case:
            out[case].append(s)
    return {f"{case}-{i}": s for case, group in out.items() for i, s in enumerate(group)}


RANDOM = random_semigroups(31, 4)


@cache
def result_of(name):
    if name in RANDOM:
        return stationary(RANDOM[name])
    chain = load_chain_file(FILES[name])
    return stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")


NAMES = sorted(FILES) + sorted(RANDOM)


def test_both_cases_are_covered():
    cases = {result_of(name).case for name in NAMES}
    assert cases == {"left_zero", "general"}
    assert {result_of(name).case for name in RANDOM} == cases


def variable(name):
    return RationalFunction.variable(name)


def with_first_mass(result, change):
    """The result with its first element's mass changed."""
    masses = dict(result.per_element)
    first = next(iter(masses))
    masses[first] = change(masses[first])
    return replace(result, per_element=masses)


def rotated(rf, variables):
    """rf with x_v0 -> x_v1 -> ... -> x_v0, one piece at a time."""

    def rotate(poly):
        poly = poly.substitute(variables[-1], Polynomial.variable("rotating"))
        for old, new in zip(variables[-2::-1], variables[:0:-1]):
            poly = poly.substitute(old, Polynomial.variable(new))
        return poly.substitute("rotating", Polynomial.variable(variables[0]))

    return RationalFunction._product((rotate(p), e) for p, e in rf.pieces())


@pytest.mark.parametrize("name", NAMES)
def test_true_masses(name):
    assert_agree(result_of(name), True)


@pytest.mark.parametrize("name", NAMES)
def test_a_multiple_of_the_constraint(name):
    # (1 - sum x) x_a is zero under the constraint; the general masses are
    # checked with no substitution, so there it is not
    result = result_of(name)
    a = result.variables[0]
    constraint = RationalFunction(Polynomial.const(1) - sum(
        (Polynomial.variable(v) for v in result.variables), Polynomial.zero()
    ))
    changed = with_first_mass(result, lambda m: m + constraint * variable(a))
    assert_agree(changed, result.case == "left_zero")


@pytest.mark.parametrize("name", NAMES)
def test_an_added_monomial(name):
    result = result_of(name)
    a, b = result.variables[:2]
    assert_agree(with_first_mass(result, lambda m: m + variable(a) * variable(b)), False)


def on_the_simplex(variables):
    point = {v: Fraction(1, 2 ** (i + 2)) for i, v in enumerate(variables[:-1])}
    point[variables[-1]] = 1 - sum(point.values())
    return point


@pytest.mark.parametrize("name", NAMES)
def test_a_rotated_mass(name):
    # the first mass whose value on the simplex a rotation of its variables
    # changes, rotated: the masses then no longer sum to 1.  Where none
    # changes (constant masses, or one mass, which is 1 under the
    # constraint), the first one rotated still sums to 1
    result = result_of(name)
    point = on_the_simplex(result.variables)
    masses = dict(result.per_element)
    turned = {e: rotated(m, result.variables) for e, m in masses.items()}
    changed = [e for e, m in masses.items() if turned[e].evaluate(point) != m.evaluate(point)]
    element = changed[0] if changed else next(iter(masses))
    masses[element] = turned[element]
    assert_agree(replace(result, per_element=masses), not changed)


@pytest.mark.parametrize("name", NAMES)
def test_a_denominator_that_vanishes_under_the_constraint(name):
    # g/f added to a mass and taken from the residual: the sum is still 1,
    # but f = 1 - sum x vanishes where x_elim = 1 - sum(others)
    result = result_of(name)
    f = Polynomial.const(1)
    for v in result.variables:
        f = f - Polynomial.variable(v)
    g_over_f = RationalFunction(Polynomial.variable(result.variables[0]), f)
    changed = with_first_mass(result, lambda m: m + g_over_f)
    changed.residual_mass = result.residual_mass - g_over_f
    if result.case == "left_zero":
        elim = max(result.variables)
        expected = (
            f"ZeroDenominator: substituting {elim} makes the denominator"
            " identically zero"
        )
    else:
        expected = True
    assert_agree(changed, expected)


@pytest.mark.parametrize("case", ["left_zero", "general"])
def test_the_pair_alone(case):
    # masses 1 + g/f and -g/f, with no other part
    f = Polynomial.const(1) - Polynomial.variable("a") - Polynomial.variable("b")
    g_over_f = RationalFunction(Polynomial.variable("a"), f)
    result = replace(
        result_of("left_zero3" if case == "left_zero" else "general4"),
        variables=["a", "b"],
        per_element={"u": 1 + g_over_f, "v": -g_over_f},
        residual_mass=RationalFunction.zero(),
    )
    expected = True
    if case == "left_zero":
        expected = "ZeroDenominator: substituting b makes the denominator identically zero"
    assert (result.per_element["u"] + result.per_element["v"]).equals(1)
    assert_agree(result, expected)


def test_full_report_raises_when_normalization_fails(monkeypatch):
    spec = load_chain_file(bundled_path("d2.json")).spec
    assert pipeline.report_dict(pipeline.full_report(spec))["normalization"] == "pass"
    monkeypatch.setattr(pipeline, "normalization_holds", lambda result: False)
    with pytest.raises(
        VerificationFailed, match="^per-element masses do not sum to one$"
    ):
        pipeline.full_report(spec)
