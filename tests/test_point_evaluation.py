"""One way to read the stationary result at a point.

Every value at a point goes through ``algebra.evaluator``: each distinct
factor is evaluated once per evaluator, and the mixing reports read the
per-element masses, not the terminals.  The per-piece evaluation, the tail
summed over the terminals' path sums, the symbolic E[tau | element] and the
TV rows from Fraction powers of the transition matrix are kept here as
references, and the reports must equal them exactly on every left-zero
chain shipped with the package or the tests.
"""

import copy
import glob
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from sgmc import mixing
from sgmc.algebra import Polynomial, RationalFunction, evaluator, point_str
from sgmc.cli import _check_tail_expectation, load_chain_file
from sgmc.errors import ZeroDenominator
from sgmc.markov import TransitionMatrix, stationary_oracle, transition_matrix
from sgmc.mixing import (
    TvRow,
    expected_tau,
    expected_total,
    markov_bound,
    mixing_report,
    tail_table,
    tv_bound_check,
)
from sgmc.pipeline import build_semigroup, sample_simplex_points, stationary

import reference
from conftest import two_state_chain_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHAIN_FILES = sorted(
    glob.glob(os.path.join(ROOT, "src", "sgmc", "chains", "*.json"))
    + glob.glob(os.path.join(ROOT, "tests", "chains", "*.json"))
)
EPSILON = Fraction(1, 4)
TMAX = 12


def reference_evaluate(rf, point):
    """The value at point, one piece at a time, with nothing shared."""
    value = Fraction(1)
    for poly, e in rf.pieces():
        v = poly.evaluate(point)
        if v == 0 and e < 0:
            raise ZeroDenominator(f"denominator vanishes at {point_str(point)}")
        value *= v**e
    return value


def reference_tail_table(psis, point, tmax):
    """Pr(tau >= t) for t = 0..tmax, summed over the given path sums."""
    psis = list(psis)
    total = sum((reference_evaluate(psi, point) for psi in psis), Fraction(0))
    mass_by_degree = [Fraction(0)] * tmax
    for psi in psis:
        for degree, value in enumerate(psi.series_at(point, tmax)):
            mass_by_degree[degree] += value
    below = Fraction(0)
    tail = [1 - below / total]
    for mass in mass_by_degree:
        below += mass
        tail.append(1 - below / total)
    return tail


def reference_tv_rows(spec, point, tail):
    """TV rows from start state 0: T at point in Fractions, applied to nu
    once per row, and half the l1 distance to the oracle's eigenvector."""
    tm = transition_matrix(spec)
    matrix = reference.evaluate_matrix(tm, point)
    psi = stationary_oracle(tm, point)
    nu = [Fraction(int(i == 0)) for i in range(len(spec.states))]
    rows = []
    for t in range(TMAX + 1):
        tv = sum(abs(x - psi[s]) for x, s in zip(nu, spec.states)) / 2
        rows.append(TvRow(t, tv, tail[t + 1], tv <= tail[t + 1]))
        nu = [sum(a * x for a, x in zip(row, nu)) for row in matrix]
    return rows


def reference_expected(result, point):
    """E[tau | element] from the symbolic expected_tau, None at mass 0."""
    return {
        name: reference_evaluate(expected_tau(rf), point)
        if reference_evaluate(rf, point)
        else None
        for name, rf in sorted(result.per_element.items())
    }


def reference_report(spec, result, point):
    """mixing_report's fields, read from the terminals, one piece at a time."""
    tail = reference_tail_table([t.psi for t in result.terminals], point, TMAX + 1)
    expected = reference_expected(result, point)
    total = sum(
        (
            reference_evaluate(reference.euler(rf), point)
            for rf in result.per_element.values()
        ),
        Fraction(0),
    )
    rows = reference_tv_rows(spec, point, tail)
    return tail, expected, total, markov_bound(total, EPSILON), rows


def _left_zero_chains():
    chains = []
    for path in CHAIN_FILES:
        chain = load_chain_file(path)
        if build_semigroup(chain.spec).minimal_ideal().is_left_zero:
            chains.append(pytest.param(path, id=os.path.basename(path)))
    return chains


@pytest.fixture(scope="module")
def left_zero_runs():
    runs = {}

    def run(path):
        if path not in runs:
            spec = load_chain_file(path).spec
            runs[path] = (spec, stationary(build_semigroup(spec)))
        return runs[path]

    return run


class Unreadable:
    """Stands in for result.terminals; any read fails the test."""

    def _read(self, *args):
        raise AssertionError("terminals were read")

    __iter__ = __len__ = __getitem__ = _read


def without_terminals(result):
    blind = copy.copy(result)
    blind.terminals = Unreadable()
    return blind


def test_the_corpus_has_left_zero_chains():
    names = {os.path.basename(p.values[0]) for p in _left_zero_chains()}
    assert {"example210.json", "pinned2.json", "mixing3.json"} <= names


@pytest.mark.parametrize("path", _left_zero_chains())
def test_reports_equal_the_terminal_references(path, left_zero_runs):
    spec, result = left_zero_runs(path)
    for point in sample_simplex_points(spec.labels(), 2, seed=2024):
        tail, expected, total, bound, rows = reference_report(spec, result, point)
        report = mixing_report(spec, point, EPSILON, TMAX, result=result)
        assert report.tail == tail[: TMAX + 1]
        assert list(report.expected_by_element.items()) == list(expected.items())
        assert report.expected_total == total
        assert report.tmix_bound == bound
        assert report.tv_rows == rows
        assert tv_bound_check(spec, point, TMAX, result=result) == rows
        masses = result.per_element.values()
        assert tail_table(masses, point, TMAX + 1) == tail
        psis = [t.psi for t in result.terminals]
        assert tail_table(psis, point, TMAX + 1) == tail


@pytest.mark.parametrize("path", _left_zero_chains())
def test_tail_table_at_points_of_mixed_denominators(path, left_zero_runs):
    """The tail reads the series at the integer point a = L * point and
    divides the mass of length k by L^k; it must equal the reference at
    points of prime-power denominators, with a zero or an unused coordinate,
    and read a point of floats as the Fractions they equal."""
    spec, result = left_zero_runs(path)
    labels = spec.labels()
    masses = list(result.per_element.values())
    rnd = random.Random(31)
    for _ in range(2):
        point = {
            lab: Fraction(rnd.randint(1, 9), rnd.choice([2, 3, 5, 7]) ** rnd.randint(1, 2))
            for lab in labels
        }
        for p in (point, {**point, labels[0]: 0}, {**point, "unused": Fraction(1, 11)}):
            total = outcome(lambda: sum(reference_evaluate(rf, p) for rf in masses))
            if type(total) is tuple:  # a vanishing denominator
                want = total
            elif total:
                want = reference_tail_table(masses, p, TMAX + 1)
            else:
                want = (ZeroDenominator, f"the functions sum to 0 at {point_str(p)}")
            assert outcome(lambda: tail_table(masses, p, TMAX + 1)) == want, p
    halves = [Fraction(1, 2 ** min(i + 1, len(labels) - 1)) for i in range(len(labels))]
    exact = dict(zip(labels, halves))
    floats = {lab: float(x) for lab, x in exact.items()}
    assert tail_table(masses, floats, TMAX + 1) == tail_table(masses, exact, TMAX + 1)
    got = mixing_report(spec, floats, EPSILON, TMAX, result=result)
    want = mixing_report(spec, exact, EPSILON, TMAX, result=result)
    assert (got.tail, got.expected_total, got.tmix_bound, got.tv_rows) == (
        want.tail,
        want.expected_total,
        want.tmix_bound,
        want.tv_rows,
    )
    assert list(got.expected_by_element.items()) == list(
        want.expected_by_element.items()
    )


@pytest.mark.parametrize("path", _left_zero_chains())
def test_mixing_report_reads_values_and_scales_the_matrix_once(
    path, left_zero_runs, monkeypatch
):
    """E[tau | element] is (D Psi)(point) / Psi(point): the report builds no
    symbolic sum and no expected_tau, and scales T once for the TV rows and
    the stationary vector they compare with."""
    spec, result = left_zero_runs(path)
    points = sample_simplex_points(spec.labels(), 2, seed=4711)
    want = [reference_expected(result, point) for point in points]
    for point, expected in zip(points, want):
        value = evaluator(point)
        for name, rf in result.per_element.items():
            if expected[name] is not None:
                assert expected[name] == value(expected_tau(rf))
            else:
                assert value(rf) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a symbolic function was built")

    monkeypatch.setattr(RationalFunction, "sum", refuse)
    monkeypatch.setattr(mixing, "expected_tau", refuse)
    calls = []
    scaled = TransitionMatrix.scaled

    def counted(self, point):
        calls.append(point)
        return scaled(self, point)

    monkeypatch.setattr(TransitionMatrix, "scaled", counted)
    for point, expected in zip(points, want):
        report = mixing_report(spec, point, EPSILON, TMAX, result=result)
        assert list(report.expected_by_element.items()) == list(expected.items())
        got = report.expected_by_element.values()
        assert all(type(v) is Fraction for v in got if v is not None)
    assert calls == points


def outcome(read):
    """read()'s value, or the type and message of the error it raises."""
    try:
        return read()
    except (ZeroDenominator, ValueError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("path", _left_zero_chains())
def test_expected_total_by_the_product_rule_equals_the_euler_sum(
    path, left_zero_runs
):
    spec, result = left_zero_runs(path)
    labels = spec.labels()
    points = sample_simplex_points(labels, 2, seed=77)
    # a coordinate 0, and the all-ones point, off the simplex
    points.append({v: Fraction(int(i == 0)) for i, v in enumerate(labels)})
    points.append(dict.fromkeys(labels, 1))
    masses = list(result.per_element.values())
    for point in points:
        value = evaluator(point)
        for rf in masses:
            assert outcome(lambda: value.euler(rf)) == outcome(
                lambda: evaluator(point)(reference.euler(rf))
            )
        old = outcome(
            lambda: sum(
                (evaluator(point)(reference.euler(rf)) for rf in masses), Fraction(0)
            )
        )
        assert outcome(lambda: expected_total(masses, point)) == old


X, Y = RationalFunction.variable("x"), RationalFunction.variable("y")
F = 1 - X - Y


@pytest.mark.parametrize(
    "rf",
    [
        X / F,
        X * Y / (F * F * (1 - X * Y)),
        # vanishing factors of positive exponent: the product rule keeps
        # D(f) times the other pieces where f^1 vanishes, and drops f^2
        F * X / (1 - X * Y),
        F * F * X / (1 - X * Y),
        F * (1 + X - Y) * Y,
        RationalFunction.const(3),
        RationalFunction.zero(),
    ],
)
@pytest.mark.parametrize(
    "point",
    [
        {"x": Fraction(1, 2), "y": Fraction(1, 2)},
        {"x": Fraction(1, 3), "y": Fraction(2, 3)},
        {"x": Fraction(1, 4), "y": Fraction(1, 3)},
        {"x": 0, "y": 1},
    ],
)
def test_euler_value_and_its_errors_match_the_euler_sum(rf, point):
    value = evaluator(point)
    old = outcome(lambda: evaluator(point)(reference.euler(rf)))
    assert outcome(lambda: value.euler(rf)) == old
    # a second read finds the first one's factor values
    assert outcome(lambda: value.euler(rf)) == old
    assert outcome(lambda: expected_total([rf, rf], point)) == outcome(
        lambda: 2 * evaluator(point)(reference.euler(rf))
    )


def test_a_vanishing_denominator_names_the_point():
    point = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
    message = "^denominator vanishes at x_x=1/2, x_y=1/2$"
    with pytest.raises(ZeroDenominator, match=message):
        expected_total([X / F], point)
    with pytest.raises(ZeroDenominator, match=message):
        evaluator(point)(reference.euler(X / F))


def test_mixing_reads_no_terminal(two_state_result):
    spec = two_state_chain_spec()
    blind = without_terminals(two_state_result)
    point = {"1": Fraction(1, 2), "2": Fraction(1, 4), "3": Fraction(1, 4)}
    report = mixing_report(spec, point, EPSILON, TMAX, result=blind)
    assert report.tv_rows == tv_bound_check(spec, point, TMAX, result=blind)
    assert report.tail == tail_table(
        [t.psi for t in two_state_result.terminals], point, TMAX
    )


def test_the_verify_tail_check_still_reads_the_terminals(two_state_result):
    point = {"1": Fraction(1, 3), "2": Fraction(1, 3), "3": Fraction(1, 3)}
    _check_tail_expectation(two_state_result, point, 20)
    with pytest.raises(AssertionError, match="terminals were read"):
        _check_tail_expectation(without_terminals(two_state_result), point, 20)


@pytest.mark.parametrize("path", ["example210.json", "mixing3.json"])
def test_mixing_report_evaluates_each_distinct_factor_once_per_point(
    path, left_zero_runs, monkeypatch
):
    paths = {os.path.basename(p): p for p in CHAIN_FILES}
    spec, result = left_zero_runs(paths[path])
    masses = result.per_element.values()
    shared = {id(f.poly) for rf in masses for f in rf.factors}
    pieces = sum(len(t.psi.factors) for t in result.terminals)
    assert pieces > len(shared) > 0
    calls = []
    evaluate = Polynomial.evaluate

    def counted(self, point):
        if id(self) in shared:
            calls.append(id(self))
        return evaluate(self, point)

    monkeypatch.setattr(Polynomial, "evaluate", counted)
    points = sample_simplex_points(spec.labels(), 2, seed=5)
    for point in points:
        mixing_report(spec, point, EPSILON, TMAX, result=result)
    assert Counter(calls) == Counter({f: len(points) for f in shared})


def test_one_evaluator_reads_each_factor_once(monkeypatch):
    x, y = RationalFunction.variable("x"), RationalFunction.variable("y")
    shared = 1 / (1 - x * y)
    functions = [x * shared, y * shared, shared * shared]
    point = {"x": Fraction(1, 2), "y": Fraction(1, 3)}
    calls = []
    evaluate = Polynomial.evaluate

    def counted(self, at):
        calls.append(len(self.terms))
        return evaluate(self, at)

    monkeypatch.setattr(Polynomial, "evaluate", counted)
    value = evaluator(point)
    values = [value(rf) for rf in functions]
    monkeypatch.setattr(Polynomial, "evaluate", evaluate)
    assert values == [reference_evaluate(rf, point) for rf in functions]
    # three one-term polys and the factor 1 - x*y once
    assert sorted(calls) == [1, 1, 1, 2]


@pytest.mark.parametrize(
    "rf, point",
    [
        # a vanishing denominator
        (
            RationalFunction.variable("1")
            / (RationalFunction.variable("1") - RationalFunction.variable("2")),
            {"1": Fraction(1, 4), "2": Fraction(1, 4)},
        ),
        # a vanishing denominator behind a vanishing numerator
        (
            (RationalFunction.variable("a") - 1)
            / (1 - RationalFunction.variable("a") * RationalFunction.variable("b")),
            {"a": Fraction(1), "b": Fraction(1)},
        ),
        # a variable the point lacks, in the poly and in a factor
        (
            RationalFunction.variable("a") / (1 - RationalFunction.variable("b")),
            {"b": Fraction(1, 2)},
        ),
        (
            RationalFunction.variable("a") / (1 - RationalFunction.variable("b")),
            {"a": Fraction(1, 2)},
        ),
    ],
)
def test_errors_match_the_per_piece_reference(rf, point):
    with pytest.raises((ZeroDenominator, ValueError)) as expected:
        reference_evaluate(rf, point)
    value = evaluator(point)
    # the second read through one evaluator finds the first one's values
    for read in (lambda: value(rf), lambda: value(rf), lambda: rf.evaluate(point)):
        with pytest.raises(expected.type) as got:
            read()
        assert str(got.value) == str(expected.value)


def test_the_benchmark_tracer_installs_on_the_sources():
    """Every function the benchmark's tracer wraps still exists."""
    src, perfbench = os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")
    script = (
        "import sys\n"
        f"sys.path[:0] = [{src!r}, {perfbench!r}]\n"
        "import sgmc, tracer\n"
        f"assert sgmc.__file__.startswith({src!r}), sgmc.__file__\n"
        "tracer.Tracer().install(sgmc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
