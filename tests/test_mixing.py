import random
from fractions import Fraction
from pathlib import Path

import pytest

from sgmc import mixing
from sgmc.algebra import RationalFunction
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import NotLeftZero, ZeroDenominator
from sgmc.markov import (
    ChainGenerator,
    MarkovChainSpec,
    TransitionMatrix,
    stationary_oracle,
    transition_matrix,
    tv_distance,
)
from sgmc.mixing import (
    expected_tau,
    markov_bound,
    mixing_report,
    tail_table,
    tv_bound_check,
)

from sgmc.pipeline import build_semigroup, stationary

import reference
from conftest import d2_chain_spec, two_state_chain_spec

one = RationalFunction.const(1)
UNIFORM = {"1": Fraction(1, 3), "2": Fraction(1, 3), "3": Fraction(1, 3)}


def absorption_tail_by_walk(semigroup, probs, tmax):
    """Pr(tau >= t) by exact dynamic programming over semigroup elements.

    Walks all letter sequences at once: mass on non-ideal elements evolves by
    right multiplication, anything landing in the minimal ideal is absorbed.
    Independent of the series machinery.
    """
    ideal = semigroup.minimal_ideal().members
    gen_probs = [(semigroup.gens[lab], p) for lab, p in probs.items()]
    mass = {semigroup.identity_id: Fraction(1)}
    tails = [Fraction(1)]  # t = 0
    for _ in range(tmax):
        tails.append(sum(mass.values(), Fraction(0)))
        nxt = {}
        for e, m in mass.items():
            for g, p in gen_probs:
                target = semigroup.mul(e, g)
                if target in ideal:
                    continue
                nxt[target] = nxt.get(target, Fraction(0)) + m * p
        mass = nxt
    return tails[: tmax + 1]


@pytest.fixture(scope="module")
def two_state_psis(two_state_result):
    return [t.psi for t in two_state_result.terminals]


class TestHittingTail:
    def test_zero_time(self, two_state_result):
        psi = two_state_result.per_element["1"]
        assert tail_table([psi], UNIFORM, 0)[0] == 1

    def test_single_edge_path(self):
        psi = RationalFunction.variable("a")
        assert tail_table([psi], {"a": Fraction(1)}, 2)[2] == 0
        assert tail_table([psi], {"a": Fraction(1)}, 1)[1] == 1

    def test_matches_absorption_walk(self, two_state_semigroup, two_state_psis):
        tails = tail_table(two_state_psis, UNIFORM, 12)
        oracle = absorption_tail_by_walk(two_state_semigroup, UNIFORM, 12)
        assert tails == oracle

    def test_monotone_nonincreasing(self, two_state_psis):
        tails = tail_table(two_state_psis, UNIFORM, 15)
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[0] == 1

    @pytest.mark.parametrize("tmax", [0, 1, 12])
    def test_series_read_only_below_tmax(
        self, two_state_semigroup, two_state_psis, monkeypatch, tmax
    ):
        # tail[tmax] needs the masses of the lengths below tmax only
        bounds = []
        series_at = RationalFunction.series_at

        def recorded(self, point, bound):
            bounds.append(bound)
            return series_at(self, point, bound)

        monkeypatch.setattr(RationalFunction, "series_at", recorded)
        tails = tail_table(two_state_psis, UNIFORM, tmax)
        assert tails == absorption_tail_by_walk(two_state_semigroup, UNIFORM, tmax)
        assert bounds == [tmax] * len(two_state_psis)

    def test_negative_tmax_is_refused(self, two_state_psis):
        with pytest.raises(ValueError, match="tmax must be nonnegative"):
            tail_table(two_state_psis, UNIFORM, -2)

    def test_functions_summing_to_zero_name_the_point(self):
        psi = RationalFunction.variable("a") * RationalFunction.variable("b")
        point = {"a": Fraction(0), "b": Fraction(1)}
        with pytest.raises(ZeroDenominator, match="^the functions sum to 0 at x_a=0, x_b=1$"):
            tail_table([psi], point, 2)

    def test_off_balance_point(self, two_state_semigroup, two_state_psis):
        point = {"1": Fraction(1, 2), "2": Fraction(1, 4), "3": Fraction(1, 4)}
        tails = tail_table(two_state_psis, point, 10)
        assert tails == absorption_tail_by_walk(two_state_semigroup, point, 10)


class TestExpectedTau:
    def test_two_state_formula(self, two_state_result):
        x1, x2, x3 = (RationalFunction.variable(v) for v in "123")
        formula = (
            x1 / (x1 + x2 * x3)
            + 2 * x2 * x3 / (x1 + x2 * x3)
            + 2 * x3 * x3 / (one - x3 * x3)
        )
        e1 = expected_tau(two_state_result.per_element["1"])
        assert e1.equals(formula)
        assert e1.evaluate(UNIFORM) == Fraction(3, 2)
        e2 = expected_tau(two_state_result.per_element["2"])
        assert e2.evaluate(UNIFORM) == Fraction(3, 2)

    def test_single_edge(self):
        assert expected_tau(RationalFunction.variable("a")).equals(1)

    def test_truncated_tail_sum_converges(self, two_state_psis):
        tails = tail_table(two_state_psis, UNIFORM, 200)
        partial = sum(tails[1:], Fraction(0))
        assert partial <= Fraction(3, 2)
        assert Fraction(3, 2) - partial < Fraction(1, 10**6)

    def test_degree_weighted_series_identity(self, two_state_result):
        # sum_i x_i dPsi/dx_i has series terms of degree k equal to k times
        # those of Psi, at every point
        psi = two_state_result.per_element["1"]
        euler = RationalFunction.zero()
        for v in psi.variables():
            euler = euler + RationalFunction.variable(v) * reference.partial(psi, v)
        rnd = random.Random(5)
        points = [UNIFORM] + [
            {v: Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) for v in "123"}
            for _ in range(2)
        ]
        for pt in points:
            left = euler.series_at(pt, 40)
            right = psi.series_at(pt, 40)
            assert len(left) == len(right) == 40
            for k in range(40):
                assert left[k] == k * right[k]


class TestMarkovBound:
    def test_worked_value(self):
        assert markov_bound(Fraction(3, 2), Fraction(1, 2)) == 3

    def test_zero_expectation(self):
        assert markov_bound(0, Fraction(1, 2)) == 0

    def test_exact_division(self):
        assert markov_bound(5, Fraction(1, 4)) == 20

    def test_rounding_up(self):
        assert markov_bound(Fraction(7, 3), Fraction(1, 2)) == 5

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            markov_bound(1, 1)


class TestTvBound:
    def test_two_state_chain(self, two_state_result):
        rows = tv_bound_check(
            two_state_chain_spec(), UNIFORM, 10, result=two_state_result
        )
        assert len(rows) == 11
        assert all(row.holds for row in rows)

    def test_large_time_tail_zero_forces_tv_zero(self):
        # deterministic absorption in one step: tail vanishes from t=1 on
        spec = MarkovChainSpec(
            ("p",), (ChainGenerator("a", (0,), Fraction(1)),)
        )
        rows = tv_bound_check(spec, {"a": Fraction(1)}, 5)
        for row in rows:
            assert row.tv == 0
            if row.t >= 1:
                assert row.tail_bound == 0

    def test_rejects_non_left_zero(self, d2_result):
        with pytest.raises(NotLeftZero):
            tv_bound_check(
                d2_chain_spec(),
                {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                5,
                result=d2_result,
            )

    @pytest.mark.parametrize("start_state", [7, 2, -1])
    def test_rejects_a_start_that_is_not_a_state(self, two_state_result, start_state):
        with pytest.raises(ValueError, match="start_state"):
            tv_bound_check(
                two_state_chain_spec(),
                UNIFORM,
                5,
                start_state=start_state,
                result=two_state_result,
            )
        with pytest.raises(ValueError, match="start_state"):
            mixing_report(
                two_state_chain_spec(),
                UNIFORM,
                Fraction(1, 2),
                5,
                start_state=start_state,
                result=two_state_result,
            )

    def test_report_bundle(self, two_state_result):
        rep = mixing_report(
            two_state_chain_spec(),
            UNIFORM,
            Fraction(1, 2),
            8,
            result=two_state_result,
        )
        assert rep.tmix_bound == 3
        assert rep.expected_total == Fraction(3, 2)
        assert rep.tail[0] == 1
        assert all(row.holds for row in rep.tv_rows)


def test_point_missing_a_label_names_it():
    spec = load_chain_file(bundled_path("example210.json")).spec
    point = {"1": Fraction(1, 2), "2": Fraction(1, 2)}
    with pytest.raises(ValueError, match="^point has no value for x_3$"):
        mixing_report(spec, point, Fraction(1, 4), 3)


def reference_tv_rows(spec, point, tmax, start_state):
    """TV(T^t nu, Psi) for t = 0..tmax, by Fraction matrix powers."""
    matrix = reference.evaluate_matrix(transition_matrix(spec), point)
    psi = stationary_oracle(transition_matrix(spec), point)
    n = len(spec.states)
    nu = [Fraction(int(i == start_state)) for i in range(n)]
    out = []
    for _ in range(tmax + 1):
        out.append(tv_distance(dict(zip(spec.states, nu)), psi))
        nu = [sum(matrix[i][j] * nu[j] for j in range(n)) for i in range(n)]
    return out


@pytest.mark.parametrize(
    "path, points",
    [
        (
            bundled_path("example210.json"),
            [UNIFORM, {"1": Fraction(1, 2), "2": Fraction(1, 3), "3": Fraction(1, 6)}],
        ),
        (
            str(Path(__file__).parent / "chains" / "mixing3.json"),
            [{"a": Fraction(1, 3), "b": Fraction(2, 3)}, {"a": Fraction(5, 7), "b": Fraction(2, 7)}],
        ),
    ],
    ids=["example210", "mixing3"],
)
def test_tv_rows_match_fraction_matrix_powers(path, points):
    spec = load_chain_file(path).spec
    semigroup = build_semigroup(spec)
    result = stationary(semigroup)
    tmax = 10
    for point in points:
        tails = absorption_tail_by_walk(semigroup, point, tmax + 1)
        for start in range(len(spec.states)):
            rows = tv_bound_check(spec, point, tmax, start_state=start, result=result)
            tvs = reference_tv_rows(spec, point, tmax, start)
            assert [row.t for row in rows] == list(range(tmax + 1))
            assert [row.tv for row in rows] == tvs
            assert [row.tail_bound for row in rows] == tails[1:]
            assert [row.holds for row in rows] == [
                tv <= bound for tv, bound in zip(tvs, tails[1:])
            ]
            assert all(type(row.tv) is Fraction for row in rows)


@pytest.mark.parametrize(
    "epsilon, tmax, start_state, message",
    [
        (Fraction(0), 5, 0, "^epsilon must lie strictly between 0 and 1$"),
        (Fraction(1), 5, 0, "^epsilon must lie strictly between 0 and 1$"),
        (Fraction(-1, 2), 5, 0, "^epsilon must lie strictly between 0 and 1$"),
        (Fraction(3, 2), 5, 0, "^epsilon must lie strictly between 0 and 1$"),
        (Fraction(1, 2), -1, 0, "^tmax must be nonnegative, got -1$"),
        (Fraction(1, 2), 5, 2, r"^start_state must be in 0\.\.1, got 2$"),
        (Fraction(1, 2), 5, -1, r"^start_state must be in 0\.\.1, got -1$"),
    ],
)
@pytest.mark.parametrize("given_result", [True, False], ids=["result", "no-result"])
def test_inputs_are_refused_before_any_series_or_matrix_work(
    two_state_result, monkeypatch, epsilon, tmax, start_state, message, given_result
):
    calls = []
    for owner, name in [
        (RationalFunction, "series_at"),
        (TransitionMatrix, "scaled"),
        (mixing, "build_semigroup"),
    ]:
        original = getattr(owner, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
    result = two_state_result if given_result else None
    spec = two_state_chain_spec()
    with pytest.raises(ValueError, match=message):
        mixing_report(
            spec, UNIFORM, epsilon, tmax, start_state=start_state, result=result
        )
    if start_state != 0:
        with pytest.raises(ValueError, match=message):
            tv_bound_check(spec, UNIFORM, tmax, start_state=start_state, result=result)
    assert calls == []
    # the same calls go through with valid inputs
    mixing_report(spec, UNIFORM, Fraction(1, 2), 5, result=result)
    assert {"series_at", "scaled"} <= set(calls)
