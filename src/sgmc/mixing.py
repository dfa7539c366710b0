"""Hitting-time tails, expected hitting time, and mixing bounds.

All quantities here assume the left-zero setting: the pipeline's rational
functions count ideal-hitting paths by length, term degree equals path
length, so the series terms of degree below t, summed at the point and
divided by the full value, give the hitting probability before time t.
The expected hitting time comes from the Euler operator
D = sum(x_i d/dx_i): E[tau] is the sum over the elements of (D Psi)(point),
and E[tau | element] is the log-derivative D Psi / Psi, one factor of Psi
at a time.  The reports read the masses through one evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import RationalFunction, evaluator, point_str
from .errors import NotLeftZero, ZeroDenominator
from .markov import (
    MarkovChainSpec,
    stationary_oracle,
    transition_matrix,
    tv_distance,
)
from .pipeline import StationaryResult, build_semigroup, stationary_left_zero
from .semigroup import DEFAULT_MAX_ELEMENTS


def hitting_tail(psi: RationalFunction, t: int, point: dict) -> Fraction:
    """Pr(tau >= t) = 1 - Psi^{<t}(point) / Psi(point)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return tail_table([psi], point, t)[t]


def tail_table(psis, point, tmax: int) -> list:
    """Pr(tau >= t) for t = 0..tmax, from path sums or from the masses they
    add up to: by linearity, both give the same table.

    The mass of each path length is the sum over the functions of their
    series terms of that degree at the point, read one function at a time;
    this avoids multiplying all the unreduced denominators together.
    """
    return _tail(psis, point, tmax, evaluator(point))


def _tail(psis, point, tmax, value) -> list:
    if tmax < 0:
        raise ValueError(f"tmax must be nonnegative, got {tmax}")
    psis = list(psis)
    total = sum(map(value, psis), Fraction(0))
    if not total:
        raise ZeroDenominator(f"the functions sum to 0 at {point_str(point)}")
    # tail[t] reads the masses of the lengths below t only
    mass_by_degree = [Fraction(0)] * tmax
    for psi in psis:
        for degree, mass in enumerate(psi.series_at(point, tmax)):
            mass_by_degree[degree] += mass
    below = Fraction(0)
    tail = [1 - below / total]
    for mass in mass_by_degree:
        below += mass
        tail.append(1 - below / total)
    return tail


def expected_tau(psi: RationalFunction) -> RationalFunction:
    """E[tau | element] = sum_i x_i (d Psi/d x_i) / Psi for the element's
    mass Psi, as one rational function.

    This is the sum over the pieces p^e of Psi of e * D(p) / p, where D
    multiplies each term of p by its total degree.
    """
    return RationalFunction.sum(
        RationalFunction(p.euler() * e, p) for p, e in psi.pieces()
    )


def expected_total(psis, point) -> Fraction:
    """E[tau] = sum over psi of (sum_i x_i d psi/d x_i)(point).

    There is no division, so an element of mass 0 at the point adds 0.
    """
    return _expected_total(psis, evaluator(point))


def _expected_total(psis, value) -> Fraction:
    return sum((value(psi.euler()) for psi in psis), Fraction(0))


def markov_bound(expected, epsilon) -> int:
    """Mixing-time bound ceil(E[tau]/epsilon) from Markov's inequality.

    At t = ceil(E/eps) the tail bound E/(t+1) is below epsilon with room to
    spare; this matches the bound quoted for the worked two-state chain.
    """
    expected = Fraction(expected)
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if expected < 0:
        raise ValueError("expected hitting time must be nonnegative")
    if expected == 0:
        return 0
    q = expected / epsilon
    return -(-q.numerator // q.denominator)


@dataclass
class TvRow:
    t: int
    tv: Fraction
    tail_bound: Fraction   # Pr(tau > t)
    holds: bool


def tv_bound_check(
    spec: MarkovChainSpec,
    point: dict,
    tmax: int,
    start_state: int = 0,
    result: StationaryResult = None,
    **caps,
) -> list:
    """Exact check of TV(T^t nu, Psi) <= Pr(tau > t) for t = 0..tmax.

    Matrix powers and the stationary vector are exact rationals; nu is the
    point mass at start_state.  Requires a left-zero minimal ideal.
    """
    result = _left_zero_result(spec, result, caps)
    tail = tail_table(result.per_element.values(), point, tmax + 1)
    return _tv_rows(spec, point, tmax, start_state, tail)


def _left_zero_result(spec, result, caps) -> StationaryResult:
    if result is None:
        s = build_semigroup(spec, caps.pop("max_elements", DEFAULT_MAX_ELEMENTS))
        result = stationary_left_zero(s, **caps)
    if result.case != "left_zero":
        raise NotLeftZero("the TV bound applies to left-zero chains only")
    return result


def _tv_rows(spec, point, tmax, start_state, tail) -> list:
    """TV rows for t = 0..tmax against a tail table reaching t = tmax + 1."""
    n = len(spec.states)
    if not 0 <= start_state < n:
        raise ValueError(f"start_state must be in 0..{n - 1}, got {start_state}")
    tm = transition_matrix(spec)
    matrix = tm.evaluate(point)
    psi = stationary_oracle(tm, point)
    nu = [Fraction(1) if i == start_state else Fraction(0) for i in range(n)]
    rows = []
    for t in range(tmax + 1):
        dist = {spec.states[i]: nu[i] for i in range(n)}
        tv = tv_distance(dist, psi)
        bound = tail[t + 1]  # Pr(tau > t) = Pr(tau >= t+1)
        rows.append(TvRow(t, tv, bound, tv <= bound))
        nu = [
            sum(matrix[i][j] * nu[j] for j in range(n)) for i in range(n)
        ]
    return rows


@dataclass
class MixingReport:
    tail: list                    # Pr(tau >= t), t = 0..tmax
    expected_by_element: dict     # element -> (RationalFunction, value or None at mass 0)
    expected_total: Fraction
    epsilon: Fraction
    tmix_bound: int
    tv_rows: list                 # TvRow list, t = 0..tmax


def mixing_report(
    spec: MarkovChainSpec,
    point: dict,
    epsilon,
    tmax: int,
    start_state: int = 0,
    result: StationaryResult = None,
    **caps,
) -> MixingReport:
    """Tail table, conditional and total E[tau], Markov bound and ASST rows
    at the point, which the report does not repeat."""
    result = _left_zero_result(spec, result, caps)
    value = evaluator(point)
    tail = _tail(result.per_element.values(), point, tmax + 1, value)
    expected_by_element = {}
    for name, rf in sorted(result.per_element.items()):
        e_rf = expected_tau(rf)
        expected_by_element[name] = (e_rf, value(e_rf) if value(rf) else None)
    total = _expected_total(result.per_element.values(), value)
    bound = markov_bound(total, epsilon)
    rows = _tv_rows(spec, point, tmax, start_state, tail)
    return MixingReport(
        tail=tail[: tmax + 1],
        expected_by_element=expected_by_element,
        expected_total=total,
        epsilon=Fraction(epsilon),
        tmix_bound=bound,
        tv_rows=rows,
    )
