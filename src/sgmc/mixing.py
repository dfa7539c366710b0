"""Hitting-time tails, expected hitting time, and mixing bounds.

All quantities here assume the left-zero setting: the pipeline's rational
functions count ideal-hitting paths by length, term degree equals path
length, so the series terms of degree below t, summed at the point and
divided by the full value, give the hitting probability before time t.
The expected hitting time comes from the Euler operator
D = sum(x_i d/dx_i): E[tau] is the sum over the elements of (D Psi)(point),
read by the product rule from the values of Psi's pieces, and
E[tau | element] is the log-derivative (D Psi)(point) / Psi(point).  The
reports read the masses through one evaluator, each mass and its D once,
and compute values only: no symbolic function is built for a report.

The numbers are integers over one common denominator, with one Fraction
per reported value: with the point written a / L in integers, the series
term of degree k at the point is its value at a over L^k, so the tail
table sums the masses of each path length as integers; the TV rows
multiply the integer matrix L * T into an integer vector and compare it
with the stationary vector written p / P.  Inputs are checked before any
of this work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import RationalFunction, evaluator, integer_point, point_str
from .errors import NotLeftZero, ZeroDenominator
from .markov import MarkovChainSpec, scaled_stationary, transition_matrix
from .pipeline import StationaryResult, build_semigroup, stationary_left_zero
from .semigroup import DEFAULT_MAX_ELEMENTS


def tail_table(psis, point, tmax: int) -> list:
    """Pr(tau >= t) for t = 0..tmax, from path sums or from the masses they
    add up to: by linearity, both give the same table.

    The mass of each path length is the sum over the functions of their
    series terms of that degree at the point, read one function at a time;
    this avoids multiplying all the unreduced denominators together.  The
    series are read at the integer point a = L * point (see
    :func:`~sgmc.algebra.integer_point`), where the mass of length k is
    L^k times its value, so the masses add up as integers and each row of
    the table is one Fraction.
    """
    _check_tmax(tmax)
    psis = list(psis)
    return _tail(psis, point, tmax, sum(map(evaluator(point), psis), Fraction(0)))


def _check_tmax(tmax):
    if tmax < 0:
        raise ValueError(f"tmax must be nonnegative, got {tmax}")


def _tail(psis, point, tmax, total) -> list:
    """The tail table of psis, whose values at point sum to total."""
    if not total:
        raise ZeroDenominator(f"the functions sum to 0 at {point_str(point)}")
    common, scaled = integer_point(point)
    # tail[t] reads the masses of the lengths below t only
    masses = [0] * tmax  # L^k times the mass of length k
    for psi in psis:
        for degree, mass in enumerate(psi.series_at(scaled, tmax)):
            masses[degree] += mass
    # with total = n / d and B_t = L^t times the mass below t,
    # Pr(tau >= t) = 1 - B_t / (L^t * total) = (L^t n - B_t d) / (L^t n)
    n, d = total.numerator, total.denominator
    below, scale = 0, 1
    tail = [Fraction(1)]
    for mass in masses:
        below = (below + mass) * common
        scale *= common
        tail.append(Fraction(scale * n - below * d, scale * n))
    return tail


def expected_tau(psi: RationalFunction) -> RationalFunction:
    """E[tau | element] = sum_i x_i (d Psi/d x_i) / Psi for the element's
    mass Psi, as one rational function.  The reports read only its value,
    (D Psi)(point) / Psi(point), and do not build it.

    This is the sum over the pieces p^e of Psi of e * D(p) / p, where D
    multiplies each term of p by its total degree.
    """
    return RationalFunction.sum(
        RationalFunction(p.euler() * e, p) for p, e in psi.pieces()
    )


def expected_total(psis, point) -> Fraction:
    """E[tau] = sum over psi of (sum_i x_i d psi/d x_i)(point).

    Each (D psi)(point) is read by the product rule from the values of psi's
    pieces and of their Euler derivatives (the evaluator's ``euler``), with
    no division, so an element of mass 0 at the point adds 0.
    """
    return sum(map(evaluator(point).euler, psis), Fraction(0))


def _check_epsilon(epsilon) -> Fraction:
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return epsilon


def markov_bound(expected, epsilon) -> int:
    """Mixing-time bound ceil(E[tau]/epsilon) from Markov's inequality.

    At t = ceil(E/eps) the tail bound E/(t+1) is below epsilon with room to
    spare; this matches the bound quoted for the worked two-state chain.
    """
    expected = Fraction(expected)
    epsilon = _check_epsilon(epsilon)
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
    _check_start(spec, start_state)
    result = _left_zero_result(spec, result, caps)
    tail = tail_table(result.per_element.values(), point, tmax + 1)
    return _tv_rows(spec, point, tmax, start_state, tail)


def _check_start(spec, start_state):
    n = len(spec.states)
    if not 0 <= start_state < n:
        raise ValueError(f"start_state must be in 0..{n - 1}, got {start_state}")


def _left_zero_result(spec, result, caps) -> StationaryResult:
    if result is None:
        s = build_semigroup(spec, caps.pop("max_elements", DEFAULT_MAX_ELEMENTS))
        result = stationary_left_zero(s, **caps)
    if result.case != "left_zero":
        raise NotLeftZero("the TV bound applies to left-zero chains only")
    return result


def _tv_rows(spec, point, tmax, start_state, tail) -> list:
    """TV rows for t = 0..tmax against a tail table reaching t = tmax + 1.

    In integers: with T = M / L for an integer matrix M (see
    :meth:`~sgmc.markov.TransitionMatrix.scaled`) and Psi = p / P for an
    integer vector p, T^t nu = v_t / L^t with v_{t+1} = M v_t, so
    TV_t = sum_i |v_t[i] P - p_i L^t| / (2 P L^t), one Fraction per row.
    Psi is solved from a copy of the same M (see
    :func:`~sgmc.markov.scaled_stationary`), so T is scaled once.
    """
    tm = transition_matrix(spec)
    common, matrix = tm.scaled(point)
    # the solve rewrites the rows it is given; matrix stays for the powers
    psi = scaled_stationary(tm.states, common, [row[:] for row in matrix])
    big_p, p = integer_point(psi)
    v = [int(i == start_state) for i in range(len(spec.states))]
    scale = 1  # L^t
    rows = []
    for t in range(tmax + 1):
        gap = sum(abs(x * big_p - p[s] * scale) for x, s in zip(v, spec.states))
        tv = Fraction(gap, 2 * big_p * scale)
        bound = tail[t + 1]  # Pr(tau > t) = Pr(tau >= t+1)
        rows.append(TvRow(t, tv, bound, tv <= bound))
        v = [sum(a * x for a, x in zip(row, v)) for row in matrix]
        scale *= common
    return rows


@dataclass
class MixingReport:
    tail: list                    # Pr(tau >= t), t = 0..tmax
    expected_by_element: dict     # element -> E[tau | element] (Fraction), None at mass 0
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
    at the point, which the report does not repeat.

    epsilon, tmax and start_state are checked before any other work.  Each
    mass and its Euler derivative are evaluated once: the values give the
    tail's total, E[tau | element] = (D Psi) / Psi where Psi is not 0, and
    E[tau] = sum (D Psi).
    """
    epsilon = _check_epsilon(epsilon)
    _check_tmax(tmax)
    _check_start(spec, start_state)
    result = _left_zero_result(spec, result, caps)
    value = evaluator(point)
    masses = result.per_element
    values = {name: value(rf) for name, rf in masses.items()}
    eulers = {name: value.euler(rf) for name, rf in masses.items()}
    tail = _tail(masses.values(), point, tmax + 1, sum(values.values(), Fraction(0)))
    expected_by_element = {
        name: eulers[name] / values[name] if values[name] else None
        for name in sorted(masses)
    }
    total = sum(eulers.values(), Fraction(0))
    return MixingReport(
        tail=tail[: tmax + 1],
        expected_by_element=expected_by_element,
        expected_total=total,
        epsilon=epsilon,
        tmix_bound=markov_bound(total, epsilon),
        tv_rows=_tv_rows(spec, point, tmax, start_state, tail),
    )
