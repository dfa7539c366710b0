"""The integer eigenvector oracle against a Fraction Gauss-Jordan reference.

``reference_oracle`` is the rational elimination on T - I that
``stationary_oracle`` used before it ran in integers: evaluate T at the
point, check the column sums, normalise each pivot row, and read the
nullspace vector off the reduced rows.  Both must return equal dicts, or
raise the same error with the same message.
"""

import random
from fractions import Fraction

import pytest

from sgmc.errors import NotIrreducible, NotStochastic
from sgmc.markov import (
    ChainGenerator,
    MarkovChainSpec,
    stationary_oracle,
    transition_matrix,
)

import reference


def reference_oracle(tm, point):
    t = reference.evaluate_matrix(tm, point)
    n = len(t)
    for j in range(n):
        if sum(t[i][j] for i in range(n)) != 1:
            raise NotStochastic(f"column {tm.states[j]!r} does not sum to 1")
    a = [[t[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    if len(pivots) != n - 1:
        raise NotIrreducible(
            f"nullspace of T - I has dimension {n - len(pivots)}, expected 1"
        )
    free = next(c for c in range(n) if c not in pivots)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for r, col in enumerate(pivots):
        x[col] = -a[r][free]
    total = sum(x)
    if total == 0:
        raise NotIrreducible("eigenvector has zero total mass")
    return {tm.states[i]: x[i] / total for i in range(n)}


def outcome(oracle, tm, point):
    """The oracle's dict, or the type and message of what it raised."""
    try:
        return oracle(tm, point)
    except (NotIrreducible, NotStochastic) as exc:
        return type(exc), str(exc)


def spec_of(actions):
    n = len(actions[0])
    return MarkovChainSpec(
        tuple(f"s{i}" for i in range(n)),
        tuple(ChainGenerator("abc"[g], tuple(a), None) for g, a in enumerate(actions)),
    )


def two_closed_classes(rnd):
    """States {0, 1} and {2, 3} closed under every generator."""
    actions = []
    for _ in range(rnd.randint(1, 3)):
        actions.append(
            [rnd.randrange(2), rnd.randrange(2), 2 + rnd.randrange(2), 2 + rnd.randrange(2)]
        )
    return actions


def random_point(rnd, labels, stochastic=True):
    """Positive rationals on the labels; they sum to 1 only if stochastic."""
    weights = [rnd.randint(1, 12) for _ in labels]
    total = sum(weights) + (0 if stochastic else rnd.randint(1, 5))
    return {lab: Fraction(w, total) for lab, w in zip(labels, weights)}


def test_integer_oracle_matches_the_fraction_reference():
    rnd = random.Random(19)
    seen = {"dict": 0, NotIrreducible: 0, NotStochastic: 0}
    for trial in range(300):
        if trial % 10 == 0:
            actions = two_closed_classes(rnd)
        else:
            n = rnd.randint(1, 6)
            actions = [
                [rnd.randrange(n) for _ in range(n)] for _ in range(rnd.randint(1, 3))
            ]
        spec = spec_of(actions)
        tm = transition_matrix(spec)
        point = random_point(rnd, spec.labels(), stochastic=trial % 7 != 3)
        want = outcome(reference_oracle, tm, point)
        got = outcome(stationary_oracle, tm, point)
        assert got == want, (actions, point)
        if isinstance(want, dict):
            assert list(got) == list(want)
            seen["dict"] += 1
        else:
            seen[want[0]] += 1
    assert seen["dict"] >= 200
    assert seen[NotIrreducible] >= 20
    assert seen[NotStochastic] >= 20


def test_oracle_with_a_zero_probability_and_integer_coordinates():
    spec = spec_of([[1, 2, 0], [0, 0, 1]])
    tm = transition_matrix(spec)
    for point in ({"a": 1, "b": 0}, {"a": Fraction(0), "b": Fraction(1)}):
        assert outcome(stationary_oracle, tm, point) == outcome(
            reference_oracle, tm, point
        )


def test_two_closed_classes_are_not_irreducible():
    spec = spec_of([[1, 0, 3, 2], [0, 0, 2, 2]])
    point = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    with pytest.raises(NotIrreducible, match=r"^nullspace of T - I has dimension 2"):
        stationary_oracle(transition_matrix(spec), point)


def test_non_stochastic_point_names_the_column():
    spec = spec_of([[1, 0], [1, 1]])
    point = {"a": Fraction(1, 2), "b": Fraction(1, 3)}
    with pytest.raises(NotStochastic, match=r"^column 's0' does not sum to 1$"):
        stationary_oracle(transition_matrix(spec), point)
