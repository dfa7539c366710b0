"""Classical Markov-chain side: transition matrix, ergodicity, exact
eigenvector solve (the oracle), Monte Carlo simulation, TV distance.

A chain is specified by named states and labelled generators; generator ``a``
moves state ``s`` to ``action_a[s]`` (left action) with probability ``x_a``,
so the transition matrix is T = sum_a x_a P_a, P_a the 0/1 matrix of a's
action; it is held as the actions and read only at a point.
All computations are exact: the eigenvector solve eliminates in Python
integers on the transition matrix scaled by the lcm of the point's
denominators (:meth:`TransitionMatrix.scaled`; the mixing TV rows scale
once and solve a copy with :func:`scaled_stationary`), and makes a
Fraction only for each state's mass; floating point appears only inside
the random number generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import integer_point
from .errors import NotIrreducible, NotStochastic
from .expansions import RootedGraph, scc

# Simulation RNG: numpy PCG64 seeded directly; letters are drawn by comparing
# raw 64-bit outputs against floor(2^64 * cumulative probability) thresholds,
# so the sampler is exact to 2^-64 and reproducible across platforms.  When
# splitting trials across workers, derive child seeds with
# numpy.random.SeedSequence(seed).spawn(n); this module runs single-threaded.
# numpy is imported by simulate alone, so importing sgmc does not load it.


@dataclass(frozen=True)
class ChainGenerator:
    label: str
    action: tuple           # left action on state indices
    prob: Fraction | None   # None means symbolic


@dataclass(frozen=True)
class MarkovChainSpec:
    states: tuple
    generators: tuple       # ChainGenerator

    def labels(self):
        return [g.label for g in self.generators]

    def numeric_point(self) -> dict:
        """The declared probabilities as an evaluation point; requires all numeric."""
        if any(g.prob is None for g in self.generators):
            raise ValueError("chain has symbolic probabilities; pass a point")
        return {g.label: g.prob for g in self.generators}


@dataclass
class TransitionMatrix:
    """T = sum over generators x of x_x P_x, where P_x is the 0/1 matrix of
    x's action: P_x[i][j] = 1 exactly when action[j] = i."""

    states: tuple
    actions: dict  # label -> action tuple, as in ChainGenerator.action

    def scaled(self, point: dict):
        """(L, L * T at point as rows of integers), L the lcm of the
        denominators at point of the generators' coordinates.

        Each coordinate is written a_x / L (algebra.integer_point), and a_x
        is added into cell (action[j], j) for each generator x and state j.
        """
        try:
            coords = {x: point[x] for x in self.actions}
        except KeyError as missing:
            raise ValueError(f"point has no value for x_{missing.args[0]}") from None
        common, scaled = integer_point(coords)
        n = len(self.states)
        a = [[0] * n for _ in range(n)]
        for x, action in self.actions.items():
            for j, i in enumerate(action):
                a[i][j] += scaled[x]
        return common, a


def transition_matrix(spec: MarkovChainSpec) -> TransitionMatrix:
    """The chain's transition matrix, held as its generators' actions."""
    actions = {g.label: g.action for g in spec.generators}
    if len(actions) < len(spec.generators):
        raise ValueError("generator labels must be distinct")
    return TransitionMatrix(tuple(spec.states), actions)


def ergodicity(spec: MarkovChainSpec) -> dict:
    """Irreducibility and period of the transition diagram.

    The period is the gcd of (depth(u) + 1 - depth(v)) over diagram edges
    u -> v inside a strongly connected component, depths from a BFS; the
    probabilities play no role.  For reducible diagrams the reported period
    is the gcd over all components that contain at least one cycle.
    """
    n = len(spec.states)
    succ = [sorted({g.action[j] for g in spec.generators}) for j in range(n)]
    edges = [(u, "", v) for u in range(n) for v in succ[u]]
    components = scc(RootedGraph(range(n), spec.states, edges, 0, ()))
    comp = components.component_of
    period = 0
    for start, *_ in components.components:
        depth = {start: 0}
        queue = [start]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in succ[u]:
                if comp[v] == comp[start] and v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        for u in depth:
            for v in succ[u]:
                if comp[v] == comp[start]:
                    period = gcd(period, depth[u] + 1 - depth[v])
    return {"irreducible": len(components.components) == 1, "period": period}


def stationary_oracle(tm: TransitionMatrix, point: dict) -> dict:
    """Exact eigenvector of eigenvalue one, by elimination on T - I in integers.

    Raises NotStochastic if columns do not sum to one at the point and
    NotIrreducible if the nullspace dimension differs from one.
    """
    return scaled_stationary(tm.states, *tm.scaled(point))


def scaled_stationary(states, common: int, a: list) -> dict:
    """The stationary vector of T = a / common, for a as
    :meth:`TransitionMatrix.scaled` returns it; the rows of a are rewritten.

    a - common * I = common * (T - I) is integral, and its columns sum to 0,
    so it has at most n - 1 pivots.  Gauss-Jordan runs on it without
    fractions: each row is cross-multiplied by the pivot and divided by the
    gcd of its coefficients, and Fractions are made only for the n results.
    """
    n = len(a)
    for j in range(n):
        if sum(a[i][j] for i in range(n)) != common:
            raise NotStochastic(f"column {states[j]!r} does not sum to 1")
        a[j][j] -= common
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        top = a[row]
        p = top[col]
        for r in range(n):
            q = a[r][col]
            if r != row and q:
                new = [p * x - q * y for x, y in zip(a[r], top)]
                g = gcd(*new)
                a[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
    if len(pivots) != n - 1:
        raise NotIrreducible(
            f"nullspace of T - I has dimension {n - len(pivots)}, expected 1"
        )
    free = next(c for c in range(n) if c not in pivots)
    # row r reads a[r][col] x_col + a[r][free] x_free = 0; with x_free the
    # lcm of the pivots, every x_col is an integer
    scale = lcm(*(a[r][col] for r, col in enumerate(pivots)))
    x = [0] * n
    x[free] = scale
    for r, col in enumerate(pivots):
        x[col] = -a[r][free] * (scale // a[r][col])
    total = sum(x)
    if total == 0:
        raise NotIrreducible("eigenvector has zero total mass")
    return {states[i]: Fraction(x[i], total) for i in range(n)}


def simulate(
    spec: MarkovChainSpec,
    point: dict,
    steps: int,
    trials: int,
    seed: int,
    start_state: int = 0,
) -> dict:
    """Empirical occupation after `steps` i.i.d. letters, over `trials` walks.

    Returns exact Fractions count/trials per state; deterministic in seed.
    """
    import numpy as np

    labels = spec.labels()
    probs = [Fraction(point[label]) for label in labels]
    if any(p < 0 for p in probs) or sum(probs) != 1:
        raise NotStochastic("letter probabilities must be nonnegative and sum to 1")
    keep = [i for i, p in enumerate(probs) if p > 0]
    cum = Fraction(0)
    cuts = []
    for i in keep[:-1]:
        cum += probs[i]
        cuts.append(int(cum * 2**64))
    cuts = np.array(cuts, dtype=np.uint64)
    actions = np.array(
        [spec.generators[i].action for i in keep], dtype=np.int64
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    state = np.full(trials, start_state, dtype=np.int64)
    for _ in range(steps):
        raw = rng.integers(0, 2**64, size=trials, dtype=np.uint64)
        letters = np.searchsorted(cuts, raw, side="right")
        state = actions[letters, state]
    counts = np.bincount(state, minlength=len(spec.states))
    return {
        s: Fraction(int(c), trials) for s, c in zip(spec.states, counts)
    }


def tv_distance(u: dict, v: dict):
    """Total variation distance, computed as half the l1 distance."""
    keys = set(u) | set(v)
    return sum(abs(u.get(k, 0) - v.get(k, 0)) for k in keys) / 2
