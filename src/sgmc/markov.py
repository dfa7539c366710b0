"""Classical Markov-chain side: symbolic transition matrix, ergodicity,
exact eigenvector solve (the oracle), Monte Carlo simulation, TV distance.

A chain is specified by named states and labelled generators; generator ``a``
moves state ``s`` to ``action_a[s]`` (left action) with probability ``x_a``.
All exact computations use Fractions end to end; floating point appears only
inside the random number generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .algebra import Polynomial
from .errors import NotIrreducible, NotStochastic
from .expansions import RootedGraph, scc

# Simulation RNG: numpy PCG64 seeded directly; letters are drawn by comparing
# raw 64-bit outputs against floor(2^64 * cumulative probability) thresholds,
# so the sampler is exact to 2^-64 and reproducible across platforms.  When
# splitting trials across workers, derive child seeds with
# numpy.random.SeedSequence(seed).spawn(n); this module runs single-threaded.


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
    states: tuple
    entries: list  # rows of Polynomial; entry[i][j] = sum of x_a with a.j = i

    def evaluate(self, point: dict) -> list:
        return [[p.evaluate(point) for p in row] for row in self.entries]


def transition_matrix(spec: MarkovChainSpec) -> TransitionMatrix:
    n = len(spec.states)
    entries = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    for gen in spec.generators:
        x = Polynomial.variable(gen.label)
        for j in range(n):
            i = gen.action[j]
            entries[i][j] = entries[i][j] + x
    return TransitionMatrix(tuple(spec.states), entries)


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
    return {"irreducible": len(components.components) == 1, "period": abs(period)}


def stationary_oracle(tm: TransitionMatrix, point: dict) -> dict:
    """Exact eigenvector of eigenvalue one, by rational elimination on T - I.

    Raises NotStochastic if columns do not sum to one at the point and
    NotIrreducible if the nullspace dimension differs from one.
    """
    t = tm.evaluate(point)
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
