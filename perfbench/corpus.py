"""Workload parameters and the items they expand to.

Every item is plain data: a bundled chain file name or an action table,
plus the evaluation points drawn for it.  Random grids come from the
workload's ``grid_seed``; points come from the run's ``--seed``.  The
program under test only ever receives the generated chains and points.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

PARAMS_FILE = Path(__file__).with_name("workloads.json")
LABELS = "abcdefgh"


def load_params(workload, overrides=None):
    with open(PARAMS_FILE, encoding="utf-8") as handle:
        table = json.load(handle)
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(table)}")
    params = dict(table[workload])
    for key, value in (overrides or {}).items():
        if key not in params and key != "caps":
            raise KeyError(f"{workload} has no parameter {key!r}")
        params[key] = value
    return params


def closed_classes(actions):
    """Number of closed communicating classes of the chain's state graph."""
    n = len(actions[0])
    reach = []
    for v in range(n):
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for action in actions:
                w = action[u]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(frozenset(seen))
    return len({reach[v] for v in range(n) if all(v in reach[u] for u in reach[v])})


def grid(seed, states, generators, per_cell):
    """Random action tables, ``per_cell`` for each (states, generators) cell.

    Tables whose chain has more than one closed class (so no unique
    stationary distribution) are redrawn; every item is a valid input.
    """
    rnd = random.Random(seed)
    out = []
    for n in states:
        for k in generators:
            drawn = 0
            while drawn < per_cell:
                actions = [[rnd.randrange(n) for _ in range(n)] for _ in range(k)]
                if closed_classes(actions) != 1:
                    continue
                out.append((f"grid-{n}x{k}-{drawn}", actions))
                drawn += 1
    return out


def simplex_points(labels, count, seed, denominator):
    """Interior rational points of the probability simplex, as strings.

    Coordinates are near 1/k with one prime denominator, so that every
    point of every seed costs about the same to evaluate exactly.
    """
    rnd = random.Random(seed)
    k = len(labels)
    points = []
    for _ in range(count):
        parts = [denominator // k + (i < denominator % k) for i in range(k)]
        for _ in range(4):
            i, j = rnd.sample(range(k), 2)
            if parts[i] > 1:
                parts[i] -= 1
                parts[j] += 1
        rnd.shuffle(parts)
        points.append({lab: str(Fraction(p, denominator)) for lab, p in zip(labels, parts)})
    return points


def _labels(item, chain_dir):
    if "actions" in item:
        return list(LABELS[: len(item["actions"])])
    with open(Path(chain_dir) / item["file"], encoding="utf-8") as handle:
        generators = json.load(handle)["generators"]
    return [g["label"] for g in generators if g["action"] != "box"]


def items(workload, params, seed, chain_dir):
    """The workload's items in run order; bundled chains live in chain_dir."""
    chains = [{"id": name, "file": f"{name}.json"} for name in params.get("bundled", [])]
    chains += [
        {"id": f"pinned-{i}", "actions": actions}
        for i, actions in enumerate(params.get("pinned", []))
    ]
    if "grid_seed" in params:
        chains += [
            {"id": name, "actions": actions}
            for name, actions in grid(
                params["grid_seed"],
                params["grid_states"],
                params["grid_generators"],
                params["grid_per_cell"],
            )
        ]
    if workload == "analyze":
        for chain in chains:
            chain["gate_points"] = simplex_points(
                _labels(chain, chain_dir),
                params["gate_points"],
                f"{seed}/{chain['id']}",
                params["point_denominator"],
            )
        return chains
    if workload == "mixing":
        out = []
        for chain in chains:
            points = simplex_points(
                _labels(chain, chain_dir),
                params["points"],
                f"{seed}/{chain['id']}",
                params["point_denominator"],
            )
            for k, point in enumerate(points):
                out.append(dict(chain, id=f"{chain['id']}/p{k}", chain=chain["id"], point=point))
        return out
    return chains
