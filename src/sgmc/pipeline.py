"""End-to-end computation of stationary distributions from expansions.

Left-zero minimal ideal: every vertex of Mc(KR(S,A)) projecting into K(S) is
a terminal; its loop graph, Kleene expression and rational function give the
path sum ending there, and grouping by projected element yields the
stationary distribution directly.

Otherwise a zero is adjoined to semigroup and generators; terminals are the
box vertices u-box, each contributes its rational function, the limit
box -> 0 is taken under the stochastic constraint, and vertices whose prefix
projects outside K(S) feed a residual mass that must vanish in the limit.
The limit is taken per vertex (limits pass through the finite group sums).

Path sums, per-element sums, box limits and the normalization check all work
on factored forms (:class:`~sgmc.algebra.Factored`), which never multiply
out a factor the addends share; only the results kept in a
:class:`StationaryResult` are expanded to numerator/denominator pairs.

Every run can be cross-checked against the exact eigenvector oracle at
random interior rational points: the distribution on chain states is the
pushforward of the ideal distribution under k -> k(start), for every start.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Factored, Polynomial, RationalFunction, limit_at_box_zero
from .errors import (
    NotLeftZero,
    NotUsp,
    ResidualMassNonzero,
    VerificationFailed,
)
from .expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    check_usp,
    kr_expand,
    mc_expand,
    simple_path_edges,
    word_name,
)
from .loopkleene import (
    algorithm1,
    algorithm2,
    kleene_enumerate,
    kleene_to_rf,
    enumerate_path_words,
    flatten,
    pict,
)
from .markov import MarkovChainSpec, stationary_oracle, transition_matrix
from .semigroup import DEFAULT_MAX_ELEMENTS, FiniteSemigroup


@dataclass
class Terminal:
    word: tuple
    name: str
    vertex: int
    element: int          # grouping element in S (or None for residual)
    psi: RationalFunction
    expression: object
    loop_graph: object


@dataclass
class StationaryResult:
    case: str                      # "left_zero" or "general"
    variables: list
    box_var: object
    elim_var: object
    per_vertex: dict               # vertex word name -> RationalFunction
    per_element: dict              # element name -> RationalFunction
    residual_mass: RationalFunction
    kleene: dict                   # vertex word name -> expression text
    graph_sizes: dict
    element_ids: dict              # element name -> element id in `semigroup`
    semigroup: FiniteSemigroup = field(repr=False, default=None)
    mc: object = field(repr=False, default=None)
    terminals: list = field(repr=False, default_factory=list)

    def stationary_value(self, element_name: str, point: dict) -> Fraction:
        return self.per_element[element_name].evaluate(point)


def _prune_ideal_sinks(kr, ideal_members):
    """Drop out-edges of KR vertices over the ideal; they are all self-loops."""
    sinks = [
        vid
        for vid in range(kr.n_vertices())
        if kr.payloads[vid].element in ideal_members
    ]
    for vid in sinks:
        for eid in kr.out_edges(vid):
            if kr.edges[eid][2] != vid:
                raise NotLeftZero(
                    "ideal vertex has a non-loop out-edge; K(S) is not left zero"
                )
    return kr.without_out_edges(sinks)


def _expand(s, ideal_members, max_kr, max_mc):
    kr = kr_expand(s, max_kr)
    pruned = _prune_ideal_sinks(kr, ideal_members)
    mc, tree = mc_expand(pruned, max_mc)
    if not check_usp(mc, max_paths=10 * max(mc.n_vertices(), 1)):
        raise NotUsp("McCammond expansion failed the unique simple path check")
    sizes = {
        "semigroup": s.size(),
        "kr_vertices": kr.n_vertices(),
        "kr_edges": len(kr.edges),
        "mc_vertices": mc.n_vertices(),
        "mc_edges": len(mc.edges),
    }
    return kr, mc, tree, sizes


def _terminal(mc, unique, vid, element, max_loop):
    lg = pict(mc, unique[vid], verify_usp=False, max_vertices=max_loop)
    expr = algorithm2(algorithm1(lg), lg)
    psi = kleene_to_rf(expr)
    word = mc.payloads[vid].word
    return Terminal(word, word_name(word), vid, element, psi, expr, lg)


def stationary_left_zero(
    s: FiniteSemigroup,
    max_kr: int = DEFAULT_MAX_KR,
    max_mc: int = DEFAULT_MAX_MC,
    max_loop: int = 10**6,
) -> StationaryResult:
    ideal = s.minimal_ideal()
    if not ideal.is_left_zero:
        raise NotLeftZero("K(S) is not left zero; use stationary_general")
    kr, mc, _, sizes = _expand(s, ideal.members, max_kr, max_mc)
    unique = simple_path_edges(mc)
    terminals = []
    for vid in range(mc.n_vertices()):
        element = kr.payloads[mc.payloads[vid].kr_vertex].element
        if element in ideal.members:
            terminals.append(_terminal(mc, unique, vid, element, max_loop))
    element_ids = {s.name(k): k for k in sorted(ideal.members)}
    per_vertex = {}
    kleene = {}
    addends = {name: [] for name in element_ids}
    for t in terminals:
        per_vertex[t.name] = t.psi
        kleene[t.name] = str(t.expression)
        addends[s.name(t.element)].append(Factored.of(t.psi))
    per_element = {
        name: Factored.sum(parts).expand() for name, parts in addends.items()
    }
    return StationaryResult(
        case="left_zero",
        variables=list(s.labels),
        box_var=None,
        elim_var=None,
        per_vertex=per_vertex,
        per_element=per_element,
        residual_mass=RationalFunction.zero(),
        kleene=kleene,
        graph_sizes=sizes,
        element_ids=element_ids,
        semigroup=s,
        mc=mc,
        terminals=terminals,
    )


def stationary_general(
    s: FiniteSemigroup,
    box_label: str = "□",
    max_kr: int = DEFAULT_MAX_KR,
    max_mc: int = DEFAULT_MAX_MC,
    max_loop: int = 10**6,
) -> StationaryResult:
    """Adjoin a zero, compute box-vertex path sums, and take the limit.

    Works whether or not K(S) is left zero; grouping follows the projection
    of the prefix before the box letter.
    """
    ideal = s.minimal_ideal()
    boxed = s.adjoin_zero(box_label)
    kr, mc, _, sizes = _expand(boxed, {boxed.zero_id}, max_kr, max_mc)
    unique = simple_path_edges(mc)
    elim = max(s.labels)
    variables = list(s.labels)
    terminals = []
    for vid in range(mc.n_vertices()):
        element = kr.payloads[mc.payloads[vid].kr_vertex].element
        if element != boxed.zero_id:
            continue
        word = mc.payloads[vid].word
        group = s.eval_word(word[:-1])
        t = _terminal(mc, unique, vid, group, max_loop)
        if group not in ideal.members:
            t.element = None
        terminals.append(t)

    element_ids = {s.name(k): k for k in sorted(ideal.members)}
    groups = {name: [] for name in element_ids}
    residual_parts = []
    for t in terminals:
        lim = limit_at_box_zero(Factored.of(t.psi), box_label, elim, variables)
        if t.element is None:
            residual_parts.append(lim)
        else:
            groups[s.name(t.element)].append(lim)
    residual = Factored.sum(residual_parts)
    if not residual.is_zero():
        raise ResidualMassNonzero(
            "limit mass outside the minimal ideal does not vanish"
        )
    per_element = {
        name: _collapse(Factored.sum(parts).expand())
        for name, parts in groups.items()
    }
    per_vertex = {t.name: t.psi for t in terminals}
    kleene = {t.name: str(t.expression) for t in terminals}
    return StationaryResult(
        case="general",
        variables=variables,
        box_var=box_label,
        elim_var=elim,
        per_vertex=per_vertex,
        per_element=per_element,
        residual_mass=residual.expand(),
        kleene=kleene,
        graph_sizes=sizes,
        element_ids=element_ids,
        semigroup=s,
        mc=mc,
        terminals=terminals,
    )


def _collapse(rf: RationalFunction) -> RationalFunction:
    """Replace a termwise-proportional quotient by the constant it equals."""
    value = rf.as_constant()
    return rf if value is None else RationalFunction.const(value)


def stationary(s: FiniteSemigroup, box_label="□", **caps) -> StationaryResult:
    if s.minimal_ideal().is_left_zero:
        return stationary_left_zero(s, **caps)
    return stationary_general(s, box_label=box_label, **caps)


def normalization_holds(result: StationaryResult) -> bool:
    """Sum of per-element masses plus residual equals 1 under the constraint."""
    parts = [Factored.of(result.residual_mass)]
    parts.extend(Factored.of(rf) for rf in result.per_element.values())
    if result.case == "left_zero":
        elim = max(result.variables)
        repl = Polynomial.const(1)
        for v in result.variables:
            if v != elim:
                repl = repl - Polynomial.variable(v)
        parts = [part.substitute(elim, repl) for part in parts]
    return Factored.sum(parts).equals(1)


# -- oracle cross-check ------------------------------------------------------


def sample_simplex_points(labels, count, seed, max_denominator=20):
    """Interior rational points on the probability simplex over the labels."""
    rnd = random.Random(seed)
    k = len(labels)
    points = []
    for _ in range(count):
        d = rnd.randint(max(k, 2), max(max_denominator, k))
        cuts = sorted(rnd.sample(range(1, d), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        points.append({lab: Fraction(p, d) for lab, p in zip(labels, parts)})
    return points


def verify_oracle(
    spec: MarkovChainSpec, result: StationaryResult, points
) -> list:
    """Exact comparison with the eigenvector solve at each point.

    The symbolic distribution lives on K(S); the chain distribution is its
    pushforward under k -> k(start), checked for every start state.
    """
    s = result.semigroup
    tm = transition_matrix(spec)
    outcomes = []
    for point in points:
        oracle = stationary_oracle(tm, point)
        values = {
            name: rf.evaluate(point) for name, rf in result.per_element.items()
        }
        for start in range(len(spec.states)):
            push = {state: Fraction(0) for state in spec.states}
            for name, value in values.items():
                eid = result.element_ids[name]
                target = s.transform[eid][start]
                push[spec.states[target]] += value
            if push != oracle:
                raise VerificationFailed(
                    f"symbolic vs oracle mismatch at {_point_str(point)} "
                    f"from start {spec.states[start]!r}: {push} != {oracle}"
                )
        outcomes.append({"point": point, "outcome": "pass"})
    return outcomes


def verify_language_and_series(
    result: StationaryResult, maxlen: int, cap: int = 10**7
) -> int:
    """Per-terminal consistency: Mc paths = loop-graph paths = Kleene words,
    and series coefficients count words by length.  Returns checks performed."""
    mc = result.mc
    checks = 0
    for t in result.terminals:
        mc_words = enumerate_path_words(mc, t.vertex, maxlen, cap)
        flat, end = flatten(t.loop_graph)
        lg_words = enumerate_path_words(flat, end, maxlen, cap)
        expr_words = kleene_enumerate(t.expression, maxlen, cap)
        if not (mc_words == lg_words == expr_words):
            raise VerificationFailed(
                f"path/word multisets disagree for vertex {t.name}"
            )
        by_degree = {}
        for word in expr_words:
            by_degree[len(word)] = by_degree.get(len(word), 0) + 1
        series = t.psi.series(maxlen + 1)
        slices = series.coefficients.degree_slices()
        for degree in range(maxlen + 1):
            coeff_sum = sum(
                slices[degree].terms.values(), Fraction(0)
            ) if degree in slices else Fraction(0)
            if coeff_sum != by_degree.get(degree, 0):
                raise VerificationFailed(
                    f"series degree {degree} of {t.name} counts "
                    f"{coeff_sum} but enumeration finds {by_degree.get(degree, 0)}"
                )
        checks += 1
    return checks


# -- full report --------------------------------------------------------------


@dataclass
class FullReport:
    spec: MarkovChainSpec
    result: StationaryResult
    verification: list
    normalization: bool
    timings: dict


def build_semigroup(spec: MarkovChainSpec, max_elements=DEFAULT_MAX_ELEMENTS):
    return FiniteSemigroup.generate(
        [(g.label, g.action) for g in spec.generators], max_elements
    )


def full_report(
    spec: MarkovChainSpec,
    points: int = 3,
    seed: int = 1,
    box_label: str = "□",
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_kr: int = DEFAULT_MAX_KR,
    max_mc: int = DEFAULT_MAX_MC,
    max_loop: int = 10**6,
) -> FullReport:
    timings = {}
    tic = time.perf_counter()
    s = build_semigroup(spec, max_elements)
    timings["generate"] = time.perf_counter() - tic
    tic = time.perf_counter()
    result = stationary(
        s, box_label=box_label, max_kr=max_kr, max_mc=max_mc, max_loop=max_loop
    )
    timings["expansions_and_kleene"] = time.perf_counter() - tic
    tic = time.perf_counter()
    if not normalization_holds(result):
        raise VerificationFailed("per-element masses do not sum to one")
    sample = sample_simplex_points(spec.labels(), points, seed)
    verification = verify_oracle(spec, result, sample)
    timings["verification"] = time.perf_counter() - tic
    return FullReport(spec, result, verification, True, timings)


def _point_str(point):
    return ", ".join(f"x_{k}={v}" for k, v in sorted(point.items()))


def report_dict(report: FullReport) -> dict:
    """JSON-ready dictionary; deterministic for a fixed input and seed."""
    spec = report.spec
    result = report.result
    return {
        "chain": {
            "states": list(spec.states),
            "generators": [
                {
                    "label": g.label,
                    "action": list(g.action),
                    "prob": "sym" if g.prob is None else str(g.prob),
                }
                for g in spec.generators
            ],
        },
        "case": result.case,
        "variables": result.variables,
        "box": result.box_var,
        "eliminated": result.elim_var,
        "graph_sizes": result.graph_sizes,
        "stationary": {
            name: {"num": str(rf.num), "den": str(rf.den)}
            for name, rf in sorted(result.per_element.items())
        },
        "residual_mass": {
            "num": str(result.residual_mass.num),
            "den": str(result.residual_mass.den),
        },
        "per_vertex": {
            name: {"num": str(rf.num), "den": str(rf.den)}
            for name, rf in sorted(result.per_vertex.items())
        },
        "kleene": dict(sorted(result.kleene.items())),
        "normalization": "pass" if report.normalization else "fail",
        "verification": [
            {
                "point": {k: str(v) for k, v in sorted(rec["point"].items())},
                "outcome": rec["outcome"],
            }
            for rec in report.verification
        ],
    }
