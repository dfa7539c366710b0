"""End-to-end computation of stationary distributions from expansions.

Left-zero minimal ideal: every vertex of Mc(KR(S,A)) projecting into K(S) is
a terminal (k*a = k there, so KR's edges out of it are loops, and dropped);
the rational function of its path sum, read off the Pict unfolding, and
grouping by projected element yield the stationary distribution directly.

Otherwise a zero is adjoined to semigroup and generators; terminals are the
box vertices u-box, each contributes its rational function, the limit
box -> 0 is taken under the stochastic constraint, and vertices whose prefix
projects outside K(S) feed a residual mass that must vanish in the limit.
The limit is taken per vertex (limits pass through the finite group sums).
Both cases expand through ``_expand``, which reads the sinks off
``minimal_ideal``: K(S) when it is left zero, {zero} once one is adjoined.
An element's mass whose numerator and denominator intern to one factor is
replaced by the constant it is.

A path sum is S(root) x_e1 S(v1) ... along the terminal's unique simple
path, where S(v) is the starred union of the loops a Pict copy of v carries;
each S(v) is built once per run and per distinct loop system, and shared
by every terminal (:func:`~sgmc.loopkleene.loop_stars`), from the loop
table that the USP check (:func:`~sgmc.expansions.simple_path_edges`)
builds on Mc's tree paths and that the Pict unfoldings read too.
Terminals share their path prefixes, so the path sums come from one fold
down Mc's tree in vertex order, a DFS preorder
(:func:`~sgmc.loopkleene.path_sums`): each vertex's sum is its parent's
times x_e S(v), one product per vertex, with only the current tree path's
prefixes kept.  A terminal's loop graph and Kleene expression, and the
result's ``kleene`` texts, are built only when read (by ``report_dict``
and verification), and Pict's vertex cap bounds only those trees.  They
are DAGs shared by all terminals of the run, and the texts print each
shared node once.

Path sums, per-element sums, box limits and the normalization check work on
rational functions in factored form (:class:`~sgmc.algebra.RationalFunction`),
which never multiply out a factor the addends share; a numerator/denominator
pair is multiplied out only when a report prints it.  The left-zero
normalization check sums the masses first and substitutes the constraint
into that one sum, a ring homomorphism wherever no denominator vanishes;
each distinct denominator factor of the masses is substituted once before,
so a factor that vanishes under the constraint still raises ZeroDenominator.

Every run can be cross-checked against the exact eigenvector oracle at
random interior rational points: the distribution on chain states is the
pushforward of the ideal distribution under k -> k(start), for every start.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebra import (
    RationalFunction,
    _factor,
    evaluator,
    limit_at_box_zero,
    point_str,
    stochastic_complement,
)
from .errors import (
    NotLeftZero,
    ResidualMassNonzero,
    VerificationFailed,
    ZeroDenominator,
)
from .expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    kr_expand,
    mc_expand,
    simple_path_edges,
)
from .loopkleene import (
    DEFAULT_MAX_WORDS,
    _kleene_words,
    _merged,
    _walk_words,
    algorithm1,
    algorithm2,
    flatten,
    kleene_texts,
    loop_stars,
    path_sums,
    pict,
)
from .markov import MarkovChainSpec, stationary_oracle, transition_matrix
from .semigroup import BOX_LABEL, DEFAULT_MAX_ELEMENTS, FiniteSemigroup


@dataclass
class Terminal:
    name: str             # the word of the unique simple path to the vertex
    vertex: int
    element: int          # grouping element in S (or None for residual)
    psi: RationalFunction
    mc: object = field(repr=False)

    @cached_property
    def loop_graph(self):
        """The Pict unfolding along the unique simple path, built on first read."""
        path = simple_path_edges(self.mc)[self.vertex]
        return pict(self.mc, path, verify_usp=False)

    @cached_property
    def expression(self):
        """Algorithms 1 and 2 on the loop graph, built on first read."""
        return algorithm2(algorithm1(self.loop_graph))


@dataclass
class StationaryResult:
    case: str                      # "left_zero" or "general"
    variables: list
    box_var: object
    elim_var: object
    per_element: dict              # element name -> RationalFunction
    residual_mass: RationalFunction
    graph_sizes: dict
    element_ids: dict              # element name -> element id in `semigroup`
    semigroup: FiniteSemigroup = field(repr=False, default=None)
    mc: object = field(repr=False, default=None)
    terminals: list = field(repr=False, default_factory=list)

    @cached_property
    def per_vertex(self) -> dict:
        """Vertex word name -> the terminal's path sum."""
        return {t.name: t.psi for t in self.terminals}

    @cached_property
    def kleene(self) -> dict:
        """Vertex word name -> expression text, built on first read."""
        texts = kleene_texts([t.expression for t in self.terminals])
        return {t.name: text for t, text in zip(self.terminals, texts)}


def _expand(s, max_kr, max_mc):
    """KR(S) with its sinks' out-edges dropped, and its McCammond expansion.

    The sinks are the KR vertices over K(S) when ``minimal_ideal`` finds it
    left zero, the adjoined zero's {zero} included, and none otherwise.
    Each dropped edge is a loop: for k in a left-zero K(S), k*a lies in
    K(S), so k*a = k*(k*a) = k, and the zero absorbs; so the Cayley edge
    k -a-> k*a crosses no transition edge, and KR follows it back.
    """
    ideal = s.minimal_ideal()
    members = ideal.members if ideal.is_left_zero else frozenset()
    kr = kr_expand(s, max_kr)
    sinks = (v for v, p in enumerate(kr.payloads) if p.element in members)
    mc, tree = mc_expand(kr.without_out_edges(sinks), max_mc)
    sizes = {
        "semigroup": s.size(),
        "kr_vertices": kr.n_vertices(),
        "kr_edges": len(kr.edges),
        "mc_vertices": mc.n_vertices(),
        "mc_edges": len(mc.edges),
    }
    return kr, mc, tree, sizes


def _element_of(kr, mc, vid) -> int:
    """The element of S^1 that Mc vertex vid's word evaluates to: the
    element of its KR vertex, as KR follows the right walk s -> s a."""
    return kr.payloads[mc.payloads[vid].kr_vertex].element


def stationary_left_zero(
    s: FiniteSemigroup,
    max_kr: int = DEFAULT_MAX_KR,
    max_mc: int = DEFAULT_MAX_MC,
) -> StationaryResult:
    if not s.minimal_ideal().is_left_zero:
        raise NotLeftZero("K(S) is not left zero; use stationary_general")
    return _stationary(s, None, max_kr, max_mc)


def stationary_general(
    s: FiniteSemigroup,
    box_label: str = BOX_LABEL,
    max_kr: int = DEFAULT_MAX_KR,
    max_mc: int = DEFAULT_MAX_MC,
) -> StationaryResult:
    """Adjoin a zero, compute box-vertex path sums, and take the limit.

    Works whether or not K(S) is left zero; grouping follows the projection
    of the prefix before the box letter.
    """
    return _stationary(s, box_label, max_kr, max_mc)


def _stationary(s, box_label, max_kr, max_mc) -> StationaryResult:
    """The route both cases share; box_label is None in the left-zero case.

    Left zero: Mc is built on S with K(S) as sinks, a terminal's whole word
    names its element, and its path sum is its mass.  Otherwise: Mc is built
    on S with a zero adjoined, the word before the box letter names the
    element, and the mass is the path sum's limit box -> 0; masses outside
    K(S) form the residual, which must vanish.  A word's element is read off
    the KR vertex (``_element_of``): the terminal's own, or that of its tree
    parent before the box letter, as adjoining the zero keeps the ids of S^1.
    """
    ideal = s.minimal_ideal()
    variables = list(s.labels)
    if box_label is None:
        expanded, elim = s, None
    else:
        expanded, elim = s.adjoin_zero(box_label), max(s.labels)
    sinks = expanded.minimal_ideal().members
    kr, mc, _, sizes = _expand(expanded, max_kr, max_mc)
    unique = simple_path_edges(mc)
    stars = loop_stars(mc)
    element_ids = {s.name(k): k for k in sorted(ideal.members)}
    groups = {name: [] for name in element_ids}
    residual_parts = []
    terminals = []
    for vid, psi in path_sums(mc, stars):
        group = _element_of(kr, mc, vid)
        if group not in sinks:
            continue
        if box_label is not None:
            group = _element_of(kr, mc, mc.edges[unique[vid][-1]][0])
        element = group if group in ideal.members else None
        terminals.append(Terminal(mc.names[vid], vid, element, psi, mc))
        mass = psi
        if box_label is not None:
            mass = limit_at_box_zero(psi, box_label, elim, variables)
        if element is None:
            residual_parts.append(mass)
        else:
            groups[s.name(element)].append(mass)
    residual = RationalFunction.sum(residual_parts)
    if not residual.is_zero():
        raise ResidualMassNonzero(
            "limit mass outside the minimal ideal does not vanish"
        )
    per_element = {
        name: RationalFunction.sum(parts) for name, parts in groups.items()
    }
    if box_label is not None:
        per_element = {name: _collapse(rf) for name, rf in per_element.items()}
    return StationaryResult(
        case="left_zero" if box_label is None else "general",
        variables=variables,
        box_var=box_label,
        elim_var=elim,
        per_element=per_element,
        residual_mass=residual,
        graph_sizes=sizes,
        element_ids=element_ids,
        semigroup=s,
        mc=mc,
        terminals=terminals,
    )


def _collapse(rf: RationalFunction) -> RationalFunction:
    """a*f / (b*g) as the constant a/b when both sides are non-constant and
    intern (``_factor``) to one factor f = g; otherwise rf itself."""
    num, den = rf.num, rf.den
    if num.total_degree() and den.total_degree():
        (a, f), (b, g) = _factor(num), _factor(den)
        if f is g:
            return RationalFunction.const(Fraction(a, b))
    return rf


def stationary(s: FiniteSemigroup, box_label=BOX_LABEL, **caps) -> StationaryResult:
    if s.minimal_ideal().is_left_zero:
        return stationary_left_zero(s, **caps)
    return stationary_general(s, box_label=box_label, **caps)


def normalization_holds(result: StationaryResult) -> bool:
    """Sum of per-element masses plus residual equals 1 under the constraint.

    The parts are summed first; in the left-zero case x_elim =
    1 - sum(others) is then substituted once into the excess, sum - 1, not
    into every part.  Substitution is a ring homomorphism wherever no
    denominator vanishes, so the identity checked is the same.  Each
    distinct negative-exponent factor of the parts is substituted first and
    raises ZeroDenominator if it becomes zero, as substituting part by part
    would, even where the sum cancels it.  The excess has no other
    denominator factors, so it vanishes exactly when its poly does.
    """
    parts = [result.residual_mass, *result.per_element.values()]
    excess = RationalFunction.sum(parts) - 1
    if result.case != "left_zero":
        return excess.is_zero()
    elim = max(result.variables)
    repl = stochastic_complement(elim, result.variables)
    denominators = {f for part in parts for f, e in part.factors.items() if e < 0}
    if any(f.poly.substitute(elim, repl).is_zero() for f in denominators):
        raise ZeroDenominator(
            f"substituting {elim} makes the denominator identically zero"
        )
    return excess.poly.substitute(elim, repl).is_zero()


# -- oracle cross-check ------------------------------------------------------


POINT_MAX_DENOMINATOR = 20   # of the sampled points' coordinates


def sample_simplex_points(labels, count, seed):
    """Interior rational points on the probability simplex over the labels."""
    rnd = random.Random(seed)
    k = len(labels)
    points = []
    for _ in range(count):
        d = rnd.randint(max(k, 2), max(POINT_MAX_DENOMINATOR, k))
        cuts = sorted(rnd.sample(range(1, d), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        points.append({lab: Fraction(p, d) for lab, p in zip(labels, parts)})
    return points


def verify_oracle(
    spec: MarkovChainSpec, result: StationaryResult, points
) -> list:
    """The masses, read by one evaluator per point, against the eigenvector
    solve there: the chain distribution is their pushforward under
    k -> k(start) from K(S), checked exactly for every start state."""
    tm = transition_matrix(spec)
    outcomes = []
    for point in points:
        oracle = stationary_oracle(tm, point)
        value = evaluator(point)
        values = {name: value(rf) for name, rf in result.per_element.items()}
        for start in range(len(spec.states)):
            push = {state: Fraction(0) for state in spec.states}
            for name, mass in values.items():
                target = result.semigroup.transform[result.element_ids[name]][start]
                push[spec.states[target]] += mass
            if push != oracle:
                raise VerificationFailed(
                    f"symbolic vs oracle mismatch at {point_str(point)} "
                    f"from start {spec.states[start]!r}: {push} != {oracle}"
                )
        outcomes.append({"point": point, "outcome": "pass"})
    return outcomes


def _same_words(vertex: str, first, second):
    """VerificationFailed naming the two oracles and the least word they
    count differently, unless their word multisets are equal.  The words
    are joined labels, which sort as their label tuples (``_walk_words``).

    The Counters hold no zero count, so dict equality is multiset equality;
    Counter's own runs a Python generator over every key."""
    (a_name, a), (b_name, b) = first, second
    if dict.__eq__(a, b):
        return
    word = min(w for w in a.keys() | b.keys() if a.get(w, 0) != b.get(w, 0))
    raise VerificationFailed(
        f"path/word multisets disagree for vertex {vertex}: {a_name} vs "
        f"{b_name} at {word!r}, counted {a.get(word, 0)} vs {b.get(word, 0)}"
    )


def verify_language_and_series(result: StationaryResult, maxlen: int) -> int:
    """Per-terminal consistency: Mc paths = loop-graph paths = Kleene words,
    and series coefficients count words by length.  Returns the terminal count.

    A word is its labels joined into one str (``_walk_words``), which is
    exact because a semigroup's labels, the adjoined zero's included, form
    a prefix code.  One walk of Mc serves all the terminals, one walk of
    their loop graphs merged by ``flatten`` all the loop graphs, and one
    enumeration all their expressions (``_kleene_words``), whose memo
    enumerates each subtree the expressions share once.  All three stop at
    ``DEFAULT_MAX_WORDS``, the cap of ``kleene_enumerate`` and
    ``enumerate_path_words``; each walk counts its partial walks for all
    its targets together.  The series count of degree k is the size of the
    expression's length-k bucket, as every word in it is counted once.
    """
    terminals = result.terminals
    mc_words_at = _walk_words(
        result.mc, [t.vertex for t in terminals], maxlen, DEFAULT_MAX_WORDS, "".join
    )
    flat, ends = flatten([t.loop_graph for t in terminals])
    lg_words_at = _walk_words(flat, ends, maxlen, DEFAULT_MAX_WORDS, "".join)
    expression_words = _kleene_words(
        (t.expression for t in terminals), maxlen, DEFAULT_MAX_WORDS, "".join
    )
    for t, end in zip(terminals, ends):
        mc_words = mc_words_at.pop(t.vertex)
        lg_words = lg_words_at.pop(end)
        by_length = next(expression_words)
        expr_words = _merged(by_length)
        _same_words(t.name, ("Mc", mc_words), ("loop graph", lg_words))
        _same_words(t.name, ("loop graph", lg_words), ("expression", expr_words))
        ones = dict.fromkeys(t.psi.variables(), 1)
        for degree, coeff_sum in enumerate(t.psi.series_at(ones, maxlen + 1)):
            if coeff_sum != len(by_length[degree]):
                raise VerificationFailed(
                    f"series degree {degree} of {t.name} counts "
                    f"{coeff_sum} but enumeration finds {len(by_length[degree])}"
                )
    return len(terminals)


# -- full report --------------------------------------------------------------


@dataclass
class FullReport:
    """A run that passed: full_report raises VerificationFailed instead."""

    spec: MarkovChainSpec
    result: StationaryResult
    verification: list
    timings: dict  # seconds: generate, stationary, normalization, oracle


def build_semigroup(spec: MarkovChainSpec, max_elements=DEFAULT_MAX_ELEMENTS):
    return FiniteSemigroup.generate(
        [(g.label, g.action) for g in spec.generators], max_elements
    )


def full_report(
    spec: MarkovChainSpec,
    points: int = 3,
    seed: int = 1,
    box_label: str = BOX_LABEL,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_kr: int = DEFAULT_MAX_KR,
    max_mc: int = DEFAULT_MAX_MC,
) -> FullReport:
    """The stationary masses, checked for normalization and against the
    eigenvector oracle at ``points`` seeded simplex points (at least 1).
    """
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    timings = {}
    tic = time.perf_counter()
    s = build_semigroup(spec, max_elements)
    timings["generate"] = time.perf_counter() - tic
    tic = time.perf_counter()
    result = stationary(s, box_label=box_label, max_kr=max_kr, max_mc=max_mc)
    timings["stationary"] = time.perf_counter() - tic
    tic = time.perf_counter()
    if not normalization_holds(result):
        raise VerificationFailed("per-element masses do not sum to one")
    timings["normalization"] = time.perf_counter() - tic
    tic = time.perf_counter()
    sample = sample_simplex_points(spec.labels(), points, seed)
    verification = verify_oracle(spec, result, sample)
    timings["oracle"] = time.perf_counter() - tic
    return FullReport(spec, result, verification, timings)


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
        "normalization": "pass",
        "verification": [
            {
                "point": {k: str(v) for k, v in sorted(rec["point"].items())},
                "outcome": rec["outcome"],
            }
            for rec in report.verification
        ],
    }
