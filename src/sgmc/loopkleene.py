"""Loop graphs, the Pict unfolding, and Kleene-expression extraction.

A loop graph is a straight-line spine with labelled cycles recursively
attached; ``pict`` unfolds a unique-simple-path graph along a chosen simple
path into that shape.  The key facts the construction relies on:

* in a USP graph every non-tree edge ends at a vertex on the unique simple
  path of its source, so each extra in-edge e' = (v', x, v) of a vertex v
  closes exactly one cycle: the tree segment v -> v' plus e';
* the loop attached at v for e' copies that segment, and inner copies
  recursively receive loops for *their* extra in-edges, while the attachment
  vertex itself gets none inside the copy (its own loops are siblings).

With that shape, the label words of paths root -> end-of-spine in the source
graph and in the loop graph agree as multisets (checked independently by
``paths_bijection_check``), and a Kleene expression for the loop graph's
path language falls out of a single spine walk: emit each spine label, then
a starred union over the loops hanging at the vertex just entered; loops are
expanded recursively the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .algebra import Factored, RationalFunction
from .errors import (
    AmbiguousExpression,
    CapExceeded,
    NotUsp,
    PathNotInGraph,
    StarOfUnit,
)
from .expansions import RootedGraph, check_usp, simple_path_edges

DEFAULT_MAX_PATHS = 10**6
_MAX_NESTING = 4000


@dataclass(slots=True)
class LoopVertex:
    name: str
    loops: list = field(default_factory=list)


@dataclass(slots=True)
class Loop:
    """A cycle through its attachment vertex.

    labels[j] is the j-th cycle edge; the last edge returns to the attachment
    vertex.  inner[j] is the copy of the vertex entered by labels[j], so there
    are len(labels) - 1 inner vertices, each possibly carrying nested loops.
    """

    labels: list
    inner: list

    def size(self):
        return len(self.labels)


@dataclass
class LoopGraph:
    spine_labels: list
    spine: list  # LoopVertex, len(spine_labels) + 1 entries


# -- Pict ------------------------------------------------------------------


def pict(
    g: RootedGraph,
    path_edges,
    verify_usp: bool = True,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_vertices: int = 10**6,
) -> LoopGraph:
    """Unfold a USP graph along a simple path into a loop graph.

    The unfolding duplicates subtrees and can grow exponentially in the size
    of the input graph; max_vertices bounds the number of loop-vertex copies
    (CapExceeded beyond it).
    """
    if verify_usp and not check_usp(g, max_paths):
        raise NotUsp("pict requires the unique simple path property")
    unique = simple_path_edges(g)
    spine_vertices = [g.root]
    v = g.root
    for eid in path_edges:
        src, _, dst = g.edges[eid]
        if src != v:
            raise PathNotInGraph("edges do not chain from the root")
        v = dst
        spine_vertices.append(v)
    if len(set(spine_vertices)) != len(spine_vertices):
        raise PathNotInGraph("path is not simple")
    for i, sv in enumerate(spine_vertices):
        if tuple(path_edges[:i]) != unique[sv]:
            raise PathNotInGraph(
                f"given path to {g.names[sv]} is not its unique simple path"
            )
    spine = [LoopVertex(g.names[sv]) for sv in spine_vertices]
    lg = LoopGraph([g.edges[e][1] for e in path_edges], spine)
    budget = [max_vertices - len(spine)]
    for i, sv in enumerate(spine_vertices):
        entry = path_edges[i - 1] if i > 0 else None
        _attach_loops(g, unique, spine[i], sv, entry, 0, budget)
    return lg


def _attach_loops(g, unique, lvertex, v, entry_edge, depth, budget):
    if depth > _MAX_NESTING:
        raise CapExceeded("loop nesting exceeds the recursion guard")
    base = unique[v]
    for eid in g.in_edges(v):
        if eid == entry_edge:
            continue
        src, closing_label, _ = g.edges[eid]
        if unique[src][: len(base)] != base:
            raise NotUsp(
                f"in-edge source {g.names[src]} does not extend {g.names[v]}"
            )
        body = unique[src][len(base):]
        labels = []
        inner = []
        for beid in body:
            _, blabel, bdst = g.edges[beid]
            labels.append(blabel)
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceeded("loop graph exceeds the vertex cap")
            copy = LoopVertex(g.names[bdst])
            inner.append(copy)
            _attach_loops(g, unique, copy, bdst, beid, depth + 1, budget)
        labels.append(closing_label)
        lvertex.loops.append(Loop(labels, inner))


def flatten(lg: LoopGraph):
    """Materialize a loop graph as a RootedGraph; returns (graph, spine end id)."""
    names = []
    edges = []

    def add_vertex(name):
        names.append(name)
        return len(names) - 1

    def emit_loops(lvertex, vid):
        for loop in lvertex.loops:
            prev = vid
            inner_ids = []
            for j, copy in enumerate(loop.inner):
                nid = add_vertex(copy.name)
                edges.append((prev, loop.labels[j], nid))
                inner_ids.append(nid)
                prev = nid
            edges.append((prev, loop.labels[-1], vid))
            for nid, copy in zip(inner_ids, loop.inner):
                emit_loops(copy, nid)

    spine_ids = [add_vertex(lv.name) for lv in lg.spine]
    for i, label in enumerate(lg.spine_labels):
        edges.append((spine_ids[i], label, spine_ids[i + 1]))
    for lv, vid in zip(lg.spine, spine_ids):
        emit_loops(lv, vid)
    alphabet = sorted({label for _, label, _ in edges})
    payloads = list(range(len(names)))
    graph = RootedGraph(payloads, names, edges, spine_ids[0], alphabet)
    return graph, spine_ids[-1]


# -- Kleene expressions ----------------------------------------------------


class Kleene:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Epsilon(Kleene):
    def __str__(self):
        return "ε"


@dataclass(frozen=True, slots=True)
class Letter(Kleene):
    label: str

    def __str__(self):
        return self.label


@dataclass(frozen=True, slots=True)
class Concat(Kleene):
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty concatenation")

    def __str__(self):
        return "".join(str(p) for p in self.parts)


@dataclass(frozen=True, slots=True)
class Union(Kleene):
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty union")

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.parts) + "}"


@dataclass(frozen=True, slots=True)
class Star(Kleene):
    inner: Kleene

    def __str__(self):
        inner = self.inner
        if isinstance(inner, (Letter, Union)):
            return f"{inner}*"
        return f"({inner})*"


@dataclass(frozen=True, eq=False, slots=True)
class LoopSymbol(Kleene):
    loop: Loop
    index: int

    def __str__(self):
        return f"l{self.index}"


def concat(parts) -> Kleene:
    parts = tuple(parts)
    if not parts:
        return Epsilon()
    if len(parts) == 1:
        return parts[0]
    return Concat(parts)


def algorithm1(lg: LoopGraph) -> Kleene:
    """Spine walk emitting labels and starred unions of loop placeholders."""
    counter = [0]

    def stars(lvertex):
        if not lvertex.loops:
            return None
        symbols = []
        for loop in lvertex.loops:
            counter[0] += 1
            symbols.append(LoopSymbol(loop, counter[0]))
        body = symbols[0] if len(symbols) == 1 else Union(tuple(symbols))
        return Star(body)

    parts = []
    lead = stars(lg.spine[0])
    if lead is not None:
        parts.append(lead)
    for i, label in enumerate(lg.spine_labels):
        parts.append(Letter(label))
        s = stars(lg.spine[i + 1])
        if s is not None:
            parts.append(s)
    return concat(parts)


def algorithm2(expr: Kleene, lg: LoopGraph = None) -> Kleene:
    """Expand every loop placeholder by re-rooting its cycle as a loop graph."""
    counter = [10**6]  # fresh indices for symbols created mid-expansion

    def expand_loop(loop):
        parts = []
        for j, label in enumerate(loop.labels):
            parts.append(Letter(label))
            if j < len(loop.inner) and loop.inner[j].loops:
                symbols = []
                for sub in loop.inner[j].loops:
                    counter[0] += 1
                    symbols.append(LoopSymbol(sub, counter[0]))
                body = symbols[0] if len(symbols) == 1 else Union(tuple(symbols))
                parts.append(rewrite(Star(body)))
        return concat(parts)

    def rewrite(node):
        if isinstance(node, (Letter, Epsilon)):
            return node
        if isinstance(node, Concat):
            return concat(rewrite(p) for p in node.parts)
        if isinstance(node, Union):
            return Union(tuple(rewrite(p) for p in node.parts))
        if isinstance(node, Star):
            return Star(rewrite(node.inner))
        if isinstance(node, LoopSymbol):
            return expand_loop(node.loop)
        raise TypeError(f"unknown Kleene node {node!r}")

    return rewrite(expr)


def kleene_expression(lg: LoopGraph) -> Kleene:
    return algorithm2(algorithm1(lg), lg)


def zimin_unionless(expr: Kleene) -> Kleene:
    """Remove unions under stars via {a,b}* = (a*b)*a*, folding n-ary unions."""

    def rewrite(node):
        if isinstance(node, (Letter, Epsilon)):
            return node
        if isinstance(node, Concat):
            return concat(rewrite(p) for p in node.parts)
        if isinstance(node, Star):
            inner = node.inner
            if isinstance(inner, Union):
                parts = inner.parts
                if len(parts) == 1:
                    return Star(rewrite(parts[0]))
                prefix = rewrite(Star(Union(parts[:-1])))
                last = rewrite(parts[-1])
                return Concat((Star(Concat((prefix, last))), prefix))
            return Star(rewrite(inner))
        if isinstance(node, Union):
            raise ValueError("union outside a star cannot be made unionless")
        raise TypeError(f"unknown Kleene node {node!r}")

    return rewrite(expr)


def kleene_to_rf(expr: Kleene, variables: dict = None) -> RationalFunction:
    """Letters to variables, concatenation to product, union to sum,
    star to the geometric series 1/(1 - f).

    Built in factored form, so denominators that several parts share are
    never multiplied together, and expanded once at the end; the result
    remembers its factored form (see :meth:`Factored.of`).
    """
    mapping = variables or {}

    def conv(node):
        if isinstance(node, Epsilon):
            return Factored.const(1)
        if isinstance(node, Letter):
            return Factored.variable(mapping.get(node.label, node.label))
        if isinstance(node, Concat):
            out = conv(node.parts[0])
            for p in node.parts[1:]:
                out = out * conv(p)
            return out
        if isinstance(node, Union):
            return Factored.sum([conv(p) for p in node.parts])
        if isinstance(node, Star):
            return conv(node.inner).star()
        raise TypeError(f"cannot convert {node!r}; expand placeholders first")

    return conv(expr).expand()


# -- enumeration oracles ----------------------------------------------------


def _by_length(words: Counter, maxlen: int):
    buckets = {}
    for w, c in words.items():
        if len(w) <= maxlen:
            buckets.setdefault(len(w), []).append((w, c))
    return buckets


def _combine(a: Counter, b: Counter, maxlen: int) -> Counter:
    # pair only length buckets that can fit inside maxlen
    out = Counter()
    buckets_a = _by_length(a, maxlen)
    buckets_b = _by_length(b, maxlen)
    for la, words_a in buckets_a.items():
        for lb, words_b in buckets_b.items():
            if la + lb > maxlen:
                continue
            for u, cu in words_a:
                for v, cv in words_b:
                    out[u + v] += cu * cv
    return out


def _enumerate(node: Kleene, maxlen: int, cap: int) -> Counter:
    if isinstance(node, Epsilon):
        return Counter({(): 1})
    if isinstance(node, Letter):
        return Counter({(node.label,): 1}) if maxlen >= 1 else Counter()
    if isinstance(node, Concat):
        out = Counter({(): 1})
        for p in node.parts:
            out = _combine(out, _enumerate(p, maxlen, cap), maxlen)
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} words enumerated")
            if not out:
                break
        return out
    if isinstance(node, Union):
        out = Counter()
        for p in node.parts:
            out += _enumerate(p, maxlen, cap)
        if len(out) > cap:
            raise CapExceeded(f"more than {cap} words enumerated")
        return out
    if isinstance(node, Star):
        base = _enumerate(node.inner, maxlen, cap)
        if () in base:
            raise StarOfUnit("empty word under a star makes enumeration diverge")
        total = Counter({(): 1})
        frontier = Counter({(): 1})
        while True:
            frontier = _combine(frontier, base, maxlen)
            if not frontier:
                return total
            total += frontier
            if len(total) > cap:
                raise CapExceeded(f"more than {cap} words enumerated")
    raise TypeError(f"cannot enumerate {node!r}; expand placeholders first")


def kleene_enumerate(
    expr: Kleene, maxlen: int, cap: int = DEFAULT_MAX_PATHS
) -> Counter:
    """All words of length <= maxlen; raises if any word is produced twice."""
    words = _enumerate(expr, maxlen, cap)
    duplicates = sorted(w for w, c in words.items() if c > 1)
    if duplicates:
        raise AmbiguousExpression(
            f"{len(duplicates)} words counted twice, e.g. {''.join(duplicates[0])!r}"
        )
    return words


def enumerate_path_words(
    g: RootedGraph, target: int, maxlen: int, cap: int = DEFAULT_MAX_PATHS
) -> Counter:
    """Label words (with multiplicity) of all length <= maxlen walks root -> target."""
    words = Counter()
    visited = 0
    stack = [(g.root, ())]
    while stack:
        v, word = stack.pop()
        visited += 1
        if visited > cap:
            raise CapExceeded(f"more than {cap} partial paths enumerated")
        if v == target:
            words[word] += 1
        if len(word) == maxlen:
            continue
        for eid in reversed(g.out_edges(v)):
            src, label, dst = g.edges[eid]
            stack.append((dst, word + (label,)))
    return words


def paths_bijection_check(
    g: RootedGraph,
    path_edges,
    lg: LoopGraph,
    maxlen: int,
    cap: int = DEFAULT_MAX_PATHS,
) -> bool:
    """Compare path-word multisets of the source graph and the loop graph."""
    target = g.root
    for eid in path_edges:
        target = g.edges[eid][2]
    flat, end = flatten(lg)
    return enumerate_path_words(g, target, maxlen, cap) == enumerate_path_words(
        flat, end, maxlen, cap
    )
