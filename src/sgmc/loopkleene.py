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
graph and in the loop graph agree as multisets, and a Kleene expression for
the loop graph's path language falls out of a single spine walk: emit each
spine label, then a starred union over the loops hanging at the vertex just
entered; loops are expanded recursively the same way.

A copy of v carries the loops of v and nothing else, so the starred union
hung at it depends only on v.  One loop table per graph, which
``expansions`` builds as its USP check (``_loop_table``), holds each
vertex's loops and copy count, and two folds read it.
``loop_stars`` builds S(v), a rational function, once per distinct loop
system: McCammond graphs repeat most of theirs (pinned2's 359 vertices
with loops have 24), and vertices whose cycles carry the same labels
around the same inner stars share one S.  ``path_sums`` reads every
vertex's path sum S(root) x_e1 S(v1) ... off one fold down the tree, each
the product of its parent's with x_e S(v), in the form ``kleene_to_rf``
gives the expanded tree, so no tree is needed for the rational functions.

For the same reason loop graphs and expressions are DAGs owned by their
graph.  ``pict`` checks its cap on the table's copy counts before anything
is built.  A ``pict`` within the cap then builds, from the table's loops,
the LoopVertex of each vertex its loop graph holds that has none yet, with
its loops, their expansions and its starred union, and keeps them on the
graph; every copy of v in every loop graph of that graph is that object,
``algorithm2`` reads the expansions and starred unions, and Letters are
interned.  Their size is linear in the graph's, their prints are those of
the unfolded trees, and callers must not change them.  A print renders each
shared node once (``kleene_texts`` for several expressions).  The walks
that recurse over an expression or an unfolding (``flatten``,
``kleene_to_rf``, the print, the enumeration) raise CapExceeded, naming
the stage, when the nesting outruns Python's recursion limit.

The enumeration oracles check those multisets up to a length:
``enumerate_path_words`` walks a graph's walks from the root one length at a
time, each step extending the whole list of words that reach its source,
and skips every step after which no target is reachable in the length
left; one such walk serves all the targets of a graph.  ``kleene_enumerate``
keeps an expression's words as one dict per length, enumerates each part of
a concatenation only up to the length that the shortest words of the other
parts leave, and each distinct subtree once, at the longest length asked of
it, serving a shorter request by a slice.  A concatenation builds each
joined word once: a side that holds ε once passes the other side's words
through as copies, a side of one word multiplies no counts, and a Letter is
joined to the part before it before the pair meets the product of the
earlier parts, which is so rebuilt once per star and Letter and not once
per part.  The parts are still enumerated left to right, and the cap
checked on each product of parts 0..i before part i + 1 is enumerated, so
CapExceeded and StarOfUnit are raised where they were.  Verification
enumerates all the expressions of a result with one such memo
(``_kleene_words``), since they share their stars.  A nullable star body
raises StarOfUnit exactly where a word of length <= maxlen passes through
the star.

The public oracles return words as label tuples.  The walkers underneath
take the word type from their caller, as the ``spell`` of a tuple of labels
(``_walk_words``); verification spells a word as its labels joined into
one str, exact because a semigroup's labels form a prefix code, and cheaper
to hash.  It also walks all the loop graphs of a result at once: ``flatten``
merges a list of loop graphs on their shared spine prefixes.  Verification
passes every walk the cap the oracles default to, ``DEFAULT_MAX_WORDS``, and
a walk counts its partial walks for all its targets together.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat

from .algebra import RationalFunction
from .errors import (
    AmbiguousExpression,
    CapExceeded,
    NotUsp,
    PathNotInGraph,
    StarOfUnit,
)
from .expansions import (
    RootedGraph,
    _loop_table,
    check_usp,
    simple_path_edges,
)

DEFAULT_MAX_LOOP = 10**6    # loop-vertex copies one Pict unfolding may hold
DEFAULT_MAX_WORDS = 10**7   # words kept, or walks made, by one enumeration


@contextmanager
def nesting_cap(stage: str):
    """CapExceeded naming the stage for a RecursionError in a tree walk;
    usable as a decorator."""
    try:
        yield
    except RecursionError:
        raise CapExceeded(
            f"{stage}: loop nesting is deeper than the recursion limit"
        ) from None


@dataclass(slots=True)
class LoopVertex:
    """A vertex of a loop graph and the loops hung at it.  ``pict`` also
    gives it the star of its loops' expansions (None without loops)."""

    name: str
    loops: list = field(default_factory=list)
    star: Kleene = field(default=None, repr=False, compare=False)


@dataclass(slots=True)
class Loop:
    """A cycle through its attachment vertex.

    labels[j] is the j-th cycle edge; the last edge returns to the attachment
    vertex.  inner[j] is the copy of the vertex entered by labels[j], so there
    are len(labels) - 1 inner vertices, each possibly carrying nested loops.
    ``pict`` also gives it its expansion and the star of the vertex it hangs at.
    """

    labels: list
    inner: list
    expansion: Kleene = field(default=None, repr=False, compare=False)
    star: Kleene = field(default=None, repr=False, compare=False)


@dataclass
class LoopGraph:
    spine_labels: list
    spine: list  # LoopVertex, len(spine_labels) + 1 of them


# -- Pict ------------------------------------------------------------------


def pict(
    g: RootedGraph, path_edges, verify_usp=True, max_vertices=DEFAULT_MAX_LOOP
) -> LoopGraph:
    """Unfold a USP graph along a simple path into a loop graph.

    The spine and every inner copy are the LoopVertex objects built once
    per vertex of the graph (``_build_loop_vertices``), so the loop graph is
    a DAG whose size is linear in the graph's; callers must not change it.
    The unfolding it stands for can grow exponentially in the size of the
    input graph; max_vertices bounds the number of loop-vertex copies in it
    (CapExceeded beyond it), counted on the graph's loop table
    (``_loop_table``); a LoopVertex is built only for a loop graph within
    the cap, when it first holds the vertex.
    """
    if verify_usp and not check_usp(g):
        raise NotUsp("pict requires the unique simple path property")
    unique = simple_path_edges(g)
    if path_edges and not 0 <= path_edges[-1] < len(g.edges):
        raise PathNotInGraph(f"edge {path_edges[-1]} is not an edge of the graph")
    end = g.edges[path_edges[-1]][2] if path_edges else g.root
    # a prefix of a unique simple path is the unique simple path to its end
    if tuple(path_edges) != unique[end]:
        raise PathNotInGraph(
            f"given path to {g.names[end]} is not its unique simple path"
        )
    copies = _loop_table(g)[2]
    spine_ids = [g.root] + [g.edges[e][2] for e in path_edges]
    # the spine counts against the cap too, but with no copy nothing is over
    total = len(spine_ids) + sum(copies[v] for v in spine_ids)
    if total > max(max_vertices, len(spine_ids)):
        raise CapExceeded(
            f"pict: loop graph to {g.names[end]} holds {total} vertices,"
            f" above the cap {max_vertices}"
        )
    _build_loop_vertices(g, unique, spine_ids)
    spine = [g._loop_vertices[v] for v in spine_ids]
    return LoopGraph([g.edges[e][1] for e in path_edges], spine)


def _build_loop_vertices(g: RootedGraph, unique, spine_ids):
    """Build the LoopVertex, complete, of each spine vertex and of each
    vertex its loops reach, where not built yet, from the loop table.

    A loop's expansion is each body label, followed by the star of the copy
    that label enters, then the closing label; a vertex's star is the Star
    of its loops' expansions, a Union if there are several.  Everything a
    vertex reads is deeper, so the vertices are built deepest first.

    A loop's body is the tree path down from the vertex it hangs at to the
    source of its closing edge, and the spine is a whole tree path, so the
    vertices built, and those to build, are closed under tree parents: the
    body of a loop is found by walking up from its source to the first
    vertex that is built or to build.
    """
    if g._loop_vertices is None:
        g._loop_vertices = [None] * g.n_vertices()
    vertices = g._loop_vertices
    _, cycles, _ = _loop_table(g)
    todo = [v for v in spine_ids if vertices[v] is None]
    seen = set(todo)
    for v in todo:  # grows as it goes
        for body, _ in cycles[v]:
            u = g.edges[body[-1]][2] if body else v
            while vertices[u] is None and u not in seen:
                seen.add(u)
                todo.append(u)
                u = g.edges[unique[u][-1]][0]
    todo.sort(key=lambda v: -len(unique[v]))
    for v in todo:
        built = []
        for body, closing_label in cycles[v]:
            labels = []
            inner = []
            parts = []
            for eid in body:
                _, label, dst = g.edges[eid]
                copy = vertices[dst]
                labels.append(label)
                inner.append(copy)
                parts.append(_letter(label))
                if copy.star is not None:
                    parts.append(copy.star)
            labels.append(closing_label)
            parts.append(_letter(closing_label))
            built.append((labels, inner, concat(parts)))
        star = _star_of([expansion for _, _, expansion in built]) if built else None
        loops = [Loop(*cycle, star) for cycle in built]
        vertices[v] = LoopVertex(g.names[v], loops, star)


def _product(g, stars, edges, last) -> RationalFunction:
    """x_e and S(dst e) for each edge, then last, without the Nones,
    multiplied in one pass (``RationalFunction.product``); the form is that
    of ``kleene_to_rf``'s product of the concatenation, and 1 when nothing
    is left."""
    parts = []
    for eid in edges:
        _, label, dst = g.edges[eid]
        parts += [_variable(label), stars[dst]]
    parts.append(last)
    return RationalFunction.product(p for p in parts if p is not None)


_variable = cache(RationalFunction.variable)  # one x_a per label


def loop_stars(g: RootedGraph) -> list:
    """S(v) for every vertex v of a USP graph, or None where v has no loops.

    S(v) is the star of the sum of v's loop products x_b1 S(dst b1) ... x_c,
    one per cycle of the loop table (``_loop_table``).  Each S(v) uses only
    the S of vertices deeper on the tree, so the vertices are taken in the
    table's order, deepest first.

    S(v) is built once per distinct loop system: the key of v lists, per
    cycle in table order, the (label, S(dst)) pair of each body edge and the
    closing label, with the inner stars told apart by identity.  Vertices of
    one key would run the same computation on the same objects, so they
    share the first one's S, which has the form each would have built.
    """
    order, cycles, _ = _loop_table(g)
    stars = [None] * g.n_vertices()
    built = {}  # key -> S
    for v in order:
        if not cycles[v]:
            continue
        key = tuple(
            (tuple((g.edges[eid][1], stars[g.edges[eid][2]]) for eid in body), closing)
            for body, closing in cycles[v]
        )
        star = built.get(key)
        if star is None:
            products = [
                _product(g, stars, body, _variable(closing))
                for body, closing in cycles[v]
            ]
            star = built[key] = RationalFunction.sum(products).star()
        stars[v] = star
    return stars


def path_sums(g: RootedGraph, stars):
    """(v, path sum at v) for every vertex v of a USP graph, in id order,
    from ``loop_stars``: each has the form ``kleene_to_rf`` gives the
    expanded Pict tree of v's unique simple path, S(root) x_e1 S(v1) ....

    The ids must be a preorder of the graph's tree, as ``mc_expand``
    numbers Mc, so that the vertices above v on its path are the stack's
    items when v is reached.  The path sum at v is then one product,
    prefix(parent) x_e S(v), and the stack holds the prefixes of the
    current tree path only.  The product copies the prefix's factors in
    one step, so each vertex costs a step of work however deep it lies.
    """
    paths = simple_path_edges(g)
    stack = []  # (vertex, path sum) down the current tree path
    for v in range(g.n_vertices()):
        path, star = paths[v], stars[v]
        del stack[len(path):]
        parts = () if star is None else (star,)
        if path:
            src, label, _ = g.edges[path[-1]]
            if len(stack) != len(path) or stack[-1][0] != src:
                raise ValueError(f"vertex ids are not a tree preorder at {g.names[v]}")
            parts = (stack[-1][1], _variable(label), *parts)
        entry = (v, RationalFunction.product(parts))
        stack.append(entry)
        yield entry


@nesting_cap("flatten")
def flatten(lg):
    """Materialize a loop graph as a RootedGraph; returns (graph, spine end id).

    Given a list of loop graphs that start at one LoopVertex, it builds one
    graph for them all and returns (graph, list of spine end ids).  The
    spines are merged on their shared prefixes, a step keyed by its label
    and the LoopVertex it enters, so they form a tree, and the loops of each
    vertex of that tree are unfolded once.  Each loop returns to the vertex
    it hangs at, so a walk that turns off a spine into another branch never
    comes back to it, and the walks from the root to a loop graph's spine
    end are exactly those of its own graph.  ``pict``'s loop graphs of one
    graph share their LoopVertex objects, so theirs merge on their common
    tree paths.
    """
    loop_graphs = [lg] if isinstance(lg, LoopGraph) else list(lg)
    if not loop_graphs or any(
        other.spine[0] is not loop_graphs[0].spine[0] for other in loop_graphs
    ):
        raise ValueError("flatten: the loop graphs must start at one vertex")
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

    spine = [loop_graphs[0].spine[0]]  # LoopVertex of each spine id
    steps = {}  # (spine id, label, id of the LoopVertex entered) -> spine id
    ends = []
    for loop_graph in loop_graphs:
        vid = 0
        for label, lv in zip(loop_graph.spine_labels, loop_graph.spine[1:]):
            key = (vid, label, id(lv))
            if key not in steps:
                steps[key] = len(spine)
                spine.append(lv)
                edges.append((vid, label, steps[key]))
            vid = steps[key]
        ends.append(vid)
    for lv in spine:
        add_vertex(lv.name)
    for vid, lv in enumerate(spine):
        emit_loops(lv, vid)
    alphabet = sorted({label for _, label, _ in edges})
    payloads = list(range(len(names)))
    graph = RootedGraph(payloads, names, edges, 0, alphabet)
    return graph, ends[0] if isinstance(lg, LoopGraph) else ends


# -- Kleene expressions ----------------------------------------------------


class Kleene:
    __slots__ = ()

    def __str__(self):
        return kleene_texts([self])[0]


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


@dataclass(frozen=True, slots=True)
class Union(Kleene):
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty union")


@dataclass(frozen=True, slots=True)
class Star(Kleene):
    inner: Kleene


@dataclass(frozen=True, eq=False, slots=True)
class LoopSymbol(Kleene):
    loop: Loop
    index: int

    def __str__(self):
        return f"l{self.index}"


def _printed(node: Kleene, memo: dict) -> str:
    """The print of node, taking each node printed before from memo, keyed
    by id, so a node shared in a DAG is printed once.  It is mapped over the
    parts, so a level of nesting costs one frame."""
    text = memo.get(id(node))
    if text is not None:
        return text
    if isinstance(node, Concat):
        text = "".join(map(_printed, node.parts, repeat(memo)))
    elif isinstance(node, Union):
        text = "{" + ",".join(map(_printed, node.parts, repeat(memo))) + "}"
    elif isinstance(node, Star):
        inner = _printed(node.inner, memo)
        bare = isinstance(node.inner, (Letter, Union))
        text = f"{inner}*" if bare else f"({inner})*"
    else:
        text = str(node)
    memo[id(node)] = text
    return text


@nesting_cap("kleene print")
def kleene_texts(exprs) -> list:
    """str of each expression, every node they share printed once."""
    memo = {}
    return [_printed(expr, memo) for expr in exprs]


def concat(parts) -> Kleene:
    parts = tuple(parts)
    if not parts:
        return Epsilon()
    if len(parts) == 1:
        return parts[0]
    return Concat(parts)


_letter = cache(Letter)  # one Letter per label, shared by every expression


def _star_of(parts) -> Star:
    """Star over the parts, a union if several."""
    return Star(parts[0] if len(parts) == 1 else Union(tuple(parts)))


def _loop_star(lvertex, counter):
    """Star over fresh placeholders for the loops at a vertex, or None."""
    if not lvertex.loops:
        return None
    symbols = []
    for loop in lvertex.loops:
        counter[0] += 1
        symbols.append(LoopSymbol(loop, counter[0]))
    return _star_of(symbols)


def algorithm1(lg: LoopGraph) -> Kleene:
    """Spine walk emitting labels and starred unions of loop placeholders."""
    counter = [0]
    parts = [_loop_star(lg.spine[0], counter)]
    for label, lvertex in zip(lg.spine_labels, lg.spine[1:]):
        parts += [_letter(label), _loop_star(lvertex, counter)]
    return concat(p for p in parts if p is not None)


@nesting_cap("algorithm2")
def algorithm2(expr: Kleene, lg: LoopGraph = None) -> Kleene:
    """Expand every placeholder of a loop ``pict`` built into the loop's
    expansion.

    A star over exactly the placeholders of one vertex's loops, in
    ``algorithm1``'s form, becomes the star ``pict`` built for that vertex;
    any other star over placeholders is a fresh Star.  ``pict`` shares loops
    and stars among all the loop graphs of one Mc graph, so expressions are
    DAGs that share their sub-expressions; callers must not change them.
    """

    def rewrite(node):
        if isinstance(node, (Letter, Epsilon)):
            return node
        if isinstance(node, Concat):
            return concat(rewrite(p) for p in node.parts)
        if isinstance(node, Union):
            return Union(tuple(rewrite(p) for p in node.parts))
        if isinstance(node, Star):
            inner = node.inner
            parts = inner.parts if isinstance(inner, Union) else (inner,)
            star = parts[0].loop.star if isinstance(parts[0], LoopSymbol) else None
            if star is not None and all(isinstance(p, LoopSymbol) for p in parts):
                own = star.inner
                own = own.parts if isinstance(own, Union) else (own,)
                # a union of one placeholder is not pict's form: it prints in braces
                if (len(parts) > 1 or parts[0] is inner) and len(own) == len(parts):
                    if all(e is p.loop.expansion for e, p in zip(own, parts)):
                        return star
            return Star(rewrite(inner))
        if isinstance(node, LoopSymbol):
            if node.loop.expansion is None:
                raise ValueError(f"placeholder {node} is of a loop pict did not build")
            return node.loop.expansion
        raise TypeError(f"unknown Kleene node {node!r}")

    return rewrite(expr)


@nesting_cap("kleene_to_rf")
def kleene_to_rf(expr: Kleene) -> RationalFunction:
    """Letters to variables, concatenation to product, union to sum,
    star to the geometric series 1/(1 - f).

    Denominators that several parts share are never multiplied together
    (see :class:`~sgmc.algebra.RationalFunction`).
    """
    def conv(node):
        if isinstance(node, Epsilon):
            return RationalFunction.const(1)
        if isinstance(node, Letter):
            return RationalFunction.variable(node.label)
        if isinstance(node, Concat):
            out = conv(node.parts[0])
            for p in node.parts[1:]:
                out = out * conv(p)
            return out
        if isinstance(node, Union):
            return RationalFunction.sum([conv(p) for p in node.parts])
        if isinstance(node, Star):
            return conv(node.inner).star()
        raise TypeError(f"cannot convert {node!r}; expand placeholders first")

    return conv(expr)


# -- enumeration oracles ----------------------------------------------------


def _joined(a: dict, b: dict) -> dict:
    """u + v with count cu * cv for every u in a and v in b.  The words of a
    are all of one length, so no two pairs give the same word.  A side of
    one word with count 1 multiplies no counts: the other side's counts are
    the counts of the joined words."""
    if len(b) == 1:
        ((v, cv),) = b.items()
        if cv == 1:
            return {u + v: cu for u, cu in a.items()}
    if len(a) == 1:
        ((u, cu),) = a.items()
        if cu == 1:
            return {u + v: cv for v, cv in b.items()}
    b_items = b.items()
    return {u + v: cu * cv for u, cu in a.items() for v, cv in b_items}


def _add(bucket: dict, words: dict):
    """Add the counts of words to bucket, by one dict update when no word is
    in both (always, unless the expression is ambiguous)."""
    if bucket.keys().isdisjoint(words):
        bucket.update(words)
    else:
        for word, c in words.items():
            bucket[word] = bucket.get(word, 0) + c


def _put(out: list, n: int, words: dict, stored=False):
    """Add words to bucket n of out: as the bucket itself when that is empty,
    or a copy of it when it is stored (held by another list)."""
    if out[n]:
        _add(out[n], words)
    else:
        out[n] = dict(words) if stored else words


def _is_unit(bucket: dict) -> bool:
    """Whether a length-0 bucket is the empty word with count 1."""
    return len(bucket) == 1 and 1 in bucket.values()


def _concat(a: list, b: list, maxlen: int) -> list:
    """Length buckets of the words u + v, u from the buckets a and v from b,
    pairing only nonempty buckets whose lengths fit inside maxlen.

    Where one side's length-0 bucket is the empty word with count 1 (a
    star, or any part holding ε once), its pairs with the other side's
    buckets are those buckets unchanged, passed as copies, so no word is
    rebuilt as u + ε and no stored dict is changed.  When both sides
    qualify, the pair of their length-0 buckets is taken once, so ε keeps
    count 1 (a*·a* holds a twice and ε once)."""
    out = [{} for _ in range(maxlen + 1)]
    unit_a = _is_unit(a[0])
    unit_b = _is_unit(b[0])
    b = [(lb, words_b) for lb, words_b in enumerate(b) if words_b]
    for la, words_a in enumerate(a):
        if words_a:
            for lb, words_b in b:
                if la + lb > maxlen:
                    break
                if lb == 0 and unit_b:
                    _put(out, la, words_a, stored=True)
                elif la == 0 and unit_a:
                    _put(out, lb, words_b, stored=True)
                else:
                    _put(out, la + lb, _joined(words_a, words_b))
    return out


def _counted(buckets: list, cap: int):
    """CapExceeded when buckets hold more than cap words."""
    if sum(map(len, buckets)) > cap:
        raise CapExceeded(f"kleene_enumerate: more than {cap} words enumerated")


def _minlen(node: Kleene, memo: dict) -> int:
    """The length of node's shortest word, kept in memo by id."""
    n = memo.get(id(node))
    if n is None:
        if isinstance(node, (Epsilon, Star)):
            n = 0
        elif isinstance(node, Letter):
            n = 1
        elif isinstance(node, Concat):
            n = sum(map(_minlen, node.parts, repeat(memo)))
        elif isinstance(node, Union):
            n = min(map(_minlen, node.parts, repeat(memo)))
        else:
            raise TypeError(f"cannot enumerate {node!r}; expand placeholders first")
        memo[id(node)] = n
    return n


def _buckets(
    node: Kleene, length: int, cap: int, memo: dict, minlens: dict, spell=tuple
) -> list:
    """The words of node up to length, with multiplicity, one dict per
    length 0..length; a word is the ``spell`` of its labels (``_walk_words``)
    and its length is their number.

    Part i of a concatenation is enumerated up to length minus the shortest
    word lengths (``_minlen``) of the other parts, and the product of parts
    0..i is kept up to length minus those of the later parts, so no word is
    built that no word of the whole extends, and no star is met that no word
    of the whole passes through.  The cap counts the words kept.

    The parts are enumerated left to right, and the cap is checked on the
    product of parts 0..i before part i + 1 is enumerated, as when the
    parts are joined one by one.  That order decides whether CapExceeded or
    StarOfUnit is raised first, and building the product from the last part
    back would not keep it.  A part followed by Letters is joined to them
    before the group meets the product, so the long product of the earlier
    parts is rebuilt once per group and not once per part (pict's spine
    ``a S1 b S2 ... □`` as ``(a S1 b)(S2 c)...``).  A product so skipped is
    checked in its place by the product with the Letter after it: joining a
    Letter keeps the number of words, and a Letter's enumeration raises
    nothing.

    memo maps the id of a node to its buckets at the longest length asked of
    it so far.  Buckets up to a length hold every word up to it, so a
    shorter request is served by a slice, and a longer one enumerates the
    node again (its parts mostly from memo).  A shared subtree (algorithm2
    shares the expansions of loops) is so enumerated once per length it
    grows to, and never beyond the length asked of it.  Keys are ids
    because a node's structural hash walks its whole unfolded tree; the
    caller keeps every node, and so its id, alive while memo is.  A stored
    list is shared by every occurrence of its node, so no list or dict is
    changed after it is stored.
    """
    kept = memo.get(id(node))
    if kept is not None and len(kept) > length:
        return kept[: length + 1]
    if isinstance(node, Epsilon):
        out = [{spell(()): 1}] + [{} for _ in range(length)]
    elif isinstance(node, Letter):
        out = [{} for _ in range(length + 1)]
        if length >= 1:
            out[1] = {spell((node.label,)): 1}
    elif isinstance(node, Concat):
        mins = [_minlen(p, minlens) for p in node.parts]
        later = sum(mins)
        slack = length - later
        if slack < 0:
            out = [{} for _ in range(length + 1)]
        else:
            out = held = None  # held: the parts after out, while a Letter follows
            for i, (p, m) in enumerate(zip(node.parts, mins)):
                words = _buckets(p, slack + m, cap, memo, minlens, spell)
                later -= m
                if held is not None:
                    words = _concat(held, words, len(held) - 1 + m)
                if i + 1 < len(node.parts) and isinstance(node.parts[i + 1], Letter):
                    held = words
                else:
                    out = words if out is None else _concat(out, words, length - later)
                    _counted(out, cap)
                    held = None
    elif isinstance(node, Union):
        out = [{} for _ in range(length + 1)]
        for p in node.parts:
            parts = _buckets(p, length, cap, memo, minlens, spell)
            for bucket, part in zip(out, parts):
                if part:
                    _add(bucket, part)
        _counted(out, cap)
    elif isinstance(node, Star):
        base = _buckets(node.inner, length, cap, memo, minlens, spell)
        if base[0]:
            raise StarOfUnit("empty word under a star makes enumeration diverge")
        # a word of length n of the star is a word of length k >= 1 of the
        # body followed by a word of length n - k of the star
        body = [(k, words) for k, words in enumerate(base) if words]
        out = [{spell(()): 1}] + [{} for _ in range(length)]
        for n in range(1, length + 1):
            for k, words in body:
                if k > n:
                    break
                if k == n:
                    _put(out, n, words, stored=True)
                elif out[n - k]:
                    _put(out, n, _joined(words, out[n - k]))
            _counted(out, cap)
    else:
        raise TypeError(f"cannot enumerate {node!r}; expand placeholders first")
    memo[id(node)] = out
    return out


def _kleene_words(exprs, maxlen: int, cap: int, spell=tuple):
    """For each expression in turn, its words of length <= maxlen as one
    dict per length 0..maxlen, each word the ``spell`` of its labels
    (``_walk_words``); AmbiguousExpression if a word of it is produced
    twice, and otherwise every count is 1.

    One memo (``_buckets``) serves all the expressions: ``pict`` shares
    loops and stars among all the terminals of a graph, so a subtree they
    share is enumerated once for all of them.  An expression's own entry is
    dropped once its words are read, as it is mostly not a part of another.
    The expressions read are kept, so no id in memo is reused.
    """
    if maxlen < 0:
        raise ValueError(f"maxlen must be at least 0, got {maxlen}")
    memo = {}
    minlens = {}
    read = []
    for expr in exprs:
        read.append(expr)
        with nesting_cap("kleene_enumerate"):
            buckets = _buckets(expr, maxlen, cap, memo, minlens, spell)
        memo.pop(id(expr), None)
        duplicates = sorted(
            w
            for bucket in buckets
            if max(bucket.values(), default=1) > 1
            for w, c in bucket.items()
            if c > 1
        )
        if duplicates:
            example = "".join(duplicates[0])  # a joined word joins to itself
            raise AmbiguousExpression(
                f"{len(duplicates)} words counted twice, e.g. {example!r}"
            )
        yield buckets


def _merged(buckets: list) -> Counter:
    """The words of all the length buckets in one Counter."""
    words = Counter()
    for bucket in buckets:
        dict.update(words, bucket)  # words of different lengths differ
    return words


def kleene_enumerate(
    expr: Kleene, maxlen: int, cap: int = DEFAULT_MAX_WORDS
) -> Counter:
    """All words of length <= maxlen; raises if any word is produced twice."""
    return _merged(next(_kleene_words([expr], maxlen, cap)))


def _distances_to(g: RootedGraph, targets, maxlen: int) -> list:
    """Length of a shortest walk from each vertex to a target, by a reverse
    breadth-first search that stops at maxlen; None where it is longer."""
    dist = [None] * g.n_vertices()
    frontier = list(targets)
    for t in frontier:
        dist[t] = 0
    for d in range(1, maxlen + 1):
        reached = []
        for v in frontier:
            for eid in g.in_edges(v):
                src = g.edges[eid][0]
                if dist[src] is None:
                    dist[src] = d
                    reached.append(src)
        frontier = reached
    return dist


def _walk_words(g: RootedGraph, targets, maxlen: int, cap: int, spell=tuple) -> dict:
    """Label words (with multiplicity) of all length <= maxlen walks from the
    root to each target, one length at a time: target -> Counter.

    A word is ``spell`` of its labels: ``tuple`` keys the Counters by label
    tuples, as the public walkers return them, and ``"".join`` by the
    labels joined into one str, whose hash, unlike a tuple's, is computed
    once.  Joining loses nothing where the labels form a prefix code, as a
    semigroup's do (``semigroup._require_prefix_code``): then distinct
    label sequences join to distinct strings, and strings sort as their
    label tuples do.  Where two words first differ in a label, neither
    label is a prefix of the other, so the strings first differ at the
    character where the two labels do; otherwise one word is a prefix of
    the other, and so is its string.

    Layer n maps each vertex to the words of the length-n walks that reach
    it; a step extends a vertex's whole list at once, and a target counts
    its list in one Counter.update.  A step is taken only if some target can
    still be reached in the length left after it, so every partial walk in
    a layer is a prefix of a counted one: the layers hold exactly the walks
    a depth-first walk with this pruning visits, and no more than the walk
    over all length <= maxlen walks.  More than cap partial walks raise
    CapExceeded before the layer that would hold them is built.
    """
    if maxlen < 0:
        raise ValueError(f"maxlen must be at least 0, got {maxlen}")
    words = {t: Counter() for t in targets}
    dist = _distances_to(g, words, maxlen)
    if dist[g.root] is None:
        return words
    steps = {}  # (dist, label suffix, dst) for each step towards a target
    for v, d in enumerate(dist):
        if d is not None:
            out = (g.edges[eid] for eid in g.out_edges(v))
            steps[v] = [
                (dist[t], spell((a,)), t) for _, a, t in out if dist[t] is not None
            ]
    # (a layer's words at one vertex, the steps they take); the root's empty
    # word comes from one step with the empty suffix
    empty = spell(())
    moves = [([empty], [(empty, g.root)])]
    visited = 0
    for left in range(maxlen, -1, -1):
        visited += sum(len(ws) * len(to) for ws, to in moves)
        if visited > cap:
            raise CapExceeded(
                f"enumerate_path_words: more than {cap} partial walks enumerated"
            )
        layer = {}
        while moves:  # each list of the last layer goes once it is extended
            ws, to = moves.pop()
            for suffix, dst in to:
                extended = [w + suffix for w in ws]
                if dst in layer:
                    layer[dst] += extended
                else:
                    layer[dst] = extended
        for v, ws in layer.items():
            if v in words:
                words[v].update(ws)
            moves.append((ws, [(sfx, t) for d, sfx, t in steps[v] if d < left]))
        del layer
    return words


def enumerate_path_words(
    g: RootedGraph, target: int, maxlen: int, cap: int = DEFAULT_MAX_WORDS
) -> Counter:
    """Label words (with multiplicity) of all length <= maxlen walks root -> target."""
    return _walk_words(g, (target,), maxlen, cap)[target]
