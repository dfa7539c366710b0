"""Right Cayley graphs and their Karnofsky-Rhodes / McCammond expansions.

All graphs here are rooted labelled multigraphs held as flat edge lists;
edge ids are list positions, which makes edge subsets (transition edges,
spanning trees) cheap and the DOT output byte-deterministic.

The Karnofsky-Rhodes expansion is built directly on the finite state space
(element, crossed transition edges): two free-monoid words are identified
exactly when they reach the same element having crossed the same set of
transition edges of the right Cayley graph, so a BFS over those pairs is the
quotient automaton itself.

The McCammond expansion enumerates the simple paths of its input by DFS,
names each vertex by the word of its unique simple path, and adds an edge
per (vertex, label) as the DFS makes it: forward to the extended word when it
is still simple, otherwise back to the unique initial segment ending at the
revisited vertex.  A stable sort by source gives the edge ids; a forward
(tree) edge is one whose target is numbered after its source, and the
simple-path table is read off those.  Its size is decided first: the
subtree below an Mc vertex is fixed by the key (k, Q), its kr endpoint k and
the on-path kr vertices Q in k's strongly connected component, since no other
on-path vertex is reachable from k.  Counting the simple paths once per key
decides the vertex cap before any Mc vertex is built.

The one unique-simple-path (USP) check builds the loop table Pict reads,
each vertex's cycles closed by edges off a spanning tree: Mc's own, or a
breadth-first tree of any other graph.

A vertex's name, its labels joined (the root's ``IDENTITY_NAME``), is the
one copy of its word: labels form a prefix code without that name, so a
vertex is found by its name.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import CapExceeded, NotUsp
from .semigroup import FiniteSemigroup, IDENTITY_NAME

DEFAULT_MAX_KR = 10**5
DEFAULT_MAX_MC = 10**6


@dataclass(frozen=True)
class KrVertex:
    element: int          # element id in S^1
    crossed: frozenset    # ids of crossed RCay transition edges


@dataclass(frozen=True)
class McVertex:
    kr_vertex: int        # endpoint vertex id in the expanded graph below


class RootedGraph:
    """Labelled directed multigraph with a distinguished root vertex."""

    def __init__(self, payloads, names, edges, root, alphabet):
        self.payloads = list(payloads)
        self.names = list(names)
        self.edges = list(edges)      # (src, label, dst)
        self.root = root
        self.alphabet = list(alphabet)
        self._out = None
        self._in = None
        self._simple_paths = None     # tree paths; mc_expand's are unchecked
        self._loop_table = None       # set by simple_path_edges once they pass
        self._loop_vertices = None    # by loopkleene.pict: LoopVertex per vertex

    def n_vertices(self):
        return len(self.payloads)

    def out_edges(self, v):
        if self._out is None:
            self._out = [[] for _ in self.payloads]
            for i, (src, _, _) in enumerate(self.edges):
                self._out[src].append(i)
        return self._out[v]

    def in_edges(self, v):
        if self._in is None:
            self._in = [[] for _ in self.payloads]
            for i, (_, _, dst) in enumerate(self.edges):
                self._in[dst].append(i)
        return self._in[v]

    def without_out_edges(self, vertex_ids) -> "RootedGraph":
        """Copy of the graph with all out-edges of the given vertices dropped."""
        drop = set(vertex_ids)
        kept = [e for e in self.edges if e[0] not in drop]
        return RootedGraph(self.payloads, self.names, kept, self.root, self.alphabet)


@dataclass
class SccDecomposition:
    component_of: list               # vertex id -> component id
    components: list                 # component id -> sorted vertex ids


def scc(g: RootedGraph) -> SccDecomposition:
    """Tarjan, in one iterative DFS: each vertex gets a preorder number and
    a low mark, the smallest number it reaches among vertices still open;
    a vertex whose low mark is its own number closes its component, the
    open vertices above it on a stack.  Components are renumbered by
    smallest vertex id."""
    n = g.n_vertices()
    targets = [[] for _ in range(n)]
    for src, _, dst in g.edges:
        targets[src].append(dst)
    number = [0] * n      # preorder number from 1; 0 until visited
    low = [0] * n
    comp_of = [None] * n  # closed vertices only, numbered as they close
    open_vertices = []
    closed = 0
    count = 0
    for start in range(n):
        if number[start]:
            continue
        count += 1
        number[start] = low[start] = count
        open_vertices.append(start)
        stack = [(start, iter(targets[start]))]
        while stack:
            v, out = stack[-1]
            for w in out:
                if not number[w]:
                    count += 1
                    number[w] = low[w] = count
                    open_vertices.append(w)
                    stack.append((w, iter(targets[w])))
                    break
                if comp_of[w] is None and number[w] < low[v]:
                    low[v] = number[w]
            else:
                stack.pop()
                if stack and low[v] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[v]
                if low[v] == number[v]:
                    while True:
                        w = open_vertices.pop()
                        comp_of[w] = closed
                        if w == v:
                            break
                    closed += 1
    renumbered = [None] * closed
    components = []
    for v in range(n):
        cid = renumbered[comp_of[v]]
        if cid is None:
            cid = renumbered[comp_of[v]] = len(components)
            components.append([])
        comp_of[v] = cid
        components[cid].append(v)
    return SccDecomposition(comp_of, components)


def transition_edges(g: RootedGraph, decomposition: SccDecomposition) -> set:
    """Edge ids whose endpoints lie in different strongly connected components."""
    comp = decomposition.component_of
    return {
        i for i, (src, _, dst) in enumerate(g.edges) if comp[src] != comp[dst]
    }


def right_cayley(s: FiniteSemigroup) -> RootedGraph:
    """Vertices are S^1 (and the zero, if adjoined); edge v --a--> v*a."""
    ids = list(s.element_ids())
    names = [s.name(eid) for eid in ids]
    edges = []
    for eid in ids:
        for label in s.labels:
            edges.append((eid, label, s.mul(eid, s.gens[label])))
    return RootedGraph(ids, names, edges, s.identity_id, s.labels)


def kr_expand(s: FiniteSemigroup, max_vertices: int = DEFAULT_MAX_KR) -> RootedGraph:
    """Karnofsky-Rhodes expansion as a BFS over (element, crossed-set) pairs.

    The BFS keys its vertices by plain (element id, frozenset) tuples, whose
    hash and equality run in C, and makes one KrVertex per vertex at the end.
    """
    rcay = right_cayley(s)
    trans = transition_edges(rcay, scc(rcay))
    n_labels = len(s.labels)
    root = (s.identity_id, frozenset())
    vertex_of = {root: 0}
    states = [root]       # vertex id -> (element, crossed); the BFS queue
    names = [""]          # the root is renamed once every child has its name
    edges = []
    for vid, (element, crossed) in enumerate(states):  # grows as it goes
        # by right_cayley's construction order, (v, a, va) is edge v|A| + i(a)
        for eid, label in enumerate(s.labels, element * n_labels):
            nxt = (rcay.edges[eid][2], crossed | {eid} if eid in trans else crossed)
            nid = vertex_of.get(nxt)
            if nid is None:
                nid = len(states)
                if nid >= max_vertices:
                    raise CapExceeded(
                        f"KR expansion exceeds {max_vertices} vertices"
                    )
                vertex_of[nxt] = nid
                states.append(nxt)
                names.append(names[vid] + label)
            edges.append((vid, label, nid))
    names[0] = IDENTITY_NAME
    payloads = [KrVertex(element, crossed) for element, crossed in states]
    return RootedGraph(payloads, names, edges, 0, s.labels)


def mc_expand(kr: RootedGraph, max_vertices: int = DEFAULT_MAX_MC):
    """McCammond expansion plus its spanning-tree edge ids.

    Vertices are kr's simple paths from the root in DFS preorder, labels in
    alphabet order; each is named by its word and holds only its kr endpoint.
    Edges are numbered by source, then label.  kr must be label-deterministic,
    as every Karnofsky-Rhodes expansion is.  The graph carries its tree paths,
    which ``simple_path_edges`` checks.  Over max_vertices vertices it raises
    CapExceeded before building any: ``_count_simple_paths`` counts them per
    (endpoint, on-path set of its component) key.
    """
    targets = [{} for _ in range(kr.n_vertices())]
    for src, label, dst in kr.edges:
        if targets[src].setdefault(label, dst) != dst:
            raise NotUsp("McCammond input must be label-deterministic")
    # kr vertex -> its (label, target) pairs in alphabet order
    succ = [
        [(label, out[label]) for label in kr.alphabet if label in out]
        for out in targets
    ]

    _count_simple_paths(kr, succ, max_vertices)

    names = [""]          # mc vertex -> its simple path's word; root renamed last
    endpoint = [kr.root]  # mc vertex -> kr vertex
    # (src, label, dst) as the DFS makes them; every kr edge out of a vertex's
    # endpoint goes to a fresh child, numbered after it (a tree edge), or back
    # to a vertex on the path, numbered no later (a back edge)
    edges = []
    # iterative DFS over simple paths; on_path maps kr vertex -> mc vertex
    on_path = {kr.root: 0}
    stack = [(0, iter(succ[kr.root]))]
    while stack:
        vid, pairs = stack[-1]
        for label, target in pairs:
            back = on_path.get(target)
            if back is not None:
                edges.append((vid, label, back))
                continue
            nid = len(names)
            names.append(names[vid] + label)
            endpoint.append(target)
            edges.append((vid, label, nid))
            on_path[target] = nid
            stack.append((nid, iter(succ[target])))
            break
        else:
            del on_path[endpoint[vid]]
            stack.pop()

    # each vertex's edges were made in label order: edge ids are by source
    edges.sort(key=itemgetter(0))
    payloads = [McVertex(kr_vertex) for kr_vertex in endpoint]
    tree = set()
    paths = [()] * len(names)  # a parent's id is below its child's
    for eid, (src, _, dst) in enumerate(edges):
        if dst > src:
            tree.add(eid)
            paths[dst] = paths[src] + (eid,)
    names[0] = IDENTITY_NAME
    graph = RootedGraph(payloads, names, edges, 0, kr.alphabet)
    graph._simple_paths = paths
    return graph, tree


def _count_simple_paths(kr, succ, max_vertices):
    """CapExceeded as soon as the simple paths from kr's root, which are
    Mc's vertices, pass max_vertices in number.

    The subtree below an Mc vertex is fixed by its kr endpoint k and the set
    of on-path kr vertices in k's strongly connected component: every
    on-path vertex reaches k, so one that k reaches again lies in k's
    component, and no other one matters.  So
    count(k, mask) = 1 + the counts of k's children is memoized, mask holding
    a bit per on-path vertex of k's component.  A child in k's component adds
    its bit (a set bit is a back edge); a child in another one starts afresh.
    The running total, the stack's partial counts, only grows: by 1 per new
    key and by a known count per memo hit, so the cap is decided before any
    Mc vertex is built, in at most max_vertices memo keys.
    """
    parts = scc(kr)
    comp = parts.component_of
    bit = [0] * len(comp)
    for members in parts.components:
        for position, v in enumerate(members):
            bit[v] = 1 << position
    counted = [{} for _ in comp]  # kr vertex -> {mask: subtree size}
    total = 1
    # frames are [kr vertex, mask, targets left, partial count]
    stack = [[kr.root, bit[kr.root], iter(succ[kr.root]), 1]]
    while stack:
        frame = stack[-1]
        k, mask, pairs, _ = frame
        for _, t in pairs:
            if comp[t] != comp[k]:
                key = bit[t]
            elif mask & bit[t]:
                continue
            else:
                key = mask | bit[t]
            size = counted[t].get(key)
            total += 1 if size is None else size
            if total > max_vertices:
                raise CapExceeded(f"Mc expansion exceeds {max_vertices} vertices")
            if size is None:
                stack.append([t, key, iter(succ[t]), 1])
                break
            frame[3] += size
        else:
            stack.pop()
            counted[k][mask] = frame[3]
            if stack:
                stack[-1][3] += frame[3]


def check_usp(g: RootedGraph, max_paths: int = DEFAULT_MAX_MC) -> bool:
    """True iff every vertex is reached by exactly one simple path from the root.

    The check is :func:`simple_path_edges`, which builds the loop table and
    keeps it on success.  max_paths caps the vertices (CapExceeded); in a USP
    graph each is one simple path, so Mc's vertex cap is the default.
    """
    if g.n_vertices() > max_paths:
        raise CapExceeded(
            f"USP check: {g.n_vertices()} vertices exceed {max_paths} simple paths"
        )
    try:
        simple_path_edges(g)
    except NotUsp:
        return False
    return True


def simple_path_edges(g: RootedGraph) -> list:
    """For a USP graph: vertex id -> edge-id tuple of its unique simple path.

    The paths are a spanning tree's, ``mc_expand``'s or else breadth-first,
    and the loop table built on them checks them: the graph is USP exactly
    when every non-tree edge ends at an ancestor of its source or at the
    source (then the first one on a path from the root returns onto it;
    otherwise it extends its source's tree path into a second simple path).
    Only then are both tables kept on the graph; NotUsp is raised on every
    call otherwise.  The loop table is (order, cycles, copies): vertices
    deepest first, each one's loops (``_loops``), and the loop-vertex copies
    Pict hangs below one copy of it, 1 + copies(dst) over its loops' bodies.
    """
    if g._loop_table is None:
        n = g.n_vertices()
        paths = g._simple_paths
        if paths is None:
            paths = [None] * n
            paths[g.root] = ()
            queue = [g.root]
            for v in queue:  # grows as it goes
                for eid in g.out_edges(v):
                    dst = g.edges[eid][2]
                    if paths[dst] is None:
                        paths[dst] = paths[v] + (eid,)
                        queue.append(dst)
            missing = [v for v, p in enumerate(paths) if p is None]
            if missing:
                raise NotUsp(f"vertices not reachable from the root: {missing[:5]}")
        order = sorted(range(n), key=lambda v: -len(paths[v]))
        cycles = [None] * n
        copies = [0] * n
        for v in order:
            loops = cycles[v] = tuple(_loops(g, paths, v))
            count = 0
            for body, _ in loops:
                for eid in body:
                    count += 1 + copies[g.edges[eid][2]]
            copies[v] = count
        g._simple_paths, g._loop_table = paths, (order, cycles, copies)
    return g._simple_paths


def _loops(g, unique, v):
    """(body edges, closing label) of the cycle each non-tree in-edge of v
    closes: the body is the tree path from v to the edge's source.  Raises
    NotUsp for an edge whose source is not below v on the tree."""
    base = unique[v]
    tree_edge = base[-1] if base else None
    for eid in g.in_edges(v):
        if eid == tree_edge:
            continue
        src, closing_label, _ = g.edges[eid]
        if unique[src][: len(base)] != base:
            raise NotUsp(
                f"in-edge source {g.names[src]} does not extend {g.names[v]}"
            )
        yield unique[src][len(base):], closing_label


def _loop_table(g: RootedGraph):
    """The loop table of a USP graph (see :func:`simple_path_edges`), which
    builds and checks it for a graph that has none yet."""
    if g._loop_table is None:
        simple_path_edges(g)
    return g._loop_table


def _dot_string(text):
    """text as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(g: RootedGraph, name="g", blue_edges=(), red_dashed_edges=()):
    """Deterministic DOT text; blue for transition edges, red dashed for back-edges."""
    blue = set(blue_edges)
    red = set(red_dashed_edges)
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for vid in range(g.n_vertices()):
        shape = ' shape=doublecircle' if vid == g.root else ""
        lines.append(f"  v{vid} [label={_dot_string(g.names[vid])}{shape}];")
    for eid, (src, label, dst) in enumerate(g.edges):
        style = ""
        if eid in blue:
            style = " color=blue penwidth=2"
        elif eid in red:
            style = " color=red style=dashed"
        lines.append(f"  v{src} -> v{dst} [label={_dot_string(label)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
