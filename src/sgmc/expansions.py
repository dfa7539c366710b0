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
labels each vertex by the word of its unique simple path, and adds an edge
per (vertex, label): forward to the extended word when it is still simple,
otherwise back to the unique initial segment ending at the revisited vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NotUsp, PathNotInGraph
from .semigroup import FiniteSemigroup, IDENTITY_NAME

DEFAULT_MAX_KR = 10**5
DEFAULT_MAX_MC = 10**6
DEFAULT_MAX_PATHS = 10**6


@dataclass(frozen=True)
class KrVertex:
    element: int          # element id in S^1
    crossed: frozenset    # ids of crossed RCay transition edges


@dataclass(frozen=True)
class McVertex:
    word: tuple           # labels of the unique simple path from the root
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
        self._simple_paths = None

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
    dag_edges: set                   # (component, component), no self pairs


def scc(g: RootedGraph) -> SccDecomposition:
    """Iterative Tarjan; components renumbered by their smallest vertex id."""
    n = g.n_vertices()
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp_of = [None] * n
    raw_components = []
    counter = 0
    for start in range(n):
        if index[start] is not None:
            continue
        work = [(start, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            out = g.out_edges(v)
            while ei < len(out):
                w = g.edges[out[ei]][2]
                ei += 1
                if index[w] is None:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                raw_components.append(sorted(comp))
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    raw_components.sort(key=lambda c: c[0])
    components = raw_components
    for cid, comp in enumerate(components):
        for v in comp:
            comp_of[v] = cid
    dag = set()
    for src, _, dst in g.edges:
        a, b = comp_of[src], comp_of[dst]
        if a != b:
            dag.add((a, b))
    return SccDecomposition(comp_of, components, dag)


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
    """Karnofsky-Rhodes expansion as a BFS over (element, crossed-set) pairs."""
    rcay = right_cayley(s)
    trans = transition_edges(rcay, scc(rcay))
    # RCay is label-deterministic: edge id of (v, a, va) by construction order
    edge_id = {}
    for i, (src, label, _) in enumerate(rcay.edges):
        edge_id[(src, label)] = i
    root = KrVertex(s.identity_id, frozenset())
    vertex_of = {root: 0}
    payloads = [root]
    words = [()]
    edges = []
    queue = [0]
    head = 0
    while head < len(queue):
        vid = queue[head]
        head += 1
        state = payloads[vid]
        for label in s.labels:
            eid = edge_id[(state.element, label)]
            target_elem = rcay.edges[eid][2]
            crossed = state.crossed | {eid} if eid in trans else state.crossed
            nxt = KrVertex(target_elem, crossed)
            nid = vertex_of.get(nxt)
            if nid is None:
                if len(payloads) >= max_vertices:
                    raise CapExceeded(
                        f"KR expansion exceeds {max_vertices} vertices"
                    )
                nid = len(payloads)
                vertex_of[nxt] = nid
                payloads.append(nxt)
                words.append(words[vid] + (label,))
                queue.append(nid)
            edges.append((vid, label, nid))
    names = [word_name(w) for w in words]
    return RootedGraph(payloads, names, edges, 0, s.labels)


def word_name(word) -> str:
    return "".join(word) if word else IDENTITY_NAME


def mc_expand(kr: RootedGraph, max_vertices: int = DEFAULT_MAX_MC):
    """McCammond expansion plus its spanning-tree edge ids.

    Vertices are the simple paths of kr from the root, discovered in DFS
    preorder with labels in alphabet order.  Requires kr to be
    label-deterministic (true for every Karnofsky-Rhodes expansion).
    """
    succ = {}
    for src, label, dst in kr.edges:
        if (src, label) in succ and succ[(src, label)] != dst:
            raise NotUsp("McCammond input must be label-deterministic")
        succ[(src, label)] = dst

    parent = [None]       # mc vertex -> (parent id, label)
    endpoint = [kr.root]  # mc vertex -> kr vertex
    depth = [0]
    child = {}            # (mc vertex, label) -> child mc vertex
    # iterative DFS over simple paths; on_path maps kr vertex -> mc vertex
    on_path = {kr.root: 0}
    stack = [(0, iter(kr.alphabet))]
    while stack:
        vid, labels = stack[-1]
        advanced = False
        for label in labels:
            target = succ.get((endpoint[vid], label))
            if target is None or target in on_path:
                continue
            if len(parent) >= max_vertices:
                raise CapExceeded(f"Mc expansion exceeds {max_vertices} vertices")
            nid = len(parent)
            parent.append((vid, label))
            endpoint.append(target)
            depth.append(depth[vid] + 1)
            child[(vid, label)] = nid
            on_path[target] = nid
            stack.append((nid, iter(kr.alphabet)))
            advanced = True
            break
        if not advanced:
            del on_path[endpoint[vid]]
            stack.pop()

    def word_of(vid):
        out = []
        while parent[vid] is not None:
            vid, label = parent[vid]
            out.append(label)
        return tuple(reversed(out))

    words = [word_of(v) for v in range(len(parent))]
    payloads = [McVertex(words[v], endpoint[v]) for v in range(len(parent))]
    edges = []
    tree = set()
    for vid in range(len(parent)):
        ancestors = None
        for label in kr.alphabet:
            target = succ.get((endpoint[vid], label))
            if target is None:
                continue
            nid = child.get((vid, label))
            if nid is not None:
                tree.add(len(edges))
                edges.append((vid, label, nid))
                continue
            if ancestors is None:
                ancestors = {}
                walk = vid
                while walk is not None:
                    ancestors[endpoint[walk]] = walk
                    walk = parent[walk][0] if parent[walk] else None
            back = ancestors.get(target)
            if back is None:
                raise NotUsp(
                    f"edge target {target} is neither fresh nor on the path"
                )
            edges.append((vid, label, back))
    names = [word_name(w) for w in words]
    graph = RootedGraph(payloads, names, edges, 0, kr.alphabet)
    return graph, tree


def check_usp(g: RootedGraph, max_paths: int = DEFAULT_MAX_PATHS) -> bool:
    """True iff every vertex is reached by exactly one simple path from the root."""
    counts = [0] * g.n_vertices()
    seen_paths = 0
    on_path = {g.root}
    stack = [(g.root, iter(g.out_edges(g.root)))]
    counts[g.root] = 1
    seen_paths = 1
    while stack:
        vid, edge_iter = stack[-1]
        advanced = False
        for eid in edge_iter:
            dst = g.edges[eid][2]
            if dst in on_path:
                continue
            seen_paths += 1
            if seen_paths > max_paths:
                raise CapExceeded(f"more than {max_paths} simple paths")
            counts[dst] += 1
            if counts[dst] > 1:
                return False
            on_path.add(dst)
            stack.append((dst, iter(g.out_edges(dst))))
            advanced = True
            break
        if not advanced:
            on_path.discard(vid)
            stack.pop()
    return all(c == 1 for c in counts)


def simple_path_edges(g: RootedGraph) -> list:
    """For a USP graph: vertex id -> edge-id tuple of its unique simple path.

    The table is found once per graph and kept on it, like its edge lists.
    Raises NotUsp, on every call, if some vertex has zero or several simple
    paths.
    """
    if g._simple_paths is not None:
        return g._simple_paths
    paths = [None] * g.n_vertices()
    paths[g.root] = ()
    on_path = {g.root}
    stack = [(g.root, iter(g.out_edges(g.root)))]
    while stack:
        vid, edge_iter = stack[-1]
        advanced = False
        for eid in edge_iter:
            dst = g.edges[eid][2]
            if dst in on_path:
                continue
            if paths[dst] is not None:
                raise NotUsp(f"vertex {g.names[dst]} has two simple paths")
            paths[dst] = paths[vid] + (eid,)
            on_path.add(dst)
            stack.append((dst, iter(g.out_edges(dst))))
            advanced = True
            break
        if not advanced:
            on_path.discard(vid)
            stack.pop()
    missing = [v for v, p in enumerate(paths) if p is None]
    if missing:
        raise NotUsp(f"vertices not reachable from the root: {missing[:5]}")
    g._simple_paths = paths
    return paths


def path_from_word(g: RootedGraph, word) -> list:
    """Edge ids of the path spelled by a word from the root (deterministic graphs)."""
    out = []
    v = g.root
    for label in word:
        eid = next(
            (i for i in g.out_edges(v) if g.edges[i][1] == label), None
        )
        if eid is None:
            raise PathNotInGraph(f"no {label!r}-edge out of {g.names[v]}")
        out.append(eid)
        v = g.edges[eid][2]
    return out


def render_dot(g: RootedGraph, name="g", blue_edges=(), red_dashed_edges=()):
    """Deterministic DOT text; blue for transition edges, red dashed for back-edges."""
    blue = set(blue_edges)
    red = set(red_dashed_edges)
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for vid in range(g.n_vertices()):
        shape = ' shape=doublecircle' if vid == g.root else ""
        lines.append(f'  v{vid} [label="{g.names[vid]}"{shape}];')
    for eid, (src, label, dst) in enumerate(g.edges):
        style = ""
        if eid in blue:
            style = " color=blue penwidth=2"
        elif eid in red:
            style = " color=red style=dashed"
        lines.append(f'  v{src} -> v{dst} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
