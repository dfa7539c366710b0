import itertools
import random

import pytest

from sgmc.errors import CapExceeded, NotUsp
from sgmc.expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    RootedGraph,
    check_usp,
    kr_expand,
    mc_expand,
    render_dot,
    right_cayley,
    scc,
    simple_path_edges,
    transition_edges,
)
from sgmc.loopkleene import loop_stars
from sgmc.pipeline import _expand
from sgmc.semigroup import FiniteSemigroup, IDENTITY_NAME

import reference
from conftest import tree_word

TWO_STATE_GENS = [("1", (0, 0)), ("2", (1, 1)), ("3", (1, 0))]
D2_GENS = [("a", (1, 0, 3, 2)), ("b", (2, 3, 0, 1))]
LEFT_ZERO_BAND = [("u", (0, 0)), ("v", (1, 1))]


def walk(g, word):
    """Endpoint of the word read from the root of a label-deterministic graph."""
    v = g.root
    for label in word:
        eid = next(i for i in g.out_edges(v) if g.edges[i][1] == label)
        v = g.edges[eid][2]
    return v


def brute_force_kr(s, max_len):
    """Quotient of words by (endpoint, crossed transition edges), by enumeration.

    Independent of the BFS construction: walks the right Cayley graph for
    every word up to max_len and collects the distinct signatures and the
    transitions between them.
    """
    rcay = right_cayley(s)
    trans = transition_edges(rcay, scc(rcay))
    edge_at = {(src, lab): i for i, (src, lab, _) in enumerate(rcay.edges)}

    def signature(word):
        v = rcay.root
        crossed = frozenset()
        for label in word:
            eid = edge_at[(v, label)]
            if eid in trans:
                crossed = crossed | {eid}
            v = rcay.edges[eid][2]
        return (v, crossed)

    vertices = set()
    edges = set()
    for length in range(max_len + 1):
        for word in itertools.product(s.labels, repeat=length):
            sig = signature(word)
            vertices.add(sig)
            for label in s.labels:
                edges.add((sig, label, signature(word + (label,))))
    return vertices, edges


class TestRightCayley:
    def test_group_graph(self):
        s = FiniteSemigroup.generate(D2_GENS)
        g = right_cayley(s)
        assert g.n_vertices() == 5
        assert all(len(g.out_edges(v)) == 2 for v in range(5))
        blue = transition_edges(g, scc(g))
        starts = {g.edges[i][:2] for i in blue}
        assert starts == {(g.root, "a"), (g.root, "b")}

    def test_group_components(self):
        s = FiniteSemigroup.generate(D2_GENS)
        g = right_cayley(s)
        d = scc(g)
        comps = {frozenset(c) for c in d.components}
        assert frozenset([g.root]) in comps
        assert len(comps) == 2

    def test_two_state_chain_graph(self):
        s = FiniteSemigroup.generate(TWO_STATE_GENS)
        g = right_cayley(s)
        d = scc(g)
        comps = {frozenset(g.names[v] for v in c) for c in d.components}
        assert comps == {
            frozenset([IDENTITY_NAME]),
            frozenset(["3", "33"]),
            frozenset(["1"]),
            frozenset(["2"]),
        }
        assert len(transition_edges(g, d)) == 7

    def test_trivial_semigroup(self):
        s = FiniteSemigroup.generate([("e", (0,))])
        g = right_cayley(s)
        assert g.n_vertices() == 2
        assert g.edges == [(0, "e", 1), (1, "e", 1)]

    def test_one_big_scc_only_root_edges_transitional(self):
        s = FiniteSemigroup.generate(D2_GENS)
        g = right_cayley(s)
        blue = transition_edges(g, scc(g))
        assert all(g.edges[i][0] == g.root for i in blue)


class TestSccBasics:
    def test_self_loop_single_component(self):
        g = RootedGraph([0], ["r"], [(0, "x", 0)], 0, ["x"])
        assert len(scc(g).components) == 1

    def test_components_are_the_mutual_reachability_classes(self):
        rnd = random.Random(2207)
        for _ in range(300):
            n = rnd.randint(1, 30)
            edges = [
                (v, "x", rnd.randrange(n))  # a self-loop now and then
                for v in range(n)
                for _ in range(rnd.randint(0, 3))
            ]
            g = RootedGraph(range(n), map(str, range(n)), edges, 0, ["x"])
            reach = []
            for v in range(n):
                seen, stack = {v}, [v]
                while stack:
                    for eid in g.out_edges(stack.pop()):
                        w = g.edges[eid][2]
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                reach.append(seen)
            classes = sorted(
                {tuple(w for w in sorted(reach[v]) if v in reach[w]) for v in range(n)}
            )
            d = scc(g)
            # classes sort by their smallest vertex, as components are numbered
            assert d.components == [list(c) for c in classes]
            assert d.component_of == [
                next(c for c, members in enumerate(classes) if v in members)
                for v in range(n)
            ]

    def test_deep_cycle_with_tails(self):
        # a path 0 -> 1 -> ... -> n-1 closed by n-1 -> k: the tail 0..k-1 leads
        # in, and a second tail leaves the cycle from k; far deeper than any
        # recursion limit
        n, k = 10**5, 4
        edges = [(v, "x", v + 1) for v in range(n - 1)] + [(n - 1, "x", k)]
        edges += [(k, "y", n), (n, "x", n + 1)]
        g = RootedGraph(range(n + 2), map(str, range(n + 2)), edges, 0, ["x", "y"])
        d = scc(g)
        singles = [[v] for v in range(k)]
        assert d.components == singles + [list(range(k, n)), [n], [n + 1]]
        assert d.component_of == list(range(k)) + [k] * (n - k) + [k + 1, k + 2]
        assert len(transition_edges(g, d)) == k + 2


class TestKrExpansion:
    def test_group_expansion(self):
        s = FiniteSemigroup.generate(D2_GENS)
        kr = kr_expand(s)
        assert kr.n_vertices() == 9
        # same endpoint and same crossed transition edge: identified
        assert walk(kr, "aab") == walk(kr, "aba")
        # same endpoint but different crossed edges: distinct
        assert walk(kr, "ab") != walk(kr, "ba")

    def test_left_zero_band_against_brute_force(self):
        s = FiniteSemigroup.generate(LEFT_ZERO_BAND)
        kr = kr_expand(s)
        vertices, edges = brute_force_kr(s, max_len=5)
        assert kr.n_vertices() == len(vertices) == 3
        rebuilt = {
            ((kr.payloads[a].element, kr.payloads[a].crossed), lab,
             (kr.payloads[b].element, kr.payloads[b].crossed))
            for a, lab, b in kr.edges
        }
        assert rebuilt == edges

    def test_two_state_chain_against_brute_force(self):
        s = FiniteSemigroup.generate(TWO_STATE_GENS)
        kr = kr_expand(s)
        vertices, _ = brute_force_kr(s, max_len=6)
        assert kr.n_vertices() == len(vertices) == 9

    def test_trivial(self):
        s = FiniteSemigroup.generate([("e", (0,))])
        kr = kr_expand(s)
        assert kr.n_vertices() == 2
        assert set(kr.names) == {IDENTITY_NAME, "e"}

    def test_deterministic_and_complete(self):
        s = FiniteSemigroup.generate(TWO_STATE_GENS)
        kr = kr_expand(s)
        for v in range(kr.n_vertices()):
            labels = [kr.edges[i][1] for i in kr.out_edges(v)]
            assert sorted(labels) == sorted(s.labels)

    def test_crossed_sets_replay(self):
        s = FiniteSemigroup.generate(D2_GENS)
        rcay = right_cayley(s)
        trans = transition_edges(rcay, scc(rcay))
        edge_at = {(src, lab): i for i, (src, lab, _) in enumerate(rcay.edges)}
        kr = kr_expand(s)
        for vid in range(kr.n_vertices()):
            state = kr.payloads[vid]
            word = kr.names[vid] if kr.names[vid] != IDENTITY_NAME else ""
            v = rcay.root
            crossed = set()
            for label in word:
                eid = edge_at[(v, label)]
                if eid in trans:
                    crossed.add(eid)
                v = rcay.edges[eid][2]
            assert v == state.element
            assert frozenset(crossed) == state.crossed

    def test_cap(self):
        s = FiniteSemigroup.generate(D2_GENS)
        with pytest.raises(CapExceeded):
            kr_expand(s, max_vertices=4)


class TestMcExpansion:
    def test_group_expansion_matches_figure(self, d2_semigroup):
        kr = kr_expand(d2_semigroup)
        mc, tree = mc_expand(kr)
        assert mc.n_vertices() == 15
        words = {mc.names[v] for v in range(mc.n_vertices())}
        assert words == {
            IDENTITY_NAME, "a", "b", "aa", "ab", "ba", "bb",
            "aab", "aba", "bab", "bba", "aaba", "abab", "baba", "bbab",
        }
        back = [i for i in range(len(mc.edges)) if i not in tree]
        assert len(tree) == 14
        assert len(back) == 16
        long_backs = [
            mc.edges[i] for i in back
            if mc.names[mc.edges[i][2]] in ("a", "b")
            and mc.names[mc.edges[i][0]] not in ("aa", "ab", "ba", "bb")
        ]
        assert len(long_backs) == 4
        assert {mc.names[src] for src, _, _ in long_backs} == {
            "aaba", "abab", "baba", "bbab",
        }
        # every other back-edge returns to the immediate parent word
        short_backs = [mc.edges[i] for i in back if mc.edges[i] not in long_backs]
        for src, _, dst in short_backs:
            assert mc.names[src][:-1] == mc.names[dst] or (
                len(mc.names[src]) == 2 and mc.names[dst] in ("a", "b")
            )

    def test_two_state_chain_expansion(self, two_state_semigroup):
        kr = kr_expand(two_state_semigroup)
        mc, tree = mc_expand(kr)
        assert mc.n_vertices() == 9
        back = [mc.edges[i] for i in range(len(mc.edges)) if i not in tree]
        named = {(mc.names[a], lab, mc.names[b]) for a, lab, b in back}
        # loops on the two ideal states, plus the single descent 33 -> 3
        assert ("33", "3", "3") in named
        loops = {t for t in named if t[0] == t[2]}
        assert named - loops == {("33", "3", "3")}

    def test_straight_path_is_fixed_point(self):
        g = RootedGraph(
            [0, 1, 2, 3],
            ["r", "p", "q", "s"],
            [(0, "x", 1), (1, "y", 2), (2, "z", 3)],
            0,
            ["x", "y", "z"],
        )
        mc, tree = mc_expand(g)
        assert mc.n_vertices() == 4
        assert len(mc.edges) == 3 and len(tree) == 3

    def test_usp_holds(self, d2_semigroup, two_state_semigroup):
        for s in (d2_semigroup, two_state_semigroup):
            mc, _ = mc_expand(kr_expand(s))
            assert check_usp(mc)

    def test_back_edges_stay_in_component(self, d2_semigroup):
        kr = kr_expand(d2_semigroup)
        comp = scc(kr).component_of
        mc, tree = mc_expand(kr)
        for i, (src, _, dst) in enumerate(mc.edges):
            if i in tree:
                continue
            assert (
                comp[mc.payloads[src].kr_vertex] == comp[mc.payloads[dst].kr_vertex]
            )

    def test_projection_commutes(self, d2_semigroup):
        s = d2_semigroup
        mc, _ = mc_expand(kr_expand(s))
        rnd = random.Random(2)
        for _ in range(50):
            word = tuple(rnd.choice(s.labels) for _ in range(rnd.randint(0, 8)))
            end = walk(mc, word)
            assert reference.eval_word(s, tree_word(mc, end)) == reference.eval_word(s, word)

    def test_cap(self, d2_semigroup):
        with pytest.raises(CapExceeded):
            mc_expand(kr_expand(d2_semigroup), max_vertices=5)


class TestCheckUsp:
    def test_group_cayley_graph_fails(self, d2_semigroup):
        assert not check_usp(right_cayley(d2_semigroup))

    def test_single_path_graph(self):
        g = RootedGraph(
            [0, 1], ["r", "t"], [(0, "x", 1)], 0, ["x"]
        )
        assert check_usp(g)

    def test_unique_paths_listing(self, two_state_semigroup):
        mc, tree = mc_expand(kr_expand(two_state_semigroup))
        unique = simple_path_edges(mc)
        for vid, edge_ids in enumerate(unique):
            assert all(e in tree for e in edge_ids)
            assert ("".join(tree_word(mc, vid)) or IDENTITY_NAME) == mc.names[vid]

    def test_non_usp_listing_raises(self, d2_semigroup):
        g = right_cayley(d2_semigroup)
        for _ in range(2):
            with pytest.raises(NotUsp):
                simple_path_edges(g)

    def test_listing_found_once_per_graph(self, two_state_semigroup):
        mc, _ = mc_expand(kr_expand(two_state_semigroup))
        assert simple_path_edges(mc) is simple_path_edges(mc)

    @pytest.mark.parametrize("kind", ["usp", "two_paths", "unreachable", "any"])
    def test_agrees_with_brute_force_path_count(self, kind):
        rnd = random.Random(f"usp-{kind}")
        for _ in range(40):
            n = rnd.randint(1 if kind in ("usp", "any") else 2, 6)
            edges = random_graph_edges(rnd, n, kind)
            paths = brute_force_simple_paths(n, edges)
            usp = all(len(found) == 1 for found in paths)
            if kind == "usp":
                assert usp
            elif kind != "any":
                assert not usp
            # a fresh graph each time, so no table is cached before the call
            assert check_usp(labelled_graph(n, edges)) == usp
            g = labelled_graph(n, edges)
            if usp:
                assert simple_path_edges(g) == [found[0] for found in paths]
                assert check_usp(g)
            else:
                with pytest.raises(NotUsp):
                    simple_path_edges(g)

    @pytest.mark.parametrize("kind", ["usp", "two_paths"])
    def test_loop_table_checks_a_spanning_tree_table(self, kind):
        # a table set from a spanning tree, as mc_expand sets it, is checked
        # by the loop pass: every non-tree edge must end at an ancestor
        rnd = random.Random(f"tree-{kind}")
        for _ in range(40):
            n = rnd.randint(1 if kind == "usp" else 2, 6)
            edges = random_graph_edges(rnd, n, kind)
            g = labelled_graph(n, edges)
            g._simple_paths = spanning_tree_paths(g, rnd)
            if kind == "usp":
                assert g._simple_paths == simple_path_edges(labelled_graph(n, edges))
                assert len(loop_stars(g)) == n
            else:
                for _ in range(2):
                    with pytest.raises(NotUsp):
                        loop_stars(g)

    def test_tampered_tree_table_fails(self, d2c_semigroup):
        # d2c's boxed Mc, copied with mc_expand's tree table kept on the copy,
        # and one back edge sent to a vertex off its source's tree path
        boxed = d2c_semigroup.adjoin_zero("□")
        _, mc, tree, _ = _expand(boxed, DEFAULT_MAX_KR, DEFAULT_MAX_MC)
        paths = mc._simple_paths
        eid = min(set(range(len(mc.edges))) - tree)
        src, label, _ = mc.edges[eid]
        on_path = {mc.root} | {mc.edges[e][2] for e in paths[src]}
        off = min(set(range(mc.n_vertices())) - on_path)
        edges = list(mc.edges)
        edges[eid] = (src, label, off)
        g = RootedGraph(mc.payloads, mc.names, edges, mc.root, mc.alphabet)
        g._simple_paths = paths
        assert check_usp(g) is False
        for _ in range(2):
            with pytest.raises(NotUsp):
                simple_path_edges(g)
            with pytest.raises(NotUsp):
                loop_stars(g)
        assert g._loop_table is None
        assert check_usp(mc) and simple_path_edges(mc) is paths

    @pytest.mark.parametrize("kind", ["two_paths", "unreachable"])
    def test_failed_check_keeps_no_table(self, kind):
        rnd = random.Random(f"kept-{kind}")
        for _ in range(40):
            n = rnd.randint(2, 6)
            g = labelled_graph(n, random_graph_edges(rnd, n, kind))
            for _ in range(2):
                assert not check_usp(g)
                assert g._simple_paths is None and g._loop_table is None

    def test_vertex_count_over_cap(self):
        chain = labelled_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(CapExceeded):
            check_usp(chain, max_paths=4)
        assert check_usp(chain, max_paths=5)
        two = labelled_graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        with pytest.raises(CapExceeded):
            check_usp(two, max_paths=4)
        assert not check_usp(two, max_paths=5)


def labelled_graph(n, edges):
    """RootedGraph on vertices 0..n-1, root 0, one fresh label per edge."""
    labelled = [(src, f"e{i}", dst) for i, (src, dst) in enumerate(edges)]
    return RootedGraph(
        list(range(n)), [f"v{v}" for v in range(n)], labelled, 0,
        [label for _, label, _ in labelled],
    )


def spanning_tree_paths(g, rnd):
    """Edge-id paths from the root on a spanning tree that a breadth-first
    search finds, taking each vertex's out-edges in a random order."""
    paths = [None] * g.n_vertices()
    paths[g.root] = ()
    frontier = [g.root]
    for v in frontier:  # grows as it goes
        for eid in rnd.sample(g.out_edges(v), len(g.out_edges(v))):
            dst = g.edges[eid][2]
            if paths[dst] is None:
                paths[dst] = paths[v] + (eid,)
                frontier.append(dst)
    return paths


def random_graph_edges(rnd, n, kind):
    """Edge list of a seeded random graph of the given kind.

    usp: a random tree plus edges back to ancestors of the source (the
    source itself included); two_paths: the same plus one edge that gives
    some vertex a second simple path; unreachable: the same with one vertex
    that no edge enters; any: uniformly random edges.
    """
    if kind == "any":
        return [
            (rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randint(0, 2 * n))
        ]
    reach = n - 1 if kind == "unreachable" else n
    parent = {v: rnd.randrange(v) for v in range(1, reach)}
    edges = [(parent[v], v) for v in range(1, reach)]

    def ancestors(v):
        out = [v]
        while v in parent:
            v = parent[v]
            out.append(v)
        return out

    for _ in range(rnd.randint(0, n)):
        src = rnd.randrange(reach)
        edges.append((src, rnd.choice(ancestors(src))))
    if kind == "two_paths":
        # from a vertex outside the subtree of dst (its parent gives a
        # parallel edge), so the tree path to src plus this edge is simple
        dst = rnd.randrange(1, reach)
        src = rnd.choice([v for v in range(reach) if dst not in ancestors(v)])
        edges.append((src, dst))
    if kind == "unreachable" and rnd.random() < 0.5:
        edges.append((n - 1, rnd.randrange(n)))
    rnd.shuffle(edges)
    return edges


def brute_force_simple_paths(n, edges):
    """For each vertex, the edge-id tuples of all simple paths from vertex 0."""
    found = [[] for _ in range(n)]

    def extend(v, visited, path):
        found[v].append(tuple(path))
        for eid, (src, dst) in enumerate(edges):
            if src == v and dst not in visited:
                extend(dst, visited | {dst}, path + [eid])

    extend(0, {0}, [])
    return found


class TestProjectAndPaths:
    def test_empty_word(self, d2_semigroup):
        assert reference.eval_word(d2_semigroup, ()) == d2_semigroup.identity_id

    def test_group_word(self, d2_semigroup):
        s = d2_semigroup
        assert reference.eval_word(s, ("a", "a", "b")) == s.gens["b"]

    def test_two_state_word(self, two_state_semigroup):
        s = two_state_semigroup
        assert reference.eval_word(s, ("3", "2")) == s.gens["1"]


class TestDotExport:
    def test_deterministic_and_styled(self, d2_semigroup):
        g = right_cayley(d2_semigroup)
        blue = transition_edges(g, scc(g))
        first = render_dot(g, "rcay", blue_edges=blue)
        second = render_dot(g, "rcay", blue_edges=blue)
        assert first == second
        assert first.count("color=blue") == 2
        assert first.count("->") == len(g.edges)


# -- mc_expand against its earlier form ---------------------------------------


def reference_mc_expand(kr, max_vertices=10**6):
    """mc_expand as it was before each word was built with its vertex and
    each back-edge target recorded during the DFS: words by walking the
    parents, back edges through a table of each vertex's ancestors."""
    succ = {}
    for src, label, dst in kr.edges:
        succ[(src, label)] = dst
    parent = [None]
    endpoint = [kr.root]
    child = {}
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
    edges = []
    tree = set()
    for vid in range(len(parent)):
        ancestors = {}
        walk_id = vid
        while walk_id is not None:
            ancestors[endpoint[walk_id]] = walk_id
            walk_id = parent[walk_id][0] if parent[walk_id] else None
        for label in kr.alphabet:
            target = succ.get((endpoint[vid], label))
            if target is None:
                continue
            nid = child.get((vid, label))
            if nid is not None:
                tree.add(len(edges))
                edges.append((vid, label, nid))
            else:
                edges.append((vid, label, ancestors[target]))
    payloads = [(words[v], endpoint[v]) for v in range(len(parent))]
    names = ["".join(w) if w else IDENTITY_NAME for w in words]
    return payloads, names, edges, tree


def mc_lists(kr, max_vertices=10**6):
    mc, tree = mc_expand(kr, max_vertices)
    payloads = [(tree_word(mc, v), p.kr_vertex) for v, p in enumerate(mc.payloads)]
    assert (mc.root, mc.alphabet) == (0, list(kr.alphabet))
    return payloads, mc.names, mc.edges, tree


def pruned_krs(s):
    """KR of s with its ideal's out-edges dropped, and KR of s with a zero
    adjoined and the zero's out-edges dropped, as the pipeline builds them."""
    out = []
    for t, sinks in ((s, s.minimal_ideal().members), (s.adjoin_zero(), None)):
        kr = kr_expand(t)
        sinks = sinks if sinks is not None else {t.zero_id}
        out.append(
            kr.without_out_edges(
                v for v in range(kr.n_vertices()) if kr.payloads[v].element in sinks
            )
        )
    return out


def simple_path_count(kr):
    """Simple paths from the root, one (endpoint, vertices on it) pair each,
    extended an edge at a time until none can grow."""
    count = 0
    paths = [(kr.root, frozenset([kr.root]))]
    while paths:
        count += len(paths)
        paths = [
            (dst, on_path | {dst})
            for v, on_path in paths
            for _, _, dst in (kr.edges[eid] for eid in kr.out_edges(v))
            if dst not in on_path
        ]
    return count


def assert_cap_at_the_same_size(kr, want):
    """mc_expand builds the reference's Mc under a cap of exactly its size,
    which is the number of simple paths, and refuses one vertex fewer with
    the reference's message."""
    size = len(want[0])
    assert simple_path_count(kr) == size
    assert mc_lists(kr, size) == want
    if size == 1:
        return  # a root alone is built under any cap, as before
    with pytest.raises(CapExceeded) as refused:
        mc_expand(kr, size - 1)
    with pytest.raises(CapExceeded) as expected:
        reference_mc_expand(kr, size - 1)
    assert str(refused.value) == str(expected.value)


class TestMcExpandMatchesEarlierForm:
    @pytest.mark.parametrize("name", ["d2", "d2c", "d2box", "example210"])
    def test_bundled_chains(self, name):
        from sgmc.cli import bundled_path, load_chain_file
        from sgmc.pipeline import build_semigroup

        s = build_semigroup(load_chain_file(bundled_path(f"{name}.json")).spec)
        for kr in pruned_krs(s) + [kr_expand(s)]:
            assert mc_lists(kr) == reference_mc_expand(kr)

    def test_seeded_grid(self):
        rnd = random.Random(29)
        vertices = 0
        for n in (2, 3, 4):
            for k in (2, 3):
                for _ in range(3):
                    gens = [
                        ("abc"[i], tuple(rnd.randrange(n) for _ in range(n)))
                        for i in range(k)
                    ]
                    s = FiniteSemigroup.generate(gens)
                    for kr in pruned_krs(s):
                        want = reference_mc_expand(kr)
                        assert mc_lists(kr) == want
                        assert_cap_at_the_same_size(kr, want)
                        vertices += len(want[0])
        assert vertices > 1000

    def test_seeded_graphs_that_are_not_kr(self):
        # label-deterministic graphs with a random root, edges listed in a
        # random order over a shuffled alphabet, and vertices the root does
        # not reach; some get a root self-loop
        rnd = random.Random(2511)
        seen = dict.fromkeys(("unreachable", "root loop", "back to root"), 0)
        seen["alphabet order"] = 0
        for _ in range(200):
            n = rnd.randint(1, 9)
            alphabet = rnd.sample(["a", "b", "c", "dd"], rnd.randint(1, 4))
            root = rnd.randrange(n)
            edges = [
                (v, label, rnd.randrange(n))
                for v in range(n)
                for label in alphabet
                if rnd.random() < 0.6
            ]
            if rnd.random() < 0.3:
                label = rnd.choice(alphabet)
                edges = [e for e in edges if e[:2] != (root, label)]
                edges.append((root, label, root))
            rnd.shuffle(edges)
            kr = RootedGraph(range(n), map(str, range(n)), edges, root, alphabet)
            want = reference_mc_expand(kr)
            assert mc_lists(kr) == want
            assert_cap_at_the_same_size(kr, want)
            reached = {endpoint for _, endpoint in want[0]}
            seen["unreachable"] += len(reached) < n
            seen["root loop"] += any(e[0] == e[2] == root for e in edges)
            seen["back to root"] += any(d == 0 and s > 0 for s, _, d in want[2])
            first = list(dict.fromkeys(label for _, label, _ in edges))
            seen["alphabet order"] += first != [a for a in alphabet if a in first]
        assert min(seen.values()) >= 20, seen

    def test_cap_at_the_same_size(self, d2_semigroup):
        kr = pruned_krs(d2_semigroup)[1]
        size = len(reference_mc_expand(kr)[0])
        assert mc_lists(kr, size) == reference_mc_expand(kr, size)
        with pytest.raises(CapExceeded):
            mc_expand(kr, size - 1)
        with pytest.raises(CapExceeded):
            reference_mc_expand(kr, size - 1)


class TestCapDecidedBeforeMc:
    # a 5-state chain whose Mc passes the default cap of 10**6 vertices; kept
    # out of tests/chains, whose every file other tests analyze
    ACTIONS = [[2, 0, 0, 2, 3], [2, 1, 4, 2, 3], [2, 2, 0, 1, 0]]
    MESSAGE = f"Mc expansion exceeds {DEFAULT_MAX_MC} vertices"

    def test_full_report_builds_no_mc(self):
        import tracemalloc

        from sgmc.markov import ChainGenerator, MarkovChainSpec
        from sgmc.pipeline import full_report

        spec = MarkovChainSpec(
            tuple(map(str, range(5))),
            tuple(
                ChainGenerator("abc"[i], tuple(action), None)
                for i, action in enumerate(self.ACTIONS)
            ),
        )
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=self.MESSAGE):
                full_report(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # building the million vertices first peaked at about 255 MiB
        assert peak < 32 * 2**20

    def test_command_line_exits_3(self, tmp_path, capsys):
        import json

        from sgmc.cli import main

        path = tmp_path / "over-the-cap.json"
        generators = [
            {"label": "abc"[i], "action": action, "prob": "sym"}
            for i, action in enumerate(self.ACTIONS)
        ]
        chain = {"states": list(map(str, range(5))), "generators": generators}
        path.write_text(json.dumps(chain), encoding="utf-8")
        assert main(["analyze", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.MESSAGE}\n"
