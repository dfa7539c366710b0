import itertools
import random

import pytest

from sgmc.errors import CapExceeded, NotUsp
from sgmc.expansions import (
    RootedGraph,
    check_usp,
    kr_expand,
    mc_expand,
    path_from_word,
    render_dot,
    right_cayley,
    scc,
    simple_path_edges,
    transition_edges,
    word_name,
)
from sgmc.semigroup import FiniteSemigroup, IDENTITY_NAME

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

    def test_condensation_is_acyclic(self):
        s = FiniteSemigroup.generate(TWO_STATE_GENS)
        g = right_cayley(s)
        d = scc(g)
        # a cycle in the DAG would need an edge pair (i, j), (j, i)
        assert all((b, a) not in d.dag_edges for a, b in d.dag_edges)


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
            assert s.eval_word(mc.payloads[end].word) == s.eval_word(word)

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
            assert len(edge_ids) == len(mc.payloads[vid].word)

    def test_non_usp_listing_raises(self, d2_semigroup):
        g = right_cayley(d2_semigroup)
        for _ in range(2):
            with pytest.raises(NotUsp):
                simple_path_edges(g)

    def test_listing_found_once_per_graph(self, two_state_semigroup):
        mc, _ = mc_expand(kr_expand(two_state_semigroup))
        assert simple_path_edges(mc) is simple_path_edges(mc)


class TestProjectAndPaths:
    def test_empty_word(self, d2_semigroup):
        assert d2_semigroup.eval_word(()) == d2_semigroup.identity_id

    def test_group_word(self, d2_semigroup):
        s = d2_semigroup
        assert s.eval_word(("a", "a", "b")) == s.gens["b"]

    def test_two_state_word(self, two_state_semigroup):
        s = two_state_semigroup
        assert s.eval_word(("3", "2")) == s.gens["1"]

    def test_path_from_word(self, two_state_semigroup):
        g = right_cayley(two_state_semigroup)
        edges = path_from_word(g, "332")
        assert [g.edges[e][1] for e in edges] == ["3", "3", "2"]


class TestDotExport:
    def test_deterministic_and_styled(self, d2_semigroup):
        g = right_cayley(d2_semigroup)
        blue = transition_edges(g, scc(g))
        first = render_dot(g, "rcay", blue_edges=blue)
        second = render_dot(g, "rcay", blue_edges=blue)
        assert first == second
        assert first.count("color=blue") == 2
        assert first.count("->") == len(g.edges)

    def test_word_name(self):
        assert word_name(()) == IDENTITY_NAME
        assert word_name(("a", "b")) == "ab"
