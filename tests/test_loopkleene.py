from collections import Counter

import pytest

from sgmc.algebra import RationalFunction
from sgmc.errors import (
    AmbiguousExpression,
    CapExceeded,
    NotUsp,
    PathNotInGraph,
    StarOfUnit,
)
from sgmc.expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    RootedGraph,
    simple_path_edges,
)
from sgmc.loopkleene import (
    Concat,
    Epsilon,
    Letter,
    Loop,
    LoopSymbol,
    LoopVertex,
    Star,
    Union,
    algorithm1,
    algorithm2,
    enumerate_path_words,
    flatten,
    kleene_enumerate,
    kleene_texts,
    kleene_to_rf,
    pict,
)
from sgmc.pipeline import _expand


def L(label):
    return Letter(label)


def cat(*parts):
    return Concat(tuple(parts))


def st(e):
    return Star(e)


def un(*parts):
    return Union(tuple(parts))


def pruned_mc(s):
    return _expand(s, DEFAULT_MAX_KR, DEFAULT_MAX_MC)[1]


def vertex_by_name(g, name):
    return next(v for v in range(g.n_vertices()) if g.names[v] == name)


@pytest.fixture(scope="module")
def two_state_mc(two_state_semigroup):
    return pruned_mc(two_state_semigroup)


@pytest.fixture(scope="module")
def d2_boxed_mc(d2_semigroup):
    return pruned_mc(d2_semigroup.adjoin_zero())


def straight_graph():
    return RootedGraph(
        [0, 1, 2, 3],
        ["r", "u", "v", "w"],
        [(0, "a", 1), (1, "b", 2), (2, "c", 3)],
        0,
        ["a", "b", "c"],
    )


class TestPict:
    def test_straight_path_has_no_loops(self):
        g = straight_graph()
        lg = pict(g, [0, 1, 2])
        assert lg.spine_labels == ["a", "b", "c"]
        assert all(not v.loops for v in lg.spine)
        assert enumerate_path_words(g, 3, 10) == enumerate_path_words(
            *flatten(lg), 10
        )

    def test_two_state_terminal_loop(self, two_state_mc):
        mc = two_state_mc
        target = vertex_by_name(mc, "32")
        path = simple_path_edges(mc)[target]
        lg = pict(mc, path)
        assert lg.spine_labels == ["3", "2"]
        middle = lg.spine[1]
        assert len(middle.loops) == 1
        assert middle.loops[0].labels == ["3", "3"]
        assert not middle.loops[0].inner[0].loops
        assert not lg.spine[2].loops

    def test_boxed_group_loop_sizes(self, d2_boxed_mc):
        mc = d2_boxed_mc
        target = vertex_by_name(mc, "ab□")
        path = simple_path_edges(mc)[target]
        lg = pict(mc, path, verify_usp=False)
        at_a = lg.spine[1]
        assert sorted(len(loop.labels) for loop in at_a.loops) == [2, 2, 4, 4]
        at_ab = lg.spine[2]
        assert [len(loop.labels) for loop in at_ab.loops] == [2]
        nested = at_ab.loops[0].inner[0]
        assert [len(loop.labels) for loop in nested.loops] == [2]
        assert not lg.spine[3].loops
        flat, end = flatten(lg)
        assert flat.n_vertices() == 24
        assert len(flat.edges) == 39

    def test_requires_simple_path(self, two_state_mc):
        mc = two_state_mc
        loop_edge = next(
            i for i, (a, lab, b) in enumerate(mc.edges)
            if mc.names[a] == "3" and lab == "3"
        )
        back = next(
            i for i, (a, lab, b) in enumerate(mc.edges)
            if mc.names[a] == "33" and lab == "3"
        )
        with pytest.raises(PathNotInGraph):
            pict(mc, [0, loop_edge, back], verify_usp=False)

    @pytest.mark.parametrize(
        "path",
        [[1], [2], [0, 2], [0, 1, 2], [0, 3], [0, 1, 2, 1], [0, 0], [5]],
        ids=[
            "starts-off-root",
            "starts-at-back-edge",
            "does-not-chain",
            "returns-to-spine",
            "returns-to-root",
            "ends-right-through-a-loop",
            "repeats-an-edge",
            "edge-outside-graph",
        ],
    )
    def test_rejects_path_that_is_not_the_unique_one(self, path):
        # r -a-> u -b-> v, back edges v -c-> u and u -d-> r
        g = RootedGraph(
            [0, 1, 2],
            ["r", "u", "v"],
            [(0, "a", 1), (1, "b", 2), (2, "c", 1), (1, "d", 0)],
            0,
            ["a", "b", "c", "d"],
        )
        with pytest.raises(PathNotInGraph):
            pict(g, path)

    def test_rejects_non_usp_graph(self, d2_semigroup):
        from sgmc.expansions import right_cayley

        g = right_cayley(d2_semigroup)
        with pytest.raises(NotUsp):
            pict(g, [g.out_edges(g.root)[0]])

    def test_bijection_on_worked_examples(self, two_state_mc, d2_boxed_mc):
        mc = two_state_mc
        target = vertex_by_name(mc, "32")
        path = simple_path_edges(mc)[target]
        assert enumerate_path_words(mc, target, 12) == enumerate_path_words(
            *flatten(pict(mc, path)), 12
        )

        mc = d2_boxed_mc
        target = vertex_by_name(mc, "ab□")
        path = simple_path_edges(mc)[target]
        lg = pict(mc, path, verify_usp=False)
        assert enumerate_path_words(mc, target, 10) == enumerate_path_words(
            *flatten(lg), 10
        )


class TestAlgorithms:
    def test_spine_walk_shapes_placeholders(self, d2_boxed_mc):
        mc = d2_boxed_mc
        target = vertex_by_name(mc, "ab□")
        lg = pict(mc, simple_path_edges(mc)[target], verify_usp=False)
        expr = algorithm1(lg)
        assert isinstance(expr, Concat)
        kinds = [type(p).__name__ for p in expr.parts]
        assert kinds == ["Letter", "Star", "Letter", "Star", "Letter"]
        first_star = expr.parts[1]
        assert isinstance(first_star.inner, Union)
        assert len(first_star.inner.parts) == 4
        assert all(isinstance(p, LoopSymbol) for p in first_star.inner.parts)
        second_star = expr.parts[3]
        assert isinstance(second_star.inner, LoopSymbol)

    def test_placeholder_of_a_loop_pict_did_not_build_is_refused(self):
        loop = Loop(["a", "b"], [LoopVertex("u")])
        for expr in (LoopSymbol(loop, 1), st(LoopSymbol(loop, 1))):
            with pytest.raises(ValueError, match="^placeholder l1 is of a loop pict"):
                algorithm2(expr)

    def test_loopless_spine(self):
        g = straight_graph()
        lg = pict(g, [0, 1, 2])
        assert algorithm1(lg) == cat(L("a"), L("b"), L("c"))

    def test_two_state_expression(self, two_state_mc):
        mc = two_state_mc
        target = vertex_by_name(mc, "32")
        lg = pict(mc, simple_path_edges(mc)[target])
        expr = algorithm2(algorithm1(lg), lg)
        assert str(expr) == "3(33)*2"
        assert expr == cat(L("3"), st(cat(L("3"), L("3"))), L("2"))

    def test_group_expansion_matches_printed_expression(self, d2_boxed_mc):
        mc = d2_boxed_mc
        target = vertex_by_name(mc, "ab□")
        lg = pict(mc, simple_path_edges(mc)[target], verify_usp=False)
        got = algorithm2(algorithm1(lg), lg)

        l1 = cat(L("a"), st(cat(L("b"), st(cat(L("a"), L("a"))), L("b"))),
                 L("b"), st(cat(L("a"), L("a"))), L("a"), L("b"))
        l2 = cat(L("a"), st(cat(L("b"), st(cat(L("a"), L("a"))), L("b"))), L("a"))
        l3 = cat(L("b"), st(cat(L("a"), st(cat(L("b"), L("b"))), L("a"))),
                 L("a"), st(cat(L("b"), L("b"))), L("b"), L("a"))
        l4 = cat(L("b"), st(cat(L("a"), st(cat(L("b"), L("b"))), L("a"))), L("b"))
        l5 = cat(L("a"), st(cat(L("b"), L("b"))), L("a"))
        printed = cat(L("a"), st(un(l1, l2, l3, l4)), L("b"), st(l5), L("□"))

        # same language to length 12 and same rational function
        assert kleene_enumerate(got, 12) == kleene_enumerate(printed, 12)
        assert kleene_to_rf(got).equals(kleene_to_rf(printed))


class TestPrint:
    def test_deep_nesting_raises_cap_exceeded_naming_the_stage(self):
        node = L("a")
        for _ in range(3000):
            node = st(cat(L("b"), node))
        with pytest.raises(CapExceeded, match="^kleene print: "):
            str(node)
        with pytest.raises(CapExceeded, match="^kleene print: "):
            kleene_texts([node])


class TestKleeneToRf:
    def test_star_of_union_is_geometric(self):
        expr = st(un(L("a"), L("b"), L("c")))
        rf = kleene_to_rf(expr)
        x = {v: RationalFunction.variable(v) for v in "abc"}
        one = RationalFunction.const(1)
        assert rf.equals(one / (one - x["a"] - x["b"] - x["c"]))

    def test_single_letter_star(self):
        rf = kleene_to_rf(st(L("a")))
        one = RationalFunction.const(1)
        assert rf.equals(one / (one - RationalFunction.variable("a")))

    def test_epsilon(self):
        assert kleene_to_rf(Epsilon()).equals(1)

    def test_star_of_unit_rejected(self):
        with pytest.raises(StarOfUnit):
            kleene_to_rf(st(st(L("a"))))
        with pytest.raises(StarOfUnit):
            kleene_to_rf(st(Epsilon()))


class TestEnumeration:
    def test_letter_star(self):
        words = kleene_enumerate(st(L("a")), 3)
        assert words == Counter({(): 1, ("a",): 1, ("a", "a"): 1, ("a", "a", "a"): 1})

    def test_two_state_language(self, two_state_mc):
        expr = cat(L("3"), st(cat(L("3"), L("3"))), L("2"))
        words = kleene_enumerate(expr, 6)
        assert set(words) == {
            ("3", "2"),
            ("3", "3", "3", "2"),
            ("3", "3", "3", "3", "3", "2"),
        }

    def test_ambiguity_detected(self):
        with pytest.raises(AmbiguousExpression):
            kleene_enumerate(un(L("a"), L("a")), 2)

    def test_path_word_enumeration_multiplicity(self):
        # two parallel edges with the same label: the word has multiplicity 2
        g = RootedGraph(
            [0, 1], ["r", "t"], [(0, "a", 1), (0, "a", 1)], 0, ["a"]
        )
        words = enumerate_path_words(g, 1, 3)
        assert words[("a",)] == 2

    def test_cross_oracle_on_worked_vertex(self, two_state_mc):
        mc = two_state_mc
        target = vertex_by_name(mc, "32")
        path = simple_path_edges(mc)[target]
        lg = pict(mc, path)
        expr = algorithm2(algorithm1(lg), lg)
        flat, end = flatten(lg)
        assert (
            kleene_enumerate(expr, 12)
            == enumerate_path_words(flat, end, 12)
            == enumerate_path_words(mc, target, 12)
        )
