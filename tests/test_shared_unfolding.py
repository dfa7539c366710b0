"""The Pict unfolding shared per McCammond graph, against the unshared trees.

``pict`` builds, once per Mc graph, one LoopVertex per Mc vertex with its
loops, each loop's expansion and the vertex's starred union, and
``algorithm2`` reads them, so loop graphs and expressions are DAGs.  A
vertex's LoopVertex is built when a loop graph within the vertex cap first
holds it.  The
references below are the unshared builders: every copy of a vertex gets
fresh loops, every loop is expanded afresh (through placeholders created
mid-expansion), and every Letter is a new object.  The shared forms must
flatten and print exactly as they do, and the vertex cap must fire at the
same threshold.
"""

import random
import re
from pathlib import Path

import pytest

from sgmc import expansions, loopkleene, pipeline
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import AmbiguousExpression, CapExceeded, StarOfUnit
from sgmc.expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    McVertex,
    RootedGraph,
    check_usp,
    simple_path_edges,
)
from sgmc.loopkleene import (
    Concat,
    Epsilon,
    Letter,
    Loop,
    LoopGraph,
    LoopSymbol,
    LoopVertex,
    Star,
    Union,
    algorithm1,
    algorithm2,
    concat,
    enumerate_path_words,
    flatten,
    kleene_enumerate,
    kleene_texts,
    pict,
)
from sgmc.pipeline import _expand, build_semigroup
from sgmc.semigroup import FiniteSemigroup

CHAINS = Path(__file__).with_name("chains")

# -- the unshared references --------------------------------------------------


def reference_pict(g, path_edges, max_vertices=10**6):
    unique = simple_path_edges(g)
    spine_vertices = [g.root] + [g.edges[e][2] for e in path_edges]
    spine = [LoopVertex(g.names[sv]) for sv in spine_vertices]
    lg = LoopGraph([g.edges[e][1] for e in path_edges], spine)
    budget = [max_vertices - len(spine)]
    for lvertex, sv in zip(spine, spine_vertices):
        reference_attach_loops(g, unique, lvertex, sv, budget)
    return lg


def reference_attach_loops(g, unique, lvertex, v, budget):
    for body, closing_label in expansions._loops(g, unique, v):
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
            reference_attach_loops(g, unique, copy, bdst, budget)
        labels.append(closing_label)
        lvertex.loops.append(Loop(labels, inner))


def reference_loop_star(lvertex, counter):
    if not lvertex.loops:
        return None
    symbols = []
    for loop in lvertex.loops:
        counter[0] += 1
        symbols.append(LoopSymbol(loop, counter[0]))
    return Star(symbols[0] if len(symbols) == 1 else Union(tuple(symbols)))


def reference_algorithm1(lg):
    counter = [0]
    parts = [reference_loop_star(lg.spine[0], counter)]
    for label, lvertex in zip(lg.spine_labels, lg.spine[1:]):
        parts += [Letter(label), reference_loop_star(lvertex, counter)]
    return concat(p for p in parts if p is not None)


def reference_algorithm2(expr):
    counter = [10**6]

    def expand_loop(loop):
        parts = []
        for label, copy in zip(loop.labels, loop.inner):
            parts.append(Letter(label))
            star = reference_loop_star(copy, counter)
            if star is not None:
                parts.append(rewrite(star))
        parts.append(Letter(loop.labels[-1]))
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
        raise TypeError(node)

    return rewrite(expr)


# -- graphs and terminals -----------------------------------------------------


def mc_and_terminals(s, box_label="□"):
    """Mc of a semigroup, as the pipeline builds it, and its terminals."""
    ideal = s.minimal_ideal()
    if ideal.is_left_zero:
        expanded, sinks = s, ideal.members
    else:
        expanded = s.adjoin_zero(box_label)
        sinks = {expanded.zero_id}
    kr, mc, _, _ = _expand(expanded, DEFAULT_MAX_KR, DEFAULT_MAX_MC)
    terminals = [
        v
        for v in range(mc.n_vertices())
        if kr.payloads[mc.payloads[v].kr_vertex].element in sinks
    ]
    return mc, terminals


def chain_mc(path):
    chain = load_chain_file(path)
    return mc_and_terminals(build_semigroup(chain.spec), chain.box_label or "□")


def random_semigroups(seed, count):
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        n = rnd.randint(2, 4)
        k = rnd.randint(2, 3)
        gens = [
            ("abc"[i], tuple(rnd.randrange(n) for _ in range(n))) for i in range(k)
        ]
        out.append(FiniteSemigroup.generate(gens))
    return out


BUNDLED = ("d2", "d2c", "d2box", "example210")
LOCAL = ("left_zero3", "general4", "mixing3", "pinned2")
CHAIN_PATHS = [bundled_path(f"{name}.json") for name in BUNDLED] + [
    str(CHAINS / f"{name}.json") for name in LOCAL
]


def flat_key(lg):
    graph, end = flatten(lg)
    return graph.names, graph.edges, graph.root, graph.alphabet, end


def assert_same_as_reference(mc, terminals):
    unique = simple_path_edges(mc)
    exprs = []
    for t in terminals:
        lg = pict(mc, unique[t], verify_usp=False)
        ref = reference_pict(mc, unique[t])
        assert flat_key(lg) == flat_key(ref), mc.names[t]
        exprs.append(algorithm2(algorithm1(lg)))
        text = str(reference_algorithm2(reference_algorithm1(ref)))
        assert str(exprs[-1]) == text, mc.names[t]
    # one print of all the terminals, each shared node printed once
    assert kleene_texts(exprs) == [str(e) for e in exprs]


@pytest.mark.parametrize(
    "path", CHAIN_PATHS, ids=[Path(p).stem for p in CHAIN_PATHS]
)
def test_shared_unfolding_flattens_and_prints_as_the_tree(path):
    assert_same_as_reference(*chain_mc(path))


def test_shared_unfolding_on_random_chains():
    checked = 0
    for s in random_semigroups(41, 12):
        mc, terminals = mc_and_terminals(s)
        assert_same_as_reference(mc, terminals)
        checked += len(terminals)
    assert checked > 100


def test_grid4x3_3_prints_as_the_tree_on_a_sample():
    # 1.16 MB of expressions in all; every 50th terminal keeps this short
    mc, terminals = chain_mc(str(CHAINS / "grid4x3_3.json"))
    assert_same_as_reference(mc, terminals[::50])


# -- the benchmark's calls ---------------------------------------------------


@pytest.mark.parametrize("name", ["d2c", "example210"])
def test_expand_workload_call_shapes(name):
    # the calls perfbench's expand workload makes, written as it writes them,
    # so that a change of signature fails here and not only in the benchmark
    mc, terminals = chain_mc(bundled_path(f"{name}.json"))
    assert check_usp(mc, max_paths=10 * max(mc.n_vertices(), 1))
    unique = simple_path_edges(mc)
    for v in terminals:
        lg = pict(mc, unique[v], False, max_vertices=10**6)
        expr = algorithm2(algorithm1(lg), lg)
        assert kleene_enumerate(expr, 5) == enumerate_path_words(mc, v, 5), mc.names[v]


# -- the vertex cap -------------------------------------------------------------


def first_failing_cap(build, hi):
    """The largest cap below hi at which build raises CapExceeded, or -1, by
    bisection; build(hi) must succeed, and a cap that raises must raise for
    every smaller cap."""
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            build(mid)
        except CapExceeded:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("name", ["d2box", "d2c", "example210"])
def test_vertex_cap_fires_at_the_same_threshold(name):
    mc, terminals = chain_mc(bundled_path(f"{name}.json"))
    unique = simple_path_edges(mc)
    thresholds = []
    for t in terminals[:: max(1, len(terminals) // 6)]:
        path = unique[t]

        def shared(cap):
            return pict(mc, path, verify_usp=False, max_vertices=cap)

        def reference(cap):
            return reference_pict(mc, path, max_vertices=cap)

        threshold = first_failing_cap(reference, 10**6)
        assert first_failing_cap(shared, 10**6) == threshold, mc.names[t]
        if threshold >= 0:
            thresholds.append(threshold)
            want = (
                f"^pict: loop graph to {re.escape(mc.names[t])} holds"
                f" {threshold + 1} vertices, above the cap {threshold}$"
            )
            with pytest.raises(CapExceeded, match=want):
                shared(threshold)
        shared(threshold + 1)
    assert len(thresholds) >= 3


def test_cap_needs_a_copy_to_fire():
    # the spine counts against the cap, but a loopless one never exceeds it
    g = RootedGraph([0, 1, 2], ["r", "u", "v"], [(0, "a", 1), (1, "b", 2)], 0, "ab")
    assert reference_pict(g, [0, 1], max_vertices=0).spine_labels == ["a", "b"]
    assert pict(g, [0, 1], max_vertices=0).spine_labels == ["a", "b"]
    # one copy: v -c-> u closes the loop u -b-> v -c-> u
    g = RootedGraph(
        [0, 1, 2], ["r", "u", "v"], [(0, "a", 1), (1, "b", 2), (2, "c", 1)], 0, "abc"
    )
    for cap in range(5):
        fits = cap >= 3
        for build in (reference_pict, pict):
            if fits:
                build(g, [0], max_vertices=cap)
            else:
                with pytest.raises(CapExceeded):
                    build(g, [0], max_vertices=cap)


def test_cap_fires_before_any_table_is_built():
    # expand's grid-5x3-2: the loop graph to abbaa would hold 17,289,656
    # vertices; the copy counts are folded in integers, so the cap fires
    # with no LoopVertex built
    actions = [[3, 3, 0, 1, 0], [1, 3, 1, 0, 2], [4, 0, 0, 0, 4]]
    s = FiniteSemigroup.generate([(a, tuple(t)) for a, t in zip("abc", actions)])
    mc, terminals = mc_and_terminals(s)
    assert mc.n_vertices() == 26175
    unique = simple_path_edges(mc)
    abbaa = mc.names.index("abbaa")
    want = "^pict: loop graph to abbaa holds 17289656 vertices, above the cap 1000000$"
    with pytest.raises(CapExceeded, match=want):
        pict(mc, unique[abbaa], verify_usp=False)
    assert mc._loop_vertices is None
    # a loop graph within the cap builds the vertices it holds, and no other
    table_copies = expansions._loop_table(mc)[2]

    def copies(t):
        return sum(table_copies[mc.edges[e][2]] for e in unique[t])

    small = min((t for t in terminals if copies(t)), key=copies)
    lg = pict(mc, unique[small], verify_usp=False)
    built = {mc.names[v] for v, lv in enumerate(mc._loop_vertices) if lv is not None}
    assert built == set(flat_key(lg)[0])
    with pytest.raises(CapExceeded, match=want):
        pict(mc, unique[abbaa], verify_usp=False)


# -- sharing ------------------------------------------------------------------


def d2c_pair():
    """d2c's Mc and the paths to aaba□ and aab□, which share the prefix aa;
    the vertex a carries loops."""
    mc, _ = chain_mc(bundled_path("d2c.json"))
    unique = simple_path_edges(mc)
    return mc, unique, unique[mc.names.index("aaba□")], unique[mc.names.index("aab□")]


def test_two_picts_on_one_graph_share_their_loops():
    mc, unique, path_a, path_b = d2c_pair()
    first = pict(mc, path_a, verify_usp=False)
    again = pict(mc, path_a, verify_usp=False)
    other = pict(mc, path_b, verify_usp=False)
    assert all(x is y for x, y in zip(first.spine, again.spine))
    assert first.spine[1].loops
    assert first.spine[1] is other.spine[1]
    assert all(x is y for x, y in zip(first.spine[1].loops, other.spine[1].loops))
    # every inner copy of a vertex is that vertex's own LoopVertex
    vertex_of = {lv.name: lv for lv in first.spine}
    for lv in first.spine:
        for loop in lv.loops:
            for copy in loop.inner:
                v = mc.names.index(copy.name)
                assert copy is pict(mc, unique[v], verify_usp=False).spine[-1]
                vertex_of.setdefault(copy.name, copy)
                assert vertex_of[copy.name] is copy


def test_expressions_share_their_loop_expansions():
    mc, _, path_a, path_b = d2c_pair()
    ea = algorithm2(algorithm1(pict(mc, path_a, verify_usp=False)))
    eb = algorithm2(algorithm1(pict(mc, path_b, verify_usp=False)))
    # a's starred union, after the first letter, is built once
    assert isinstance(ea.parts[1], Star)
    assert ea.parts[1] is eb.parts[1]


def test_loops_are_found_once_per_vertex(monkeypatch):
    # the rational stars, the kleene texts, verification and later loop
    # graphs read one loop table per graph, and Mc's simple paths are its
    # tree's: simple_path_edges never meets an Mc that carries none
    calls, searched = {}, []
    loops, paths = expansions._loops, expansions.simple_path_edges

    def counted_loops(g, unique, v):
        calls[id(g), v] = calls.get((id(g), v), 0) + 1
        return loops(g, unique, v)

    def counted_paths(g):
        if g._simple_paths is None and isinstance(g.payloads[0], McVertex):
            searched.append(g)
        return paths(g)

    monkeypatch.setattr(expansions, "_loops", counted_loops)
    for module in (expansions, loopkleene, pipeline):
        monkeypatch.setattr(module, "simple_path_edges", counted_paths)
    results = []  # kept alive, so no two graphs share an id
    for path in (bundled_path("d2c.json"), str(CHAINS / "pinned2.json")):
        chain = load_chain_file(path)
        result = pipeline.stationary(
            build_semigroup(chain.spec), box_label=chain.box_label or "□"
        )
        results.append(result)
        assert result.kleene
        assert pipeline.verify_language_and_series(result, maxlen=6)
        mc = result.mc
        unique = simple_path_edges(mc)
        for t in result.terminals:
            algorithm2(algorithm1(pict(mc, unique[t.vertex], verify_usp=False)))
        assert sum(g == id(mc) for g, _ in calls) == mc.n_vertices()
    assert max(calls.values()) == 1
    assert not searched


@pytest.mark.parametrize(
    "path", CHAIN_PATHS + [str(CHAINS / "grid4x3_3.json")],
    ids=[Path(p).stem for p in CHAIN_PATHS] + ["grid4x3_3"],
)
def test_mc_paths_are_the_tree_paths_on_chains(path):
    chain = load_chain_file(path)
    s = build_semigroup(chain.spec)
    assert_mc_paths_are_found_by_the_search(s, chain.box_label or "□")


def test_mc_paths_are_the_tree_paths_on_random_semigroups():
    cases = 0
    for s in random_semigroups(43, 16):
        cases += assert_mc_paths_are_found_by_the_search(s, "□")
    assert cases > 16


def assert_mc_paths_are_found_by_the_search(s, box_label) -> int:
    """mc_expand's table against a DFS on a copy of its graph, in the
    left-zero case if K(S) is left zero and in the box case; the number of
    cases checked."""
    ideal = s.minimal_ideal()
    boxed = s.adjoin_zero(box_label)
    cases = [boxed]
    if ideal.is_left_zero:
        cases.append(s)
    for expanded in cases:
        _, mc, tree, _ = _expand(expanded, DEFAULT_MAX_KR, DEFAULT_MAX_MC)
        table = mc._simple_paths
        fresh = RootedGraph(mc.payloads, mc.names, mc.edges, mc.root, mc.alphabet)
        assert fresh._simple_paths is None
        assert table == simple_path_edges(fresh)
        assert all(e in tree for path in table for e in path)
    return len(cases)


def letters(expr, seen=None):
    """Every Letter node of an expression DAG, each node visited once."""
    seen = {} if seen is None else seen
    if id(expr) in seen:
        return []
    seen[id(expr)] = expr
    if isinstance(expr, Letter):
        return [expr]
    children = expr.parts if isinstance(expr, (Concat, Union)) else ()
    if isinstance(expr, Star):
        children = (expr.inner,)
    return [node for child in children for node in letters(child, seen)]


def test_letters_are_interned_without_changing_a_print():
    mc, terminals = chain_mc(bundled_path("example210.json"))
    unique = simple_path_edges(mc)
    by_label = {}
    for t in terminals:
        lg = pict(mc, unique[t], verify_usp=False)
        expr = algorithm2(algorithm1(lg))
        for node in letters(expr):
            assert by_label.setdefault(node.label, node) is node
        ref = reference_algorithm2(reference_algorithm1(reference_pict(mc, unique[t])))
        assert str(expr) == str(ref)
        assert expr == ref
    assert sorted(by_label) == sorted(mc.alphabet)


def test_placeholders_outside_algorithm1_still_expand():
    # a star over some, not all, of a vertex's loops, and a lone placeholder
    mc, terminals = chain_mc(bundled_path("d2box.json"))
    unique = simple_path_edges(mc)
    lg = max(
        (pict(mc, unique[t], verify_usp=False) for t in terminals),
        key=lambda lg: len(lg.spine[1].loops),
    )
    loops = lg.spine[1].loops
    assert len(loops) >= 3
    # the only loop of a vertex, under a star as a union of one: braces
    single = next(lv.loops[0] for lv in lg.spine if len(lv.loops) == 1)
    exprs = [
        Star(Union((LoopSymbol(single, 1),))),
        Star(Union((LoopSymbol(loops[1], 1), LoopSymbol(loops[2], 2)))),
        Star(Union((LoopSymbol(loops[0], 1), LoopSymbol(loops[1], 2)))),
        Star(Union((LoopSymbol(loops[0], 1), LoopSymbol(loops[2], 2)))),
        Star(LoopSymbol(loops[0], 1)),
        Concat((LoopSymbol(loops[2], 1), Letter("a"))),
        Star(Union((LoopSymbol(loops[0], 1),))),
    ]
    for expr in exprs * 2:
        assert str(algorithm2(expr)) == str(reference_algorithm2(expr))
    # all of the vertex's loops, in their order and reversed
    for order in (loops, loops[::-1]):
        full = Star(Union(tuple(LoopSymbol(loop, i) for i, loop in enumerate(order))))
        assert str(algorithm2(full)) == str(reference_algorithm2(full))


# -- deep nests -----------------------------------------------------------------


def ladder(depth):
    """v_i -a-> v_(i+1) and v_(i+1) -b-> v_i: loops nest depth deep."""
    edges = []
    for i in range(depth):
        edges += [(i, "a", i + 1), (i + 1, "b", i)]
    names = [f"v{i}" for i in range(depth + 1)]
    return RootedGraph(range(depth + 1), names, edges, 0, ["a", "b"])


def test_deep_nests_print():
    # the loop at v_i is a S(v_(i+1)) b, so S(v_(depth-1)) = (ab)* and
    # S(v_i) = (a S(v_(i+1)) b)*; the expression to v_1 is S(v_0) a S(v_1)
    depth = 250
    stars = ["(ab)*"]
    for _ in range(depth - 1):
        stars.append(f"(a{stars[-1]}b)*")
    g = ladder(depth)
    expr = algorithm2(algorithm1(pict(g, simple_path_edges(g)[1], verify_usp=False)))
    want = stars[-1] + "a" + stars[-2]
    assert str(expr) == want
    assert kleene_texts([expr, expr]) == [want, want]


# -- enumeration of shared expressions ------------------------------------------


def outcome(fn, *args):
    try:
        return fn(*args)
    except (CapExceeded, StarOfUnit, AmbiguousExpression) as exc:
        return type(exc)


@pytest.mark.parametrize(
    "path, step",
    [(bundled_path("d2box.json"), 1), (str(CHAINS / "pinned2.json"), 25)],
    ids=["d2box", "pinned2"],
)
def test_enumeration_of_shared_expressions_equals_a_fresh_one(path, step):
    # the shared expressions are enumerated again and again, at several
    # lengths; each reference is rebuilt unshared for every call
    mc, terminals = chain_mc(path)
    unique = simple_path_edges(mc)
    terminals = terminals[::step]

    def fresh(t):
        return reference_algorithm2(reference_algorithm1(reference_pict(mc, unique[t])))

    shared = {
        t: algorithm2(algorithm1(pict(mc, unique[t], verify_usp=False)))
        for t in terminals
    }
    for maxlen in (3, 5, 0, 4, 5):
        for t in terminals:
            got = outcome(kleene_enumerate, shared[t], maxlen)
            assert got == outcome(kleene_enumerate, fresh(t), maxlen), (mc.names[t], maxlen)


def test_cap_on_a_shared_expression_fires_as_on_a_fresh_one():
    mc, terminals = chain_mc(str(CHAINS / "pinned2.json"))
    unique = simple_path_edges(mc)
    for t in terminals[::100]:
        shared = algorithm2(algorithm1(pict(mc, unique[t], verify_usp=False)))
        # these paths are 7 to 9 letters long, so up to length 5 there is no
        # word, and no part is enumerated that the cap could count
        assert len(unique[t]) > 5
        assert kleene_enumerate(shared, 5, cap=0) == {}

        def fresh():
            return reference_algorithm2(reference_algorithm1(reference_pict(mc, unique[t])))

        threshold = first_failing_cap(lambda cap: kleene_enumerate(fresh(), 10, cap), 10**6)
        assert threshold > 0
        assert first_failing_cap(lambda cap: kleene_enumerate(shared, 10, cap), 10**6) == threshold
