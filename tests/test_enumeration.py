"""The enumeration oracles against the simple versions they replaced.

``unpruned_path_words`` walks every walk of length <= maxlen from the root
once per target; ``concatenated_words`` enumerates an expression by
concatenating whole word Counters, with no length buckets and no memo.
Both are kept here as references: the pruned, layered walk and the
memoised, length-bucketed Kleene enumeration must give the same Counters
and hit their caps no earlier.  ``pruned_walk_visits`` counts the partial
walks of a depth-first walk with the same pruning as the layered one, whose
cap must fire exactly above that count.  ``budgeted_words`` concatenates whole
Counters too, but enumerates each part of a concatenation only up to the
length its other parts leave, as the Kleene enumeration does: it must give
the same outcome at every cap, StarOfUnit included.  ``concatenated_words``
meets more stars, so it also raises StarOfUnit where no word passes through
a nullable star; ``bounded_words`` iterates each star a bounded number of
times, and shows where a count is really infinite.
"""

import copy
import random
import sys
from collections import Counter
from inspect import signature
from itertools import product
from pathlib import Path

import pytest

from sgmc import loopkleene, pipeline
from sgmc.algebra import RationalFunction
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import (
    AmbiguousExpression,
    CapExceeded,
    StarOfUnit,
    VerificationFailed,
)
from sgmc.expansions import RootedGraph, check_usp
from sgmc.loopkleene import (
    Concat,
    Epsilon,
    Letter,
    Star,
    Union,
    _walk_words,
    concat,
    enumerate_path_words,
    flatten,
    kleene_enumerate,
)
from sgmc.markov import ChainGenerator, MarkovChainSpec
from sgmc.pipeline import build_semigroup, stationary, verify_language_and_series
from sgmc.semigroup import FiniteSemigroup

BUNDLED = ("d2", "d2c", "d2box", "example210")
CHAINS = Path(__file__).with_name("chains")


# -- references ---------------------------------------------------------------


def unpruned_path_words(g, target, maxlen, cap=10**6):
    """Every walk of length <= maxlen from the root, counted where it ends at
    target; returns (words, partial walks visited)."""
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
            _, label, dst = g.edges[eid]
            stack.append((dst, word + (label,)))
    return words, visited


def pruned_walk_visits(g, targets, maxlen):
    """Partial walks that a depth-first walk from the root visits when it
    takes a step only if some target can be reached in the length left
    after it; none when no target can be reached from the root."""
    dist = dict.fromkeys(targets, 0)
    queue = list(dist)
    for v in queue:
        for eid in g.in_edges(v):
            src = g.edges[eid][0]
            if src not in dist:
                dist[src] = dist[v] + 1
                queue.append(src)
    far = maxlen + 1
    if dist.get(g.root, far) > maxlen:
        return 0
    visited = 0
    stack = [(g.root, 0)]
    while stack:
        v, length = stack.pop()
        visited += 1
        for eid in g.out_edges(v):
            dst = g.edges[eid][2]
            if dist.get(dst, far) <= maxlen - length - 1:
                stack.append((dst, length + 1))
    return visited


def _combine(a, b, maxlen):
    out = Counter()
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) <= maxlen:
                out[u + v] += cu * cv
    return out


def concatenated_words(node, maxlen, cap=10**6):
    """Words of an expression with multiplicity, by whole-Counter
    concatenation: a star adds body^1, body^2, ... until nothing fits."""
    if isinstance(node, Epsilon):
        return Counter({(): 1})
    if isinstance(node, Letter):
        return Counter({(node.label,): 1}) if maxlen >= 1 else Counter()
    if isinstance(node, Concat):
        out = Counter({(): 1})
        for p in node.parts:
            out = _combine(out, concatenated_words(p, maxlen, cap), maxlen)
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} words enumerated")
            if not out:
                break
        return out
    if isinstance(node, Union):
        out = Counter()
        for p in node.parts:
            out += concatenated_words(p, maxlen, cap)
        if len(out) > cap:
            raise CapExceeded(f"more than {cap} words enumerated")
        return out
    if isinstance(node, Star):
        base = concatenated_words(node.inner, maxlen, cap)
        if () in base:
            raise StarOfUnit("empty word under a star")
        total = Counter({(): 1})
        frontier = Counter({(): 1})
        while True:
            frontier = _combine(frontier, base, maxlen)
            if not frontier:
                return total
            total += frontier
            if len(total) > cap:
                raise CapExceeded(f"more than {cap} words enumerated")
    raise TypeError(node)


def minimal_length(node):
    if isinstance(node, (Epsilon, Star)):
        return 0
    if isinstance(node, Letter):
        return 1
    if isinstance(node, Concat):
        return sum(minimal_length(p) for p in node.parts)
    return min(minimal_length(p) for p in node.parts)


def budgeted_words(node, maxlen, cap=10**6):
    """Words of an expression with multiplicity, as concatenated_words,
    except that part i of a concatenation is enumerated only up to maxlen
    minus the other parts' minimal lengths, and the product of parts 0..i
    is kept only up to maxlen minus the later parts' minimal lengths."""
    if isinstance(node, Concat):
        mins = [minimal_length(p) for p in node.parts]
        if sum(mins) > maxlen:
            return Counter()
        out = Counter({(): 1})
        for i, p in enumerate(node.parts):
            part = budgeted_words(p, maxlen - sum(mins) + mins[i], cap)
            out = _combine(out, part, maxlen - sum(mins[i + 1 :]))
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} words enumerated")
        return out
    if isinstance(node, Union):
        out = Counter()
        for p in node.parts:
            out += budgeted_words(p, maxlen, cap)
        if len(out) > cap:
            raise CapExceeded(f"more than {cap} words enumerated")
        return out
    if isinstance(node, Star):
        base = budgeted_words(node.inner, maxlen, cap)
        if () in base:
            raise StarOfUnit("empty word under a star")
        total = Counter({(): 1})
        frontier = Counter({(): 1})
        while True:
            frontier = _combine(frontier, base, maxlen)
            if not frontier:
                return total
            total += frontier
            if len(total) > cap:
                raise CapExceeded(f"more than {cap} words enumerated")
    return concatenated_words(node, maxlen, cap)


def bounded_words(node, maxlen, iterations):
    """Words of an expression with multiplicity, each star taken at most
    iterations times; a nullable star body is allowed."""
    if isinstance(node, (Epsilon, Letter)):
        return concatenated_words(node, maxlen)
    if isinstance(node, Concat):
        out = Counter({(): 1})
        for p in node.parts:
            out = _combine(out, bounded_words(p, maxlen, iterations), maxlen)
        return out
    if isinstance(node, Union):
        parts = (bounded_words(p, maxlen, iterations) for p in node.parts)
        return sum(parts, Counter())
    base = bounded_words(node.inner, maxlen, iterations)
    total = Counter({(): 1})
    power = Counter({(): 1})
    for _ in range(iterations):
        power = _combine(power, base, maxlen)
        total.update(power)
    return total


def multiset_words(expr, maxlen, cap=10**6):
    """The words of expr with multiplicity, as the Kleene enumeration builds
    them for expr alone, before its check for words produced twice."""
    return loopkleene._merged(loopkleene._buckets(expr, maxlen, cap, {}, {}))


def outcome(enumerate_words, expr, maxlen, cap=10**6):
    """The Counter, or the type of the error raised."""
    try:
        return enumerate_words(expr, maxlen, cap)
    except (CapExceeded, StarOfUnit) as exc:
        return type(exc)


# -- random inputs --------------------------------------------------------------


def random_usp_graph(rnd, n):
    """A random tree from the root plus edges from a vertex back to a vertex
    on its tree path (itself included), so every simple path is unique;
    labels repeat, so words can have multiplicity."""
    parent = [None] + [rnd.randrange(v) for v in range(1, n)]
    edges = [(parent[v], rnd.choice("ab"), v) for v in range(1, n)]
    for _ in range(rnd.randint(1, n)):
        src = rnd.randrange(n)
        ancestors = [src]
        while parent[ancestors[-1]] is not None:
            ancestors.append(parent[ancestors[-1]])
        edges.append((src, rnd.choice("abc"), rnd.choice(ancestors)))
    rnd.shuffle(edges)
    return RootedGraph(range(n), [f"v{v}" for v in range(n)], edges, 0, ["a", "b", "c"])


def random_graph(rnd, n):
    """Any multigraph, some vertices unreachable from the root."""
    edges = [
        (rnd.randrange(n), rnd.choice("ab"), rnd.randrange(n))
        for _ in range(rnd.randint(n, 2 * n))
    ]
    return RootedGraph(range(n), [f"v{v}" for v in range(n)], edges, 0, ["a", "b"])


def random_expression(rnd, depth, pool):
    """Letters, ε, concatenations, unions and stars; a third of the inner
    nodes repeat an earlier subtree, as the same object or as an equal copy,
    so the memo is hit.  Ambiguous and nullable star bodies occur."""
    if depth == 0 or rnd.random() < 0.15:
        return Epsilon() if rnd.random() < 0.1 else Letter(rnd.choice("ab"))
    if pool and rnd.random() < 0.33:
        shared = rnd.choice(pool)
        return shared if rnd.random() < 0.5 else copy.deepcopy(shared)
    kind = rnd.randrange(3)
    if kind == 2:
        node = Star(random_expression(rnd, depth - 1, pool))
    else:
        parts = tuple(
            random_expression(rnd, depth - 1, pool) for _ in range(rnd.randint(2, 3))
        )
        node = Concat(parts) if kind == 0 else Union(parts)
    pool.append(node)
    return node


def bundled_result(name):
    chain = load_chain_file(bundled_path(f"{name}.json"))
    return stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")


@pytest.fixture(scope="module", params=BUNDLED)
def bundled(request):
    return bundled_result(request.param)


# -- the Mc walk ----------------------------------------------------------------


@pytest.mark.parametrize("usp", [True, False], ids=["usp", "any"])
def test_walk_matches_unpruned_walk_on_random_graphs(usp):
    rnd = random.Random(41 if usp else 43)
    for _ in range(40):
        n = rnd.randint(2, 9)
        g = random_usp_graph(rnd, n) if usp else random_graph(rnd, n)
        if usp:
            assert check_usp(g)
        maxlen = rnd.randint(0, 8)
        targets = rnd.sample(range(n), rnd.randint(1, n))
        together = _walk_words(g, targets, maxlen, 10**6)
        assert set(together) == set(targets)
        for t in range(n):
            reference, visited = unpruned_path_words(g, t, maxlen)
            assert enumerate_path_words(g, t, maxlen) == reference
            if t in together:
                assert together[t] == reference
            # the pruned walk visits no more partial walks than the
            # unpruned one (the same for every target), so the same cap
            # never fires earlier
            enumerate_path_words(g, t, maxlen, cap=visited)
        _walk_words(g, targets, maxlen, visited)


def test_walk_matches_unpruned_walk_on_bundled_terminals(bundled):
    maxlen = 7
    mc = bundled.mc
    together = _walk_words(mc, [t.vertex for t in bundled.terminals], maxlen, 10**6)
    assert len(together) == len(bundled.terminals)
    for t in bundled.terminals:
        reference, _ = unpruned_path_words(mc, t.vertex, maxlen)
        assert reference, t.name
        assert together[t.vertex] == reference, t.name
        assert enumerate_path_words(mc, t.vertex, maxlen) == reference, t.name
        flat, end = flatten(t.loop_graph)
        assert enumerate_path_words(flat, end, maxlen) == reference, t.name


def test_unreachable_target_gives_no_words():
    # r -a-> u, u -b-> r; w has only an edge out
    g = RootedGraph(
        range(3), ["r", "u", "w"], [(0, "a", 1), (1, "b", 0), (2, "a", 0)], 0, ["a", "b"]
    )
    assert enumerate_path_words(g, 2, 10) == Counter()
    words = _walk_words(g, [1, 2], 10, 10**6)
    assert words[2] == Counter()
    assert words[1] == unpruned_path_words(g, 1, 10)[0]


def test_maxlen_zero_gives_the_empty_word_at_the_root_only():
    g = RootedGraph(
        range(2), ["r", "u"], [(0, "a", 0), (0, "a", 1), (1, "b", 0)], 0, ["a", "b"]
    )
    assert enumerate_path_words(g, 0, 0) == Counter({(): 1})
    assert enumerate_path_words(g, 1, 0) == Counter()
    assert _walk_words(g, [0, 1], 0, 10**6) == {0: Counter({(): 1}), 1: Counter()}


def test_walk_cap():
    # two letters on a self loop: 2^k walks of length k
    g = RootedGraph(range(1), ["r"], [(0, "a", 0), (0, "b", 0)], 0, ["a", "b"])
    reference, visited = unpruned_path_words(g, 0, 6)
    assert enumerate_path_words(g, 0, 6, cap=visited) == reference
    with pytest.raises(CapExceeded, match="^enumerate_path_words: "):
        enumerate_path_words(g, 0, 6, cap=visited - 1)
    with pytest.raises(CapExceeded):
        _walk_words(g, [0], 6, 3)


def assert_cap_is_exact(g, targets, maxlen):
    """The walk passes at a cap of the pruned depth-first walk's visits and
    raises one below; where nothing is visited no cap fires."""
    visits = pruned_walk_visits(g, targets, maxlen)
    _walk_words(g, targets, maxlen, visits)
    if visits:
        with pytest.raises(CapExceeded, match="^enumerate_path_words: "):
            _walk_words(g, targets, maxlen, visits - 1)
    return visits


@pytest.mark.parametrize("usp", [True, False], ids=["usp", "any"])
def test_walk_cap_is_the_pruned_walk_count_on_random_graphs(usp):
    # the graphs, lengths and targets of
    # test_walk_matches_unpruned_walk_on_random_graphs
    rnd = random.Random(41 if usp else 43)
    counted = 0
    for _ in range(40):
        n = rnd.randint(2, 9)
        g = random_usp_graph(rnd, n) if usp else random_graph(rnd, n)
        maxlen = rnd.randint(0, 8)
        targets = rnd.sample(range(n), rnd.randint(1, n))
        counted += assert_cap_is_exact(g, targets, maxlen) > 0
    assert counted > 30


def test_walk_cap_is_the_pruned_walk_count_on_d2c(d2c_result):
    mc = d2c_result.mc
    visits = assert_cap_is_exact(mc, [t.vertex for t in d2c_result.terminals], 10)
    assert visits > 10_000


# -- one walk of all the loop graphs of a result -----------------------------------


def loop_graphs_within_cap(result):
    """(terminal, loop graph) for each terminal whose Pict unfolding is
    within the loop cap; general4b has terminals far above it."""
    out = []
    for t in result.terminals:
        try:
            out.append((t, t.loop_graph))
        except CapExceeded:
            continue
    return out


def assert_merged_walk_is_each_terminals_walk(result, maxlen):
    """One walk of the loop graphs merged by ``flatten`` gives each terminal
    the words of its own flattened loop graph, which are those of its Mc
    paths, as label tuples and as joined labels; the merged graph holds no
    more vertices than the terminals' own graphs together."""
    pairs = loop_graphs_within_cap(result)
    assert pairs
    flat, ends = flatten([lg for _, lg in pairs])
    assert len(set(ends)) == len(ends)
    together = _walk_words(flat, ends, maxlen, 10**7)
    joined = _walk_words(flat, ends, maxlen, 10**7, "".join)
    mc_words = _walk_words(result.mc, [t.vertex for t, _ in pairs], maxlen, 10**7)
    vertices = 0
    for (t, lg), end in zip(pairs, ends):
        own, own_end = flatten(lg)
        vertices += own.n_vertices()
        words = enumerate_path_words(own, own_end, maxlen)
        assert together[end] == words == mc_words[t.vertex], t.name
        assert joined[end] == {"".join(w): c for w, c in words.items()}, t.name
    assert flat.n_vertices() <= vertices
    return result.case


def test_merged_loop_graph_walk_on_bundled_chains(bundled):
    assert_merged_walk_is_each_terminals_walk(bundled, 7)


@pytest.mark.parametrize("path", sorted(CHAINS.glob("*.json")), ids=lambda p: p.stem)
def test_merged_loop_graph_walk_on_test_chains(path):
    chain = load_chain_file(str(path))
    result = stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")
    assert_merged_walk_is_each_terminals_walk(result, 4)


def test_merged_loop_graph_walk_on_random_chains():
    # seeded random transformation semigroups, four of each ideal case
    rnd = random.Random(23)
    cases = Counter()
    while len(cases) < 2 or min(cases.values()) < 4:
        n = rnd.randint(2, 4)
        gens = [
            ("abc"[i], tuple(rnd.randrange(n) for _ in range(n)))
            for i in range(rnd.randint(2, 3))
        ]
        s = FiniteSemigroup.generate(gens)
        case = "left_zero" if s.minimal_ideal().is_left_zero else "general"
        if cases[case] < 4:
            assert assert_merged_walk_is_each_terminals_walk(stationary(s), 5) == case
            cases[case] += 1


def test_flatten_of_one_loop_graph_in_a_list(d2_result):
    lg = d2_result.terminals[5].loop_graph
    flat, end = flatten(lg)
    merged, ends = flatten([lg])
    assert ends == [end]
    assert (merged.names, merged.edges) == (flat.names, flat.edges)
    with pytest.raises(ValueError, match="one vertex"):
        flatten([])
    other = copy.deepcopy(lg)
    with pytest.raises(ValueError, match="one vertex"):
        flatten([lg, other])


# -- the Kleene enumeration -------------------------------------------------------


def test_kleene_enumeration_matches_concatenation_on_random_expressions():
    rnd = random.Random(47)
    seen = Counter()
    for _ in range(300):
        expr = random_expression(rnd, rnd.randint(1, 4), [])
        maxlen = rnd.randint(0, 7)
        reference = outcome(budgeted_words, expr, maxlen)
        assert outcome(multiset_words, expr, maxlen) == reference, str(expr)
        unbudgeted = outcome(concatenated_words, expr, maxlen)
        if isinstance(unbudgeted, Counter):
            assert reference == unbudgeted, str(expr)
        elif reference != unbudgeted:
            # the whole-Counter enumeration meets a nullable star that no
            # word of length <= maxlen passes through
            assert unbudgeted is StarOfUnit, str(expr)
            assert isinstance(reference, Counter), str(expr)
            seen["unreached nullable star"] += 1
        if not isinstance(reference, Counter):
            seen[reference.__name__] += 1
            with pytest.raises(reference):
                kleene_enumerate(expr, maxlen)
        elif any(c > 1 for c in reference.values()):
            seen["ambiguous"] += 1
            with pytest.raises(AmbiguousExpression):
                kleene_enumerate(expr, maxlen)
        else:
            seen["unambiguous"] += 1
            assert kleene_enumerate(expr, maxlen) == reference, str(expr)
    # every kind of outcome is exercised
    assert seen["StarOfUnit"] and seen["ambiguous"] and seen["unambiguous"] > 50
    assert seen["unreached nullable star"]


def smallest_cap(expr, maxlen):
    """The least cap at which ``multiset_words`` does not raise CapExceeded."""
    cap = 0
    while outcome(multiset_words, expr, maxlen, cap) is CapExceeded:
        cap += 1
    return cap


def test_kleene_cap_fires_at_the_same_sizes():
    rnd = random.Random(53)
    checked = 0
    later = 0
    rejected = 0
    while checked < 40:
        expr = random_expression(rnd, 3, [])
        reference = outcome(concatenated_words, expr, 6)
        if not isinstance(reference, Counter):
            # a nullable star: the budgeted outcome, StarOfUnit or a Counter,
            # and the caps below it agree with budgeted_words
            budgeted = outcome(budgeted_words, expr, 6)
            caps = smallest_cap(expr, 6) + 2
            if isinstance(budgeted, Counter):
                caps = max(caps, len(budgeted) + 2)
            for cap in range(caps):
                got = outcome(multiset_words, expr, 6, cap)
                assert got == outcome(budgeted_words, expr, 6, cap), (str(expr), cap)
                assert got in (CapExceeded, budgeted), (str(expr), cap)
            rejected += budgeted is StarOfUnit
            continue
        for cap in range(len(reference) + 2):
            got = outcome(multiset_words, expr, 6, cap)
            assert got == outcome(budgeted_words, expr, 6, cap), (str(expr), cap)
            unbudgeted = outcome(concatenated_words, expr, 6, cap)
            if got is CapExceeded:
                assert unbudgeted is CapExceeded, (str(expr), cap)
            else:
                assert got == reference, (str(expr), cap)
                later += unbudgeted is CapExceeded
        checked += 1
    # the budgets keep fewer words than the whole enumeration somewhere
    assert later
    assert rejected


# -- one enumeration for many expressions ------------------------------------------


def batch_outcomes(exprs, maxlen, cap=10**6):
    """Each expression's words from one enumeration of them all, as
    ``verify_language_and_series`` runs it, up to the first error, which
    ends the list as its type."""
    got = []
    try:
        for buckets in loopkleene._kleene_words(exprs, maxlen, cap):
            got.append(loopkleene._merged(buckets))
    except (CapExceeded, StarOfUnit, AmbiguousExpression) as exc:
        got.append(type(exc))
    return got


def fresh_outcomes(exprs, maxlen, cap=10**6):
    """The same from one ``kleene_enumerate`` call per expression."""
    got = []
    for expr in exprs:
        try:
            got.append(kleene_enumerate(expr, maxlen, cap))
        except (CapExceeded, StarOfUnit, AmbiguousExpression) as exc:
            got.append(type(exc))
            break
    return got


def shared_batch(rnd, order):
    """Expressions a^k X, each X a subtree of random expressions that share
    subtrees, with the k in increasing or decreasing order or mixed: the
    memo is asked for a shared node at lengths that grow, shrink or both."""
    pool = []
    bases = [random_expression(rnd, rnd.randint(1, 4), pool) for _ in range(3)]
    shifts = [rnd.randint(0, 4) for _ in range(rnd.randint(2, 6))]
    if order != "mixed":
        shifts.sort(reverse=order == "increasing")
    a = Letter("a")
    return [concat((a,) * k + (rnd.choice(pool + bases),)) for k in shifts]


@pytest.mark.parametrize("order", ["increasing", "decreasing", "mixed"])
def test_shared_enumeration_equals_fresh_ones_on_random_batches(order):
    rnd = random.Random({"increasing": 61, "decreasing": 67, "mixed": 71}[order])
    seen = Counter()
    for _ in range(60):
        exprs = shared_batch(rnd, order)
        for maxlen in range(8):
            got = batch_outcomes(exprs, maxlen)
            assert got == fresh_outcomes(exprs, maxlen), ([str(e) for e in exprs], maxlen)
            seen[got[-1] if isinstance(got[-1], type) else "words"] += 1
    # every kind of outcome is exercised: AmbiguousExpression and StarOfUnit
    # are raised for the expression a fresh enumeration raises them for
    assert seen[StarOfUnit] and seen[AmbiguousExpression] and seen["words"] > 100


def test_shared_enumeration_cap_fires_as_on_fresh_ones():
    rnd = random.Random(73)
    fired = 0
    for _ in range(30):
        exprs = shared_batch(rnd, rnd.choice(["increasing", "decreasing", "mixed"]))
        cap = 0
        while CapExceeded in fresh_outcomes(exprs, 5, cap):
            assert batch_outcomes(exprs, 5, cap) == fresh_outcomes(exprs, 5, cap)
            fired += 1
            cap += 1
        assert batch_outcomes(exprs, 5, cap) == fresh_outcomes(exprs, 5, cap)
    assert fired
    # the second star is asked for more words than the first
    exprs = [Star(Letter("a")), Star(Union((Letter("a"), Letter("b"))))]
    a_words = Counter({("a",) * n: 1 for n in range(7)})
    assert batch_outcomes(exprs, 6, 126) == [a_words, CapExceeded]
    with pytest.raises(CapExceeded, match="^kleene_enumerate: "):
        list(loopkleene._kleene_words(exprs, 6, 126))


def test_shared_enumeration_equals_fresh_ones_on_bundled_terminals(bundled):
    exprs = [t.expression for t in bundled.terminals]
    for maxlen in (7, 3):
        assert batch_outcomes(exprs, maxlen) == fresh_outcomes(exprs, maxlen)


def test_kleene_enumeration_matches_concatenation_on_bundled_terminals(bundled):
    for t in bundled.terminals:
        reference = concatenated_words(t.expression, 7)
        assert kleene_enumerate(t.expression, 7) == reference, t.name


def test_kleene_budgets_bound_the_pairs_built_on_d2c(monkeypatch):
    # the unbudgeted enumeration builds 1,388,121 word pairs here
    pairs = [0]
    joined = loopkleene._joined

    def counted(a, b):
        pairs[0] += len(a) * len(b)
        return joined(a, b)

    monkeypatch.setattr(loopkleene, "_joined", counted)
    result = bundled_result("d2c")
    mc_words = _walk_words(result.mc, [t.vertex for t in result.terminals], 10, 10**7)
    for t in result.terminals:
        words = kleene_enumerate(t.expression, 10)
        assert words and words == mc_words[t.vertex], t.name
    assert pairs[0] < 200_000


@pytest.mark.parametrize(
    "body",
    [
        Star(Letter("a")),
        Union((Epsilon(), Letter("a"))),
        Concat((Star(Letter("a")), Star(Letter("b")))),
        Epsilon(),
    ],
    ids=str,
)
def test_nullable_star_body_is_rejected(body):
    with pytest.raises(StarOfUnit):
        kleene_enumerate(Concat((Letter("a"), Star(body))), 3)


def test_nullable_star_is_rejected_where_a_word_passes_through_it():
    a = Letter("a")
    # the outer star's body needs three letters after the leading aaa, so at
    # 5 no word passes through the inner star, and at 6 aaaaaa does, once
    # per number of its ε iterations
    expr = Concat((a, a, a, Star(Concat((a, a, a, Star(Epsilon()))))))
    assert outcome(concatenated_words, expr, 5) is StarOfUnit
    assert kleene_enumerate(expr, 5) == Counter({("a",) * 3: 1})
    with pytest.raises(StarOfUnit):
        kleene_enumerate(expr, 6)
    # after six letters nothing fits at 5; at 6 the star is reached
    expr = Concat((a,) * 6 + (Star(Epsilon()),))
    assert outcome(concatenated_words, expr, 5) == Counter()
    assert kleene_enumerate(expr, 5) == Counter()
    with pytest.raises(StarOfUnit):
        kleene_enumerate(expr, 6)


def test_star_of_unit_exactly_where_a_count_is_infinite():
    # without a nullable star body reached, a star takes at most maxlen
    # iterations in a word of length <= maxlen, so the bounded counts are
    # final; with one, every extra iteration allowed counts a word again
    rnd = random.Random(59)
    seen = Counter()
    for _ in range(400):
        expr = random_expression(rnd, rnd.randint(1, 3), [])
        maxlen = rnd.randint(0, 5)
        bounded = bounded_words(expr, maxlen, maxlen + 3)
        infinite = bounded_words(expr, maxlen, maxlen + 4) != bounded
        got = outcome(multiset_words, expr, maxlen)
        if infinite:
            assert got is StarOfUnit, (str(expr), maxlen)
            with pytest.raises(StarOfUnit):
                kleene_enumerate(expr, maxlen)
        else:
            assert got == bounded, (str(expr), maxlen)
        seen[infinite] += 1
    assert seen[True] and seen[False]


def test_kleene_enumeration_work_on_grid4x3_3():
    # Python calls into loopkleene while every terminal is enumerated at
    # length 5: about 16,500, where a walk over each whole expression to
    # find its nullable stars takes about 143,000
    chain = load_chain_file(str(CHAINS / "grid4x3_3.json"))
    result = stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")
    expressions = [t.expression for t in result.terminals]
    calls = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == loopkleene.__file__:
            calls[0] += 1

    sys.setprofile(count)
    try:
        for expr in expressions:
            kleene_enumerate(expr, 5)
    finally:
        sys.setprofile(None)
    assert len(expressions) == 288
    assert calls[0] < 40_000


@pytest.mark.parametrize(
    "enumerate_words",
    [
        lambda: kleene_enumerate(Star(Letter("a")), -1),
        lambda: enumerate_path_words(
            RootedGraph(range(1), ["r"], [(0, "a", 0)], 0, ["a"]), 0, -1
        ),
        lambda: verify_language_and_series(bundled_result("example210"), -1),
    ],
    ids=["kleene_enumerate", "enumerate_path_words", "verify_language_and_series"],
)
def test_negative_maxlen_is_rejected(enumerate_words):
    with pytest.raises(ValueError, match="maxlen"):
        enumerate_words()


def test_kleene_cap():
    expr = Star(Union((Letter("a"), Letter("b"))))
    assert len(kleene_enumerate(expr, 6, cap=127)) == 127
    with pytest.raises(CapExceeded, match="^kleene_enumerate: "):
        kleene_enumerate(expr, 6, cap=126)


def test_kleene_maxlen_zero():
    expr = Concat((Star(Letter("a")), Star(Letter("b"))))
    assert kleene_enumerate(expr, 0) == Counter({(): 1})
    assert kleene_enumerate(Letter("a"), 0) == Counter()


# -- verify_language_and_series fails on a wrong oracle ---------------------------


def absent_word(words, alphabet, maxlen):
    """The labels of the first word of length <= maxlen over alphabet,
    shortest first, whose joined labels words does not count."""
    for length in range(maxlen + 1):
        for labels in product(sorted(alphabet), repeat=length):
            if "".join(labels) not in words:
                return labels
    raise AssertionError("every word is counted")


def mutate(words, how, alphabet, maxlen):
    """A copy of words, keyed by joined labels, with one word dropped,
    added, or counted twice; returns (copy, the word, its count before, its
    count after, its number of labels or None where words has it)."""
    words = Counter(words)
    labels = absent_word(words, alphabet, maxlen) if how == "add" else None
    word = min(words) if labels is None else "".join(labels)
    before = words[word]
    if how == "drop":
        del words[word]
    else:
        words[word] = {"add": 1, "double": 2}[how]
    length = None if labels is None else len(labels)
    return words, word, before, words[word], length


@pytest.mark.parametrize("how", ["drop", "add", "double"])
@pytest.mark.parametrize("oracle", ["mc", "loop graph", "expression"])
def test_verification_fails_on_a_wrong_word_multiset(
    d2_result, monkeypatch, oracle, how
):
    maxlen = 6
    victim_at = 5
    victim = d2_result.terminals[victim_at]
    alphabet = set(d2_result.mc.alphabet)
    seen = {}

    def wrong(words):
        words, word, before, after, length = mutate(words, how, alphabet, maxlen)
        seen.update(word=word, before=before, after=after, length=length)
        return words

    if oracle in ("mc", "loop graph"):
        walk = pipeline._walk_words

        def patched(g, targets, maxlen, cap, spell):
            # called once on Mc with the terminals' vertices, and once on
            # their merged loop graphs with the spine ends, in the order of
            # the terminals
            words = walk(g, targets, maxlen, cap, spell)
            if (g is d2_result.mc) == (oracle == "mc"):
                target = victim.vertex if oracle == "mc" else targets[victim_at]
                words[target] = wrong(words[target])
            return words

        monkeypatch.setattr(pipeline, "_walk_words", patched)
    else:
        kleene_words = pipeline._kleene_words

        def patched(exprs, maxlen, cap, spell):
            # one enumeration for all the terminals' expressions, in their
            # order, yielding each one's words as one dict per length
            exprs = list(exprs)
            for expr, buckets in zip(exprs, kleene_words(exprs, maxlen, cap, spell)):
                if expr is victim.expression:
                    lengths = {w: n for n, bucket in enumerate(buckets) for w in bucket}
                    words = wrong(loopkleene._merged(buckets))
                    lengths.setdefault(seen["word"], seen["length"])
                    buckets = [{} for _ in range(maxlen + 1)]
                    for word, c in words.items():
                        buckets[lengths[word]][word] = c
                yield buckets

        monkeypatch.setattr(pipeline, "_kleene_words", patched)
    pair = "loop graph vs expression" if oracle == "expression" else "Mc vs loop graph"
    with pytest.raises(VerificationFailed) as failed:
        verify_language_and_series(d2_result, maxlen)
    word = seen["word"]
    before, after = seen["before"], seen["after"]
    counts = f"{after} vs {before}" if oracle == "mc" else f"{before} vs {after}"
    assert str(failed.value) == (
        f"path/word multisets disagree for vertex {victim.name}: {pair} at "
        f"{word!r}, counted {counts}"
    )


def test_verification_hands_every_walker_the_default_cap(d2_result, monkeypatch):
    """sgmc verify stops at the word cap that kleene_enumerate and
    enumerate_path_words stop at when called on their own."""
    defaults = {
        signature(f).parameters["cap"].default
        for f in (kleene_enumerate, enumerate_path_words)
    }
    assert len(defaults) == 1
    caps = []
    for name in ("_walk_words", "_kleene_words"):

        def recorded(*args, walker=getattr(pipeline, name)):
            caps.append(signature(walker).bind(*args).arguments["cap"])
            return walker(*args)

        monkeypatch.setattr(pipeline, name, recorded)
    assert verify_language_and_series(d2_result, 4) == len(d2_result.terminals)
    # one walk of Mc, one of the merged loop graphs, one enumeration
    assert len(caps) == 3
    assert set(caps) == defaults


def test_verification_names_the_least_differing_word():
    a = Counter({"a": 1, "ba": 2, "bb": 1})
    b = Counter({"a": 1, "ba": 1})
    with pytest.raises(
        VerificationFailed,
        match="^path/word multisets disagree for vertex v: A vs B at 'ba', "
        "counted 2 vs 1$",
    ):
        pipeline._same_words("v", ("A", a), ("B", b))
    pipeline._same_words("v", ("A", b), ("B", Counter(b)))


def multi_character_result():
    """The d2c chain with generator labels 10, 2 and ab: a group, so the
    general case, and □ is adjoined."""
    actions = {"10": (1, 0, 3, 2), "2": (2, 3, 0, 1), "ab": (0, 1, 2, 3)}
    spec = MarkovChainSpec(
        ("1", "a", "b", "ab"),
        tuple(ChainGenerator(label, a, None) for label, a in actions.items()),
    )
    return stationary(build_semigroup(spec))


def first_difference(u, v):
    """How tuple order decides u < v: "prefix" where one is a proper prefix
    of the other, else "lengths" where the first labels they differ in are
    of different lengths, else "same length"."""
    for a, b in zip(u, v):
        if a != b:
            return "lengths" if len(a) != len(b) else "same length"
    return "prefix"


def test_verification_names_the_tuple_least_word_with_multi_character_labels(
    monkeypatch,
):
    """Words are joined labels; with labels of different lengths the word a
    failure names is still the least in the order of label tuples.  Each
    trial counts some words once more on Mc: pairs of the victim's words
    whose order the first differing labels decide, a word with its proper
    prefix or one-label extension (no walk of a terminal extends another
    here), and random sets of its words."""
    result = multi_character_result()
    assert result.case == "general"
    assert {"10", "2", "ab", "□"} <= set(result.mc.alphabet)
    maxlen = 5
    victim = max(
        result.terminals,
        key=lambda t: len(enumerate_path_words(result.mc, t.vertex, maxlen)),
    )
    words = enumerate_path_words(result.mc, victim.vertex, maxlen)
    ordered = sorted(words)
    rnd = random.Random(89)
    by_kind = {}
    for u, v in product(ordered, repeat=2):
        if u < v:
            by_kind.setdefault(first_difference(u, v), []).append([u, v])
    assert {"lengths", "same length"} <= set(by_kind)
    trials = [pair for pairs in by_kind.values() for pair in rnd.sample(pairs, 4)]
    for u in rnd.sample([w for w in ordered if 1 < len(w) < maxlen], 4):
        trials += [[u, u[:-1]], [u, u + (rnd.choice(result.mc.alphabet),)]]
    trials += [rnd.sample(ordered, rnd.randint(2, 6)) for _ in range(6)]
    kinds = Counter(first_difference(*sorted(trial[:2])) for trial in trials)
    assert kinds["prefix"] == 8 and kinds["lengths"] >= 4
    walk = pipeline._walk_words
    for trial in trials:

        def patched(g, targets, maxlen, cap, spell, trial=trial):
            found = walk(g, targets, maxlen, cap, spell)
            if g is result.mc:
                found[victim.vertex].update("".join(labels) for labels in trial)
            return found

        monkeypatch.setattr(pipeline, "_walk_words", patched)
        with pytest.raises(VerificationFailed) as failed:
            verify_language_and_series(result, maxlen)
        least = min(trial)  # in the order of label tuples
        assert str(failed.value) == (
            f"path/word multisets disagree for vertex {victim.name}: Mc vs loop "
            f"graph at {''.join(least)!r}, counted {words[least] + 1} vs "
            f"{words[least]}"
        ), trial


def test_verification_fails_on_a_wrong_series_term(d2_result, monkeypatch):
    series_at = RationalFunction.series_at
    victim = d2_result.terminals[5]

    def tampered(self, point, bound):
        terms = series_at(self, point, bound)
        if self is victim.psi:
            terms[3] += 1
        return terms

    monkeypatch.setattr(RationalFunction, "series_at", tampered)
    with pytest.raises(
        VerificationFailed, match=f"^series degree 3 of {victim.name} counts "
    ):
        verify_language_and_series(d2_result, 6)
