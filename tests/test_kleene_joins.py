"""How the Kleene enumeration joins the parts of a concatenation.

A side whose length-0 bucket is the empty word with count 1 passes the other
side's buckets through as copies; a side of one word with count 1 joins
without multiplying counts; a Letter is joined to the part before it before
the pair meets the product of the earlier parts.  The words and their counts
must not change, no stored bucket may be changed through a copy, the cap
must fire before the part it fired before, and the word pairs built on d2c
must stay below the count these rules bring.
"""

import random
from collections import Counter

import pytest

from sgmc import loopkleene
from sgmc.errors import AmbiguousExpression, CapExceeded, StarOfUnit
from sgmc.loopkleene import Concat, Epsilon, Letter, Star, Union, kleene_enumerate
from test_enumeration import (
    BUNDLED,
    bundled_result,
    multiset_words,
    outcome,
    random_expression,
)

A = Letter("a")
B = Letter("b")


def test_empty_word_on_both_sides_is_counted_once():
    # a*·a* holds ε once, a twice (a·ε, ε·a) and aa three times
    expr = Concat((Star(A), Star(A)))
    with pytest.raises(AmbiguousExpression):
        kleene_enumerate(expr, 2)
    assert multiset_words(expr, 2) == Counter({(): 1, ("a",): 2, ("a", "a"): 3})


@pytest.mark.parametrize(
    "expr, words",
    [
        (Concat((Union((A, A)), B)), {("a", "b"): 2}),
        (Concat((B, Union((A, A)))), {("b", "a"): 2}),
        (Concat((Union((A, A)), Union((B, B)))), {("a", "b"): 4}),
        (Concat((Union((A, A)), Star(B))), {("a",): 2, ("a", "b"): 2}),
    ],
    ids=["twice-then-one", "one-then-twice", "twice-twice", "twice-then-star"],
)
def test_one_word_counted_twice_still_multiplies(expr, words):
    assert multiset_words(expr, 2) == Counter(words)


def assert_fresh(memo, nodes, spell):
    """Each bucket list memo keeps equals a fresh enumeration of its node
    (nodes maps ids to nodes) at its length."""
    assert memo
    for key, stored in memo.items():
        fresh = loopkleene._buckets(nodes[key], len(stored) - 1, 10**7, {}, {}, spell)
        assert stored == fresh, str(nodes[key])


def subtrees(node, nodes):
    """Map the id of node and of every node under it to the node."""
    nodes[id(node)] = node
    for part in getattr(node, "parts", ()):
        subtrees(part, nodes)
    if isinstance(node, Star):
        subtrees(node.inner, nodes)
    return nodes


@pytest.mark.parametrize("name", BUNDLED)
def test_memo_entries_are_not_changed_on_bundled_terminals(monkeypatch, name):
    # the memo one enumeration of all of a chain's terminals keeps, and every
    # terminal's own words, against fresh enumerations
    memos = []
    buckets = loopkleene._buckets

    def recorded(node, length, cap, memo, minlens, spell=tuple):
        if not memos:
            memos.append(memo)
        return buckets(node, length, cap, memo, minlens, spell)

    monkeypatch.setattr(loopkleene, "_buckets", recorded)
    exprs = [t.expression for t in bundled_result(name).terminals]
    words = list(loopkleene._kleene_words(exprs, 10, 10**7, "".join))
    monkeypatch.setattr(loopkleene, "_buckets", buckets)
    nodes = {}
    for expr in exprs:
        subtrees(expr, nodes)
    kept = dict(memos[0])
    kept.update((id(e), b) for e, b in zip(exprs, words))
    assert_fresh(kept, nodes, "".join)


def test_memo_entries_are_not_changed_on_random_expressions():
    # expressions that share subtrees, stars first in a concatenation among
    # them, enumerated with one memo
    rnd = random.Random(67)
    memo, minlens, nodes, pool = {}, {}, {}, []
    for _ in range(200):
        expr = random_expression(rnd, 3, pool)
        subtrees(expr, nodes)
        try:
            loopkleene._buckets(expr, 6, 10**7, memo, minlens)
        except StarOfUnit:
            pass
    assert_fresh(memo, nodes, tuple)


def test_a_held_part_meets_the_cap_before_the_next_star():
    # the second {a, b} waits for the Letter after it, and the product of
    # the first three parts meets the cap before the star is enumerated, as
    # {a, b}·{a, b} did when the parts were joined one by one
    ab = Union((A, B))
    expr = Concat((ab, ab, A, Star(Epsilon())))
    assert outcome(multiset_words, expr, 3, 3) is CapExceeded
    assert outcome(multiset_words, expr, 3, 4) is StarOfUnit


def test_joins_build_at_most_85000_pairs_on_d2c(monkeypatch):
    # one kleene_enumerate per terminal, as the budget test beside it counts,
    # builds 83,460; joining the parts one by one built 115,422, and without
    # the groups of a part and the Letter after it 96,312 are built
    pairs = [0]
    joined = loopkleene._joined

    def counted(a, b):
        pairs[0] += len(a) * len(b)
        return joined(a, b)

    monkeypatch.setattr(loopkleene, "_joined", counted)
    result = bundled_result("d2c")
    for t in result.terminals:
        assert kleene_enumerate(t.expression, 10), t.name
    assert pairs[0] <= 85_000
