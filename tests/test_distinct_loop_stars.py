"""Loop stars built once per distinct loop system.

``reference_loop_stars`` is ``loop_stars`` as it was before stars were
shared: it builds the star of every vertex with loops.  ``loop_systems``
numbers the loop systems structurally, a cycle's inner vertices by the
numbers of their own systems, so it needs no identity of rational
functions.  ``loop_stars`` must call ``RationalFunction.star`` once per
number, give every vertex of one number the same object, and give each
vertex the form the reference builds.
"""

from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from sgmc.algebra import RationalFunction
from sgmc.cli import load_chain_file
from sgmc.expansions import RootedGraph, _loop_table
from sgmc.loopkleene import _product, _variable, loop_stars
from sgmc.pipeline import build_semigroup, stationary

CHAINS = Path(__file__).with_name("chains")


def reference_loop_stars(g):
    order, cycles, _ = _loop_table(g)
    stars = [None] * g.n_vertices()
    for v in order:
        products = [
            _product(g, stars, body, _variable(closing))
            for body, closing in cycles[v]
        ]
        if products:
            stars[v] = RationalFunction.sum(products).star()
    return stars


def loop_systems(g):
    """[number of v's loop system, or None without loops], and the count.

    A system is its cycles in table order, each its body's (label, number
    of the entered vertex) pairs and its closing label."""
    order, cycles, _ = _loop_table(g)
    numbers = [None] * g.n_vertices()
    seen = {}
    for v in order:
        if cycles[v]:
            key = tuple(
                (
                    tuple((g.edges[e][1], numbers[g.edges[e][2]]) for e in body),
                    closing,
                )
                for body, closing in cycles[v]
            )
            numbers[v] = seen.setdefault(key, len(seen))
    return numbers, len(seen)


def form(rf):
    return rf.poly.terms, rf.factors


@pytest.fixture
def star_calls(monkeypatch):
    calls = [0]
    star = RationalFunction.star

    def counted(self):
        calls[0] += 1
        return star(self)

    monkeypatch.setattr(RationalFunction, "star", counted)
    return calls


@cache
def chain_mc(name):
    chain = load_chain_file(str(CHAINS / f"{name}.json"))
    return stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□").mc


# McCammond vertices with loops, and distinct loop systems among them
SYSTEMS = {
    "pinned2": (359, 24),
    "grid4x3_3": (297, 33),
    "general5": (602, 38),
    "general4b": (608, 130),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_one_star_per_distinct_loop_system(name, star_calls):
    mc = chain_mc(name)
    numbers, distinct = loop_systems(mc)
    assert (sum(n is not None for n in numbers), distinct) == SYSTEMS[name]
    star_calls[0] = 0  # the pipeline run, if it was made here, built its own
    loop_stars(mc)
    assert star_calls[0] == distinct


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_equal_systems_share_one_star_of_the_reference_form(name):
    mc = chain_mc(name)
    numbers, distinct = loop_systems(mc)
    stars = loop_stars(mc)
    reference = reference_loop_stars(mc)
    first = {}
    for v, number in enumerate(numbers):
        if number is None:
            assert stars[v] is None
            continue
        assert stars[v] is first.setdefault(number, stars[v])
        assert form(stars[v]) == form(reference[v])
    assert len({id(star) for star in first.values()}) == distinct


def twins():
    """r -a-> u -c-> p -d-> u and r -b-> w -c-> q -d-> w, with a loop e at
    q and at z (r -f-> z): u and w have cycles of the same labels around
    different inner stars, and q and z have the same loop system."""
    names = ["r", "u", "w", "p", "q", "z"]
    r, u, w, p, q, z = range(6)
    edges = [
        (r, "a", u),
        (r, "b", w),
        (r, "f", z),
        (u, "c", p),
        (w, "c", q),
        (p, "d", u),
        (q, "d", w),
        (q, "e", q),
        (z, "e", z),
    ]
    return RootedGraph(range(6), names, edges, r, ["a", "b", "c", "d", "e", "f"])


def test_equal_labels_around_different_inner_stars_are_told_apart(star_calls):
    g = twins()
    stars = loop_stars(g)
    assert star_calls[0] == 3
    u, w, p, q, z = 1, 2, 3, 4, 5
    # S(u) = 1/(1 - x_c x_d) and S(w) = 1/(1 - x_c x_d/(1 - x_e))
    point = dict.fromkeys("abcdef", Fraction(1, 3))
    assert stars[u].evaluate(point) == Fraction(9, 8)
    assert stars[w].evaluate(point) == Fraction(6, 5)
    reference = reference_loop_stars(g)
    for v in (u, w, q, z):
        assert form(stars[v]) == form(reference[v])
    assert stars[p] is None
    assert stars[q] is stars[z]
