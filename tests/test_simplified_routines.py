"""Routines that lost a lookup table or a general case, each against a
reference that keeps it.

- ``sgmc export --graph loop:<w>`` walks the word through Mc; the reference
  scans every Mc vertex for the word.
- ``Polynomial.__pow__`` is a repeated product; the reference is the
  product written out.
- ``kr_expand`` reads a right Cayley edge id off the construction order;
  the reference looks it up in an ``(element, label) -> edge id`` dict.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from sgmc.algebra import Polynomial
from sgmc.cli import bundled_path, load_chain_file, main
from sgmc.errors import CapExceeded
from sgmc.expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    KrVertex,
    RootedGraph,
    kr_expand,
    render_dot,
    right_cayley,
    scc,
    simple_path_edges,
    transition_edges,
)
from sgmc.loopkleene import flatten, pict
from sgmc.pipeline import _expand, build_semigroup
from sgmc.semigroup import FiniteSemigroup, IDENTITY_NAME

from conftest import tree_word

TEST_CHAINS = Path(__file__).with_name("chains")
BUNDLED = ("d2.json", "d2box.json", "d2c.json", "example210.json")
EXPORT_CHAINS = [bundled_path(n) for n in BUNDLED] + [
    str(TEST_CHAINS / n) for n in ("left_zero3.json", "general4.json")
]


# -- export --graph loop:<w> ---------------------------------------------------


def _expanded(path):
    chain = load_chain_file(path)
    s = build_semigroup(chain.spec)
    if chain.box_label is not None:
        s = s.adjoin_zero(chain.box_label)
    kr, mc, tree, _ = _expand(s, DEFAULT_MAX_KR, DEFAULT_MAX_MC)
    return s, s.minimal_ideal(), kr, mc, tree


def scanned_export(expanded, word):
    """(exit code, stdout, stderr) of the export, finding the vertex by a scan
    of every Mc vertex's word."""
    s, ideal, kr, mc, _ = expanded
    for label in word:
        if label not in s.labels:
            return 1, "", (
                f"error: {label!r} is not a generator label "
                "(separate labels with ',')\n"
            )
    target = next(
        (vid for vid in range(mc.n_vertices()) if tree_word(mc, vid) == word),
        None,
    )
    if target is None:
        return 1, "", f"error: no vertex {''.join(word)!r} in the expansion\n"
    if kr.payloads[mc.payloads[target].kr_vertex].element not in ideal.members:
        return 1, "", (
            f"error: vertex {''.join(word) or IDENTITY_NAME!r} does not end in "
            "the minimal ideal\n"
        )
    lg = pict(mc, simple_path_edges(mc)[target], verify_usp=False)
    flat, _ = flatten(lg)
    return 0, render_dot(flat, "loop", blue_edges=set(range(len(lg.spine_labels)))), ""


# the error each kind of non-vertex word gets
ANSWERS = ("is not a generator label", "in the expansion", "the minimal ideal")


def cli_export(path, word):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["export", path, "--graph", "loop:" + "".join(word)])
    return code, out.getvalue(), err.getvalue()


def non_vertex_words(expanded, rnd):
    """Words that name no Mc vertex, or one outside K(S): one through each
    kind of dead end the walk can meet, then seeded random words."""
    s, _, _, mc, tree = expanded
    words = [(), ("z",), (s.labels[0], "z")]
    back = [eid for eid in range(len(mc.edges)) if eid not in tree]
    for eid in rnd.sample(back, min(5, len(back))):
        src, label, _ = mc.edges[eid]
        words.append(tree_word(mc, src) + (label,))
        words.append(tree_word(mc, src) + (label, s.labels[-1]))
    sinks = [v for v in range(mc.n_vertices()) if not mc.out_edges(v)]
    for v in rnd.sample(sinks, min(5, len(sinks))):
        words.append(tree_word(mc, v) + (rnd.choice(s.labels),))
    for _ in range(20):
        words.append(tuple(rnd.choices(s.labels, k=rnd.randint(1, 8))))
    return words


@pytest.mark.parametrize("path", EXPORT_CHAINS, ids=lambda p: Path(p).stem)
def test_export_loop_matches_the_scan(path):
    expanded = _expanded(path)
    s, _, _, mc, _ = expanded
    assert all(len(label) == 1 for label in s.labels)  # words print unsplit
    words = [tree_word(mc, v) for v in range(mc.n_vertices())]
    words += non_vertex_words(expanded, random.Random(Path(path).stem))
    kinds = set()
    for word in words:
        expected = scanned_export(expanded, word)
        assert cli_export(path, word) == expected, word
        code, _, err = expected
        kinds.add("graph" if code == 0 else next(k for k in ANSWERS if k in err))
    assert kinds == {"graph", *ANSWERS}


# -- Polynomial.__pow__ --------------------------------------------------------


def _random_polynomial(rnd, coefficient):
    x = [Polynomial.variable(v) for v in "abc"]
    out = Polynomial.zero()
    for _ in range(rnd.randint(1, 4)):
        term = Polynomial.const(coefficient(rnd))
        for var in x:
            term = term * var ** rnd.randint(0, 2)
        out = out + term
    return out


COEFFICIENTS = {
    "int": lambda rnd: rnd.choice([-3, -2, -1, 1, 2, 5]),
    "fraction": lambda rnd: Fraction(rnd.randint(-5, 5) or 1, rnd.randint(1, 7)),
}


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_power_is_the_repeated_product(kind):
    rnd = random.Random(kind)
    for _ in range(12):
        p = _random_polynomial(rnd, COEFFICIENTS[kind])
        product = Polynomial.const(1)
        for n in range(13):
            power = p**n
            assert power == product and str(power) == str(product), (str(p), n)
            product = product * p
        with pytest.raises(ValueError, match="^negative polynomial power$"):
            p ** -1


# -- kr_expand -------------------------------------------------------------------


def kr_expand_by_lookup(s, max_vertices=DEFAULT_MAX_KR):
    """kr_expand with each right Cayley edge id looked up by (element, label)."""
    rcay = right_cayley(s)
    trans = transition_edges(rcay, scc(rcay))
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
                    raise CapExceeded(f"KR expansion exceeds {max_vertices} vertices")
                nid = len(payloads)
                vertex_of[nxt] = nid
                payloads.append(nxt)
                words.append(words[vid] + (label,))
                queue.append(nid)
            edges.append((vid, label, nid))
    names = ["".join(w) if w else IDENTITY_NAME for w in words]
    return RootedGraph(payloads, names, edges, 0, s.labels)


def _semigroups():
    for path in [bundled_path(n) for n in BUNDLED] + sorted(
        str(p) for p in TEST_CHAINS.glob("*.json")
    ):
        yield Path(path).stem, build_semigroup(load_chain_file(path).spec)
    rnd = random.Random(2204)
    for k in range(20):
        n, labels = rnd.randint(2, 4), "abc"[: rnd.randint(1, 3)]
        gens = [(a, tuple(rnd.randrange(n) for _ in range(n))) for a in labels]
        yield f"random-{k}", FiniteSemigroup.generate(gens)


@pytest.mark.parametrize("zero", [False, True], ids=["plain", "zero"])
def test_kr_expand_matches_the_lookup(zero):
    for name, s in _semigroups():
        if zero:
            s = s.adjoin_zero("□")
        got, want = kr_expand(s), kr_expand_by_lookup(s)
        assert got.payloads == want.payloads, name
        assert (got.names, got.edges, got.root, got.alphabet) == (
            want.names,
            want.edges,
            want.root,
            want.alphabet,
        ), name
