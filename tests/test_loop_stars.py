"""Path sums from the per-vertex loop stars S(v), against the expanded trees.

``kleene_to_rf(algorithm2(algorithm1(pict(...))))`` is kept as the
independent reference: the path sum read off S(root) x_e1 S(v1) ... must
print the same numerator and denominator.  The fold down the tree
(``path_sums``) must also print, at every vertex, as that product built
from the root (``reference.path_sum``).  The pipeline builds a terminal's
loop graph and expression only when they are read.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from sgmc import loopkleene, pipeline
from sgmc.cli import bundled_path, load_chain_file, main
from sgmc.errors import CapExceeded
from sgmc.expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    RootedGraph,
    simple_path_edges,
)
from sgmc.loopkleene import (
    algorithm1,
    algorithm2,
    flatten,
    kleene_texts,
    kleene_to_rf,
    loop_stars,
    path_sums,
    pict,
)
from sgmc.pipeline import (
    _expand,
    build_semigroup,
    full_report,
    report_dict,
    stationary,
    verify_language_and_series,
)
from sgmc.semigroup import BOX_LABEL, FiniteSemigroup

CHAINS = Path(__file__).with_name("chains")


def prints(rf):
    return str(rf.num), str(rf.den)


def reference_psi(mc, vertex):
    lg = pict(mc, simple_path_edges(mc)[vertex], verify_usp=False)
    return kleene_to_rf(algorithm2(algorithm1(lg)))


def assert_psi_matches_trees(result):
    assert result.terminals
    for t in result.terminals:
        assert prints(t.psi) == prints(reference_psi(result.mc, t.vertex)), t.name


def chain_result(path):
    chain = load_chain_file(path)
    return stationary(build_semigroup(chain.spec), box_label=chain.box_label or "□")


BUNDLED = ("d2", "d2c", "d2box", "example210")
LOCAL = ("left_zero3", "general4", "mixing3")


@pytest.mark.parametrize(
    "path",
    [bundled_path(f"{name}.json") for name in BUNDLED]
    + [str(CHAINS / f"{name}.json") for name in LOCAL],
    ids=BUNDLED + LOCAL,
)
def test_psi_from_loop_stars_prints_as_the_tree(path):
    assert_psi_matches_trees(chain_result(path))


def random_chains(seed, case, count):
    """Seeded random transformation semigroups of one ideal case."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.randint(2, 4)
        k = rnd.randint(2, 3)
        gens = [
            ("abc"[i], tuple(rnd.randrange(n) for _ in range(n))) for i in range(k)
        ]
        s = FiniteSemigroup.generate(gens)
        if s.minimal_ideal().is_left_zero == (case == "left_zero"):
            out.append(s)
    return out


@pytest.mark.parametrize("case", ["left_zero", "general"])
def test_psi_from_loop_stars_on_random_chains(case):
    for s in random_chains(23, case, 4):
        result = stationary(s)
        assert result.case == case
        assert_psi_matches_trees(result)


# -- deep loop nesting -------------------------------------------------------


def ladder(depth):
    """v_i -a-> v_(i+1) and v_(i+1) -b-> v_i: a USP graph whose loops nest
    depth deep, with the target v_depth at the end of the spine."""
    edges = []
    for i in range(depth):
        edges.append((i, "a", i + 1))
        edges.append((i + 1, "b", i))
    names = [f"v{i}" for i in range(depth + 1)]
    return RootedGraph(range(depth + 1), names, edges, 0, ["a", "b"])


def ladder_psi(depth, point):
    """The path sum to v_depth at a point: a^depth times S_0 ... S_(depth-1),
    where S_i = 1/(1 - a S_(i+1) b) and v_depth, with no loops, gives 1."""
    a, b = point["a"], point["b"]
    s = product = Fraction(1)
    for _ in range(depth):
        s = 1 / (1 - a * s * b)
        product *= s
    return product * a**depth


def path_sum_at(g, stars, target):
    return next(psi for v, psi in path_sums(g, stars) if v == target)


def test_loop_stars_need_no_recursion():
    g = ladder(2000)
    psi = path_sum_at(g, loop_stars(g), 2000)
    point = {"a": Fraction(1, 3), "b": Fraction(1, 2)}
    assert psi.evaluate(point) == ladder_psi(2000, point)


def test_loop_stars_print_as_the_tree_when_deep():
    # loops nest 300 deep at the root; the trees to v_0, v_1 and v_2 hold
    # about 300 copies per spine vertex
    g = ladder(300)
    stars = loop_stars(g)
    for target in (0, 1, 2):
        psi = path_sum_at(g, stars, target)
        assert prints(psi) == prints(reference_psi(g, target)), target


# -- the fold down the tree against the product from the root ---------------


def assert_fold_prints_as_the_product(g):
    stars = loop_stars(g)
    unique = simple_path_edges(g)
    seen = []
    for v, psi in path_sums(g, stars):
        want = reference.path_sum(g, stars, unique[v])
        assert prints(psi) == prints(want), g.names[v]
        seen.append(v)
    assert seen == list(range(g.n_vertices()))


def case_mcs(path):
    """Mc of the chain in the left-zero case, when K(S) is left zero, and
    in the general case, with a zero adjoined, as ``stationary`` builds
    them."""
    chain = load_chain_file(path)
    s = build_semigroup(chain.spec)
    if s.minimal_ideal().is_left_zero:
        yield _expand(s, DEFAULT_MAX_KR, DEFAULT_MAX_MC)[1]
    zero = s.adjoin_zero(chain.box_label or BOX_LABEL)
    yield _expand(zero, DEFAULT_MAX_KR, DEFAULT_MAX_MC)[1]


ALL_CHAINS = [bundled_path(f"{name}.json") for name in BUNDLED] + sorted(
    str(p) for p in CHAINS.glob("*.json")
)


@pytest.mark.parametrize("path", ALL_CHAINS, ids=lambda p: Path(p).stem)
def test_fold_prints_as_the_product_from_the_root(path):
    for mc in case_mcs(path):
        assert_fold_prints_as_the_product(mc)


def test_fold_prints_as_the_product_on_a_deep_ladder():
    assert_fold_prints_as_the_product(ladder(300))


def test_fold_needs_ids_in_tree_preorder():
    # breadth-first ids: v3 hangs below v1 but comes after v2
    edges = [(0, "a", 1), (0, "b", 2), (1, "a", 3)]
    g = RootedGraph(range(4), ["r", "a", "b", "aa"], edges, 0, ["a", "b"])
    with pytest.raises(ValueError, match="^vertex ids are not a tree preorder at aa$"):
        list(path_sums(g, loop_stars(g)))


def test_deep_trees_raise_cap_exceeded_naming_the_stage():
    # pict and Algorithms 1-2 build the shared forms without recursion; the
    # walks over the unfolded tree recurse, and name their stage
    g = ladder(2000)
    path = simple_path_edges(g)[1]
    lg = pict(g, path, verify_usp=False)
    expr = algorithm2(algorithm1(lg))
    # 2000 copies hang below v_0 and 1999 below v_1, beside the 2 spine vertices
    pict(g, path, verify_usp=False, max_vertices=4001)
    with pytest.raises(
        CapExceeded, match="^pict: loop graph to v1 holds 4001 vertices, above the cap 4000$"
    ):
        pict(g, path, verify_usp=False, max_vertices=4000)
    with pytest.raises(CapExceeded, match="^flatten: "):
        flatten(lg)
    with pytest.raises(CapExceeded, match="^kleene_to_rf: "):
        kleene_to_rf(expr)
    with pytest.raises(CapExceeded, match="^kleene print: "):
        kleene_texts([expr])
    with pytest.raises(CapExceeded, match="^kleene print: "):
        str(expr)


# -- the two slowest analyze chains of the benchmark corpus -----------------

# sha256 (first 16 hex digits) of the per_vertex, per_element and
# residual_mass prints, recorded before path sums came from loop stars.
PINNED_PRINTS = {
    "pinned2.json": "034761a94a71b387",
    "grid4x3_3.json": "c48dc9ecef74217b",
}


def prints_digest(result):
    text = json.dumps(
        {
            "per_vertex": {
                n: prints(rf) for n, rf in sorted(result.per_vertex.items())
            },
            "per_element": {
                n: prints(rf) for n, rf in sorted(result.per_element.items())
            },
            "residual_mass": prints(result.residual_mass),
        },
        ensure_ascii=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED_PRINTS))
def test_slow_corpus_chains_keep_their_prints(name):
    # pinned2: analyze item pinned-2, [(3,1,0,3),(1,3,2,1),(0,3,2,2)];
    # grid4x3_3: analyze item grid-4x3-3, [(2,0,0,1),(3,1,2,2),(2,3,0,0)]
    report = full_report(load_chain_file(str(CHAINS / name)).spec, points=3, seed=1)
    assert [rec["outcome"] for rec in report.verification] == ["pass"] * 3
    assert prints_digest(report.result) == PINNED_PRINTS[name]


# sha256 (first 16 hex digits) of the ``kleene`` field of ``sgmc analyze``'s
# report, recorded while every terminal's expression was an unshared tree.
PINNED_KLEENE = {
    "pinned2.json": "5af136e3f2f5c82a",
    "grid4x3_3.json": "f04c229a2657cc34",
}


@pytest.mark.parametrize("name", sorted(PINNED_KLEENE))
def test_slow_corpus_chains_keep_their_kleene_print(name):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", str(CHAINS / name)]) == 0
    kleene = json.loads(out.getvalue())["kleene"]
    text = json.dumps(kleene, ensure_ascii=False, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == PINNED_KLEENE[name]


# -- loop graphs and expressions are built only when read -------------------


@pytest.fixture
def tree_calls(monkeypatch):
    """Calls of the tree builders, counted wherever the package calls them."""
    calls = {"pict": 0, "algorithm1": 0, "algorithm2": 0, "kleene_to_rf": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        fn = getattr(loopkleene, name)
        monkeypatch.setattr(loopkleene, name, counted(name, fn))
        if hasattr(pipeline, name):
            monkeypatch.setattr(pipeline, name, counted(name, fn))
    return calls


def test_full_report_builds_no_tree(tree_calls):
    chain = load_chain_file(bundled_path("d2c.json"))
    full_report(chain.spec, points=1, seed=1)
    assert set(tree_calls.values()) == {0}


def test_trees_are_built_once_when_read(tree_calls):
    chain = load_chain_file(bundled_path("d2.json"))
    report = full_report(chain.spec, points=1, seed=1)
    terminals = len(report.result.terminals)
    first = report_dict(report)
    assert tree_calls["pict"] == tree_calls["algorithm2"] == terminals
    assert verify_language_and_series(report.result, 4) == terminals
    assert report_dict(report) == first
    assert tree_calls["pict"] == tree_calls["algorithm2"] == terminals
    assert tree_calls["kleene_to_rf"] == 0
