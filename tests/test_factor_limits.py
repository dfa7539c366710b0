"""The box limit taken once per interned factor, against the per-piece limit.

``reference_limit`` is the limit as it was taken before factors kept their
limits: substitute elim_var into every piece of r, divide out the box, set
it to 0 and multiply the pieces back.  ``limit_at_box_zero`` must give the
same form (the same print and the same factors) on every terminal, both
when the factors' limits are first taken and when they are read back.

Two general chains whose McCammond expansions have thousands of vertices
pin their masses here, with the normalization and the oracle.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sgmc.algebra import (
    Polynomial,
    RationalFunction,
    _factor,
    limit_at_box_zero,
    stochastic_complement,
)
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import PoleAtLimit, ZeroDenominator
from sgmc.pipeline import (
    build_semigroup,
    full_report,
    normalization_holds,
    stationary_general,
)

CHAINS = Path(__file__).with_name("chains")


def reference_limit(r, box_var, elim_var, generator_vars):
    repl = stochastic_complement(elim_var, generator_vars, box_var)
    order = 0
    at_zero = []
    for poly, e in r.substitute(elim_var, repl).pieces():
        k, rest = poly.divide_out(box_var)
        order += k * e
        at_zero.append((rest.set_var_zero(box_var), e))
    if order < 0:
        raise PoleAtLimit(f"box order {order} below zero")
    return RationalFunction._product(at_zero) if order == 0 else RationalFunction.zero()


def form(rf):
    return str(rf), rf.factors


def forget_limits(psis, elim_var, generator_vars):
    """Drop what the factors keep, so the next limits are taken afresh."""
    for psi in psis:
        for f in psi.factors:
            f.memo = None
    _factor(stochastic_complement(elim_var, generator_vars))[1].memo = None


def general_run(path):
    chain = load_chain_file(path)
    s = build_semigroup(chain.spec)
    return stationary_general(s, box_label=chain.box_label or "□")


EQUIVALENCE = [bundled_path(f"{n}.json") for n in ("d2", "d2c", "d2box", "example210")] + [
    str(CHAINS / f"{n}.json") for n in ("general4", "general4b", "general5")
]


@pytest.mark.parametrize("path", EQUIVALENCE, ids=[Path(p).stem for p in EQUIVALENCE])
def test_limit_per_factor_matches_the_per_piece_limit(path):
    res = general_run(path)
    args = (res.box_var, res.elim_var, res.variables)
    psis = [t.psi for t in res.terminals]
    want = [form(reference_limit(psi, *args)) for psi in psis]
    forget_limits(psis, res.elim_var, res.variables)
    first = [form(limit_at_box_zero(psi, *args)) for psi in psis]
    cached = [form(limit_at_box_zero(psi, *args)) for psi in psis]
    for t, w, f, c in zip(res.terminals, want, first, cached):
        assert f == w, t.name
        assert c == w, t.name


def test_each_key_keeps_its_own_limit():
    a, b, c = (Polynomial.variable(v) for v in ("a", "b", "c"))
    one = Polynomial.const(1)
    r = (
        RationalFunction(Polynomial.const(3) * a * b)
        * RationalFunction.power(one - a * b, -1)
        * RationalFunction.power(one - b - c, -2)
        * RationalFunction.power(one - a - a * c, 1)
    )
    keys = [
        ("b", ("a", "b")),
        ("a", ("a", "b")),
        ("b", ("a", "b", "c")),
        ("c", ("a", "b", "c")),
        ("b", ("b", "a")),
    ]
    forget_limits([r], "b", ["a", "b"])
    for _ in range(2):
        got = {}
        for elim, gens in keys + keys[::-1]:
            want = form(reference_limit(r, "□", elim, list(gens)))
            assert form(limit_at_box_zero(r, "□", elim, list(gens))) == want
            got[elim, gens] = want[0]
        # the keys have different limits, so a shared entry would show
        assert len(set(got.values())) >= 4


def test_poles_and_vanishing_denominators_still_raise():
    a, b, box = (Polynomial.variable(v) for v in ("a", "b", "□"))
    one = Polynomial.const(1)
    gens = ["a", "b"]
    # 1 - a - b is box once b is eliminated: order -1
    pole = RationalFunction(a) * RationalFunction.power(one - a - b, -1)
    # 1 - a - b - box vanishes once b is eliminated
    vanishing = RationalFunction(a) * RationalFunction.power(one - a - b - box, -1)
    # the same factor to a positive power makes the limit 0
    root = RationalFunction(a) * RationalFunction.power(one - a - b - box, 1)
    forget_limits([pole, vanishing], "b", gens)
    for _ in range(2):
        with pytest.raises(PoleAtLimit, match=r"^box order -1 below zero$"):
            limit_at_box_zero(pole, "□", "b", gens)
        with pytest.raises(ZeroDenominator, match="^substituting b makes"):
            limit_at_box_zero(vanishing, "□", "b", gens)
        assert limit_at_box_zero(root, "□", "b", gens).is_zero()
        assert limit_at_box_zero(root * pole, "□", "b", gens).is_zero()
    with pytest.raises(ValueError, match="is not a generator variable"):
        limit_at_box_zero(pole, "□", "c", gens)


# -- two general chains with Mc in the thousands ----------------------------

# sha256 (first 16 hex digits) of the per_element and residual_mass prints,
# recorded before box limits were kept on the factors.
PINNED_PRINTS = {
    # [(2,1,3,0),(0,3,2,1)]: |S| 25, Mc 1,750 vertices
    "general4b.json": "36ad5a89e0a975b0",
    # [(3,4,1,0,0),(0,1,0,3,2)]: |S| 42, Mc 1,858 vertices
    "general5.json": "2b9962d6c4d1cf94",
}


def prints(rf):
    return str(rf.num), str(rf.den)


@pytest.mark.parametrize("name", sorted(PINNED_PRINTS))
def test_large_general_chains_keep_their_prints(name):
    report = full_report(load_chain_file(str(CHAINS / name)).spec, points=3, seed=1)
    result = report.result
    assert result.case == "general"
    assert result.graph_sizes["mc_vertices"] > 1000
    assert normalization_holds(result)
    assert [rec["outcome"] for rec in report.verification] == ["pass"] * 3
    text = json.dumps(
        {
            "per_element": {
                n: prints(rf) for n, rf in sorted(result.per_element.items())
            },
            "residual_mass": prints(result.residual_mass),
        },
        ensure_ascii=False,
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == PINNED_PRINTS[name]
