import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sgmc.algebra import Polynomial, RationalFunction, limit_at_box_zero
from sgmc.cli import bundled_path, load_chain_file
from sgmc.errors import CapExceeded, NotLeftZero, VerificationFailed
from sgmc.expansions import kr_expand
from sgmc.markov import ChainGenerator, MarkovChainSpec
from sgmc.pipeline import (
    _collapse,
    build_semigroup,
    full_report,
    normalization_holds,
    report_dict,
    sample_simplex_points,
    stationary,
    stationary_general,
    stationary_left_zero,
    verify_language_and_series,
    verify_oracle,
)
from sgmc.semigroup import FiniteSemigroup

import reference
from conftest import d2_chain_spec, tree_word, two_state_chain_spec

one = RationalFunction.const(1)


def rv(name):
    return RationalFunction.variable(name)


class TestLeftZeroCase:
    def test_two_state_components(self, two_state_result):
        res = two_state_result
        x1, x2, x3 = rv("1"), rv("2"), rv("3")
        expected = {
            "1": x1,
            "2": x2,
            "32": x2 * x3 / (one - x3 * x3),
            "31": x1 * x3 / (one - x3 * x3),
            "331": x1 * x3 * x3 / (one - x3 * x3),
            "332": x2 * x3 * x3 / (one - x3 * x3),
        }
        assert set(res.per_vertex) == set(expected)
        for name, want in expected.items():
            assert res.per_vertex[name].equals(want), name

    def test_two_state_grouping(self, two_state_result):
        res = two_state_result
        x1, x2, x3 = rv("1"), rv("2"), rv("3")
        assert res.per_element["1"].equals((x1 + x2 * x3) / (one - x3 * x3))
        assert res.per_element["2"].equals((x2 + x1 * x3) / (one - x3 * x3))

    def test_two_state_normalization(self, two_state_result):
        res = two_state_result
        total = res.per_element["1"] + res.per_element["2"]
        constrained = total.substitute(
            "3", Polynomial.const(1) - Polynomial.variable("1") - Polynomial.variable("2")
        )
        assert constrained.equals(1)
        assert normalization_holds(res)

    def test_left_zero_band(self):
        s = FiniteSemigroup.generate([("u", (0, 0)), ("v", (1, 1))])
        res = stationary_left_zero(s)
        assert res.per_element["u"].equals(rv("u"))
        assert res.per_element["v"].equals(rv("v"))
        # exact eigenvector of [[x_u, x_u], [x_v, x_v]] is (x_u, x_v)/(x_u+x_v)
        spec = MarkovChainSpec(
            ("p", "q"),
            (ChainGenerator("u", (0, 0), None), ChainGenerator("v", (1, 1), None)),
        )
        verify_oracle(spec, res, sample_simplex_points(["u", "v"], 4, seed=3))

    def test_rejects_non_left_zero(self, d2_semigroup):
        with pytest.raises(NotLeftZero):
            stationary_left_zero(d2_semigroup)

    def test_residual_is_zero(self, two_state_result):
        assert two_state_result.residual_mass.is_zero()

    def test_series_counts_are_path_counts(self, two_state_result):
        # with every probability set to 1, the series terms of each degree
        # sum to the number of paths of that length
        res = two_state_result
        for name, psi in res.per_vertex.items():
            ones = dict.fromkeys(psi.variables(), 1)
            for count in psi.series_at(ones, 10):
                assert count == int(count) and count >= 0


class TestGeneralCase:
    def test_group_chain_masses(self, d2_result):
        res = d2_result
        for name in ("a", "b", "ab", "aa"):
            assert res.per_element[name].equals(Fraction(1, 4)), name
        assert res.residual_mass.equals(0)
        assert normalization_holds(res)

    def test_grouping_by_projected_prefix(self, d2_result, d2_semigroup):
        groups = {}
        for t in d2_result.terminals:
            key = d2_semigroup.name(t.element) if t.element is not None else None
            groups.setdefault(key, set()).add(t.name)
        assert groups[None] == {"□"}
        assert groups["ab"] == {"ab□", "ba□", "aaba□", "bbab□"}
        assert groups["a"] == {"a□", "bab□", "bba□"}
        assert groups["b"] == {"b□", "aba□", "aab□"}
        assert groups["aa"] == {"aa□", "bb□", "abab□", "baba□"}

    def test_box_vertices_present(self, d2_result):
        assert len(d2_result.terminals) == 15
        assert all(name.endswith("□") for name in d2_result.per_vertex)

    def test_group_sum_limit_equals_sum_of_limits(self, d2_result):
        res = d2_result
        gens = ["a", "b"]
        for element in ("ab", "a"):
            members = [
                t.psi
                for t in res.terminals
                if t.element is not None
                and res.semigroup.name(t.element) == element
            ]
            summed_then_limited = limit_at_box_zero(
                sum(members, RationalFunction.zero()), "□", "b", gens
            )
            assert summed_then_limited.equals(res.per_element[element])

    def test_left_zero_chain_through_general_route(self, two_state_semigroup):
        lz = stationary_left_zero(two_state_semigroup)
        gen = stationary_general(two_state_semigroup)
        sub = Polynomial.const(1) - Polynomial.variable("1") - Polynomial.variable("2")
        for name in lz.per_element:
            assert lz.per_element[name].substitute("3", sub).equals(
                gen.per_element[name]
            )
        assert gen.residual_mass.equals(0)
        assert normalization_holds(gen)

    def test_random_left_zero_chains_through_general_route(self):
        rnd = random.Random(4242)
        checked = 0
        while checked < 12:
            n = rnd.randint(2, 4)
            labels = ["a", "b", "c"][: rnd.randint(2, 3)]
            gens = [(lab, tuple(rnd.randrange(n) for _ in range(n))) for lab in labels]
            try:
                s = FiniteSemigroup.generate(gens, 200)
                if not s.minimal_ideal().is_left_zero:
                    continue
                caps = {"max_kr": 400, "max_mc": 1000}
                lz = stationary_left_zero(s, **caps)
                gen = stationary_general(s, **caps)
            except CapExceeded:
                continue
            others = Polynomial.const(1)
            for lab in labels[:-1]:
                others = others - Polynomial.variable(lab)
            assert gen.elim_var == labels[-1]
            assert lz.per_element.keys() == gen.per_element.keys()
            for name, rf in lz.per_element.items():
                assert rf.substitute(labels[-1], others).equals(
                    gen.per_element[name]
                ), (gens, name)
            assert gen.residual_mass.equals(0)
            checked += 1

    def test_constant_mass_over_two_factors(self):
        spec = MarkovChainSpec(
            ("0", "1", "2", "3"),
            (
                ChainGenerator("a", (2, 3, 0, 1), None),
                ChainGenerator("b", (2, 3, 3, 1), None),
            ),
        )
        res = stationary(build_semigroup(spec))
        assert res.case == "general"
        assert res.per_element.keys() == {"bb", "abb"}
        for name in ("bb", "abb"):
            # the summed limit before the collapse has two denominator factors
            summed = RationalFunction.sum(
                limit_at_box_zero(t.psi, "□", res.elim_var, res.variables)
                for t in res.terminals
                if t.element == res.element_ids[name]
            )
            assert str(summed.poly) == "1/2 - 1/2*x_a - 1/2*x_a^2 + 1/2*x_a^3"
            assert sorted(
                (str(f.poly), e) for f, e in summed.factors.items()
            ) == [("1 - x_a", -1), ("1 - x_a^2", -1)]
            assert str(res.per_element[name]) == "(1/2)/(1)"

    def test_collapse_only_of_a_constant_multiple(self):
        xa, xb = Polynomial.variable("a"), Polynomial.variable("b")
        assert str(_collapse(RationalFunction(2 * xa, 8 * xa))) == "(1/4)/(1)"
        assert str(_collapse(RationalFunction(3 * xa - 3, 1 - xa))) == "(-3)/(1)"
        for rf in (rv("a") / rv("b"), RationalFunction(xa + xb, 1 - xa), rv("a")):
            assert _collapse(rf) is rf

    def test_identity_generator_variant(self, d2c_result):
        res = d2c_result
        for name in res.per_element:
            assert res.per_element[name].equals(Fraction(1, 4)), name
        # the printed limit for the two-letter box vertex
        lim = limit_at_box_zero(res.per_vertex["ab□"], "□", "c", ["a", "b", "c"])
        xa, xb, xc = rv("a"), rv("b"), rv("c")
        paper = (one + xb - xc) * (one - xb - xc) / (8 * (xa + xb))
        constrained = paper.substitute(
            "c", Polynomial.const(1) - Polynomial.variable("a") - Polynomial.variable("b")
        )
        assert lim.equals(constrained)


class TestVerification:
    def test_oracle_on_worked_chains(self, two_state_result, d2_result):
        spec = two_state_chain_spec()
        points = sample_simplex_points(spec.labels(), 3, seed=5)
        verify_oracle(spec, two_state_result, points)
        spec = d2_chain_spec()
        points = sample_simplex_points(spec.labels(), 3, seed=5)
        verify_oracle(spec, d2_result, points)

    def test_tampered_result_fails(self, two_state_result):
        import copy

        spec = two_state_chain_spec()
        broken = copy.copy(two_state_result)
        broken.per_element = {
            "1": two_state_result.per_element["2"],
            "2": two_state_result.per_element["1"],
        }
        points = sample_simplex_points(spec.labels(), 3, seed=5)
        with pytest.raises(VerificationFailed):
            verify_oracle(spec, broken, points)

    def test_point_missing_a_label_names_it(self, two_state_result):
        spec = two_state_chain_spec()
        point = {"1": Fraction(1, 2), "2": Fraction(1, 2)}
        with pytest.raises(ValueError, match="^point has no value for x_3$"):
            verify_oracle(spec, two_state_result, [point])

    def test_each_distinct_factor_is_evaluated_once_per_point(
        self, two_state_result, monkeypatch
    ):
        spec = two_state_chain_spec()
        masses = two_state_result.per_element.values()
        shared = {id(f.poly) for rf in masses for f in rf.factors}
        pieces = sum(len(rf.factors) for rf in masses)
        assert pieces > len(shared) == 1
        calls = []
        evaluate = Polynomial.evaluate

        def counted(self, point):
            if id(self) in shared:
                calls.append(id(self))
            return evaluate(self, point)

        monkeypatch.setattr(Polynomial, "evaluate", counted)
        points = sample_simplex_points(spec.labels(), 3, seed=5)
        verify_oracle(spec, two_state_result, points)
        assert len(calls) == len(points) * len(shared)

    def test_vanishing_factor_names_the_point(self, two_state_result):
        import copy

        from sgmc.errors import ZeroDenominator

        spec = two_state_chain_spec()
        broken = copy.copy(two_state_result)
        broken.per_element = {
            "1": rv("1") / (rv("1") - rv("2")),
            "2": rv("2") / (rv("1") - rv("2")),
        }
        point = {"1": Fraction(1, 4), "2": Fraction(1, 4), "3": Fraction(1, 2)}
        with pytest.raises(
            ZeroDenominator, match=r"^denominator vanishes at x_1=1/4, x_2=1/4, x_3=1/2$"
        ):
            verify_oracle(spec, broken, [point])

    def test_language_and_series_consistency(self, two_state_result):
        assert verify_language_and_series(two_state_result, maxlen=8) == 6

    def test_simplex_points_are_interior_rationals(self):
        points = sample_simplex_points(["a", "b", "c"], 20, seed=9)
        for point in points:
            values = list(point.values())
            assert sum(values) == 1
            assert all(0 < v < 1 for v in values)
            assert all(v.denominator <= 20 for v in values)

    def test_full_report_runs_and_serializes(self):
        report = full_report(two_state_chain_spec(), points=3, seed=11)
        payload = report_dict(report)
        text = json.dumps(payload)
        assert json.loads(text) == payload
        assert payload["case"] == "left_zero"
        assert payload["kleene"]["32"] == "3(33)*2"
        assert all(rec["outcome"] == "pass" for rec in payload["verification"])
        assert "timings" not in payload

    def test_full_report_deterministic(self):
        a = report_dict(full_report(d2_chain_spec(), points=2, seed=3))
        b = report_dict(full_report(d2_chain_spec(), points=2, seed=3))
        assert json.dumps(a) == json.dumps(b)


class TestRandomChains:
    def test_symbolic_matches_oracle(self):
        rnd = random.Random(1001)
        checked = 0
        while checked < 8:
            n = rnd.choice([2, 3])
            k = rnd.choice([2, 3])
            gens = tuple(
                ChainGenerator(lab, tuple(rnd.randrange(n) for _ in range(n)), None)
                for lab in ["a", "b", "c"][:k]
            )
            spec = MarkovChainSpec(tuple(f"s{i}" for i in range(n)), gens)
            try:
                s = build_semigroup(spec, 200)
                res = stationary(s, max_kr=400, max_mc=100)
                points = sample_simplex_points(spec.labels(), 3, seed=checked)
                verify_oracle(spec, res, points)
            except Exception as exc:
                from sgmc.errors import CapExceeded, NotIrreducible

                if isinstance(exc, (CapExceeded, NotIrreducible)):
                    continue
                raise
            checked += 1


ELEMENT_CHAINS = [
    bundled_path(f"{name}.json") for name in ("d2", "d2c", "d2box", "example210")
] + [
    str(Path(__file__).with_name("chains") / f"{name}.json")
    for name in ("general4", "grid4x3_3", "left_zero3", "mixing3", "pinned2")
]


@pytest.mark.parametrize(
    "path", ELEMENT_CHAINS, ids=[Path(p).stem for p in ELEMENT_CHAINS]
)
def test_terminal_elements_are_their_words_evaluated(path):
    # the pipeline reads a terminal's element off its KR vertex, or off its
    # tree parent's before the box letter; both must be eval_word's element
    chain = load_chain_file(path)
    s = build_semigroup(chain.spec)
    ideal = s.minimal_ideal()
    runs = []
    if ideal.is_left_zero:
        runs.append(stationary_left_zero(s))
    # the box limits of the two larger left-zero chains take seconds
    if Path(path).stem not in ("grid4x3_3", "pinned2"):
        runs.append(stationary_general(s, box_label=chain.box_label or "□"))
    for result in runs:
        assert result.terminals
        for t in result.terminals:
            word = tree_word(result.mc, t.vertex)
            if result.case != "left_zero":
                word = word[:-1]
            group = reference.eval_word(s, word)
            assert t.element == (group if group in ideal.members else None), t.name


def test_ideal_sink_edges_are_loops():
    # _expand drops a KR vertex's out-edges over a left-zero K(S)
    # or over the adjoined zero unchecked: k*a = k there, so each is a loop
    semigroups = [build_semigroup(load_chain_file(p).spec) for p in ELEMENT_CHAINS]
    rnd = random.Random(2719)
    while len(semigroups) < len(ELEMENT_CHAINS) + 40:
        n = rnd.randint(2, 4)
        gens = [
            (lab, tuple(rnd.randrange(n) for _ in range(n)))
            for lab in ["a", "b", "c"][: rnd.randint(2, 3)]
        ]
        semigroups.append(FiniteSemigroup.generate(gens, 200))
    kinds = Counter()
    for s in semigroups:
        ideal = s.minimal_ideal()
        zeroed = s.adjoin_zero()
        runs = [(zeroed, {zeroed.zero_id}, "zero")]
        if ideal.is_left_zero:
            runs.append((s, ideal.members, "left zero"))
        for expanded, sinks, kind in runs:
            try:
                kr = kr_expand(expanded, 2000)
            except CapExceeded:
                continue
            for vid in range(kr.n_vertices()):
                if kr.payloads[vid].element in sinks:
                    for eid in kr.out_edges(vid):
                        assert kr.edges[eid][2] == vid, (s.gens, kind)
            kinds[kind] += 1
    assert kinds["zero"] >= 40 and kinds["left zero"] >= 40, kinds
