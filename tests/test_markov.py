import random
from fractions import Fraction
from math import gcd

import pytest

from sgmc.algebra import Polynomial
from sgmc.errors import NotIrreducible, NotStochastic
from sgmc.markov import (
    ChainGenerator,
    MarkovChainSpec,
    ergodicity,
    simulate,
    stationary_oracle,
    transition_matrix,
    tv_distance,
)

from conftest import d2_chain_spec, two_state_chain_spec

x = Polynomial.variable


def boolean_product(a, b):
    n = len(a)
    return [
        [any(a[i][k] and b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def random_action(rnd, n):
    """A permutation (periodic diagrams) or a random map (reducible ones)."""
    if rnd.random() < 0.4:
        return tuple(rnd.sample(range(n), n))
    return tuple(rnd.randrange(n) for _ in range(n))


def ergodicity_by_matrix_powers(spec):
    """Reachability, and the gcd of closed-walk lengths 1..n, from A^1..A^n."""
    n = len(spec.states)
    adjacency = [[False] * n for _ in range(n)]
    for g in spec.generators:
        for u in range(n):
            adjacency[u][g.action[u]] = True
    reach = [[i == j for j in range(n)] for i in range(n)]
    power = reach
    period = 0
    for length in range(1, n + 1):
        power = boolean_product(power, adjacency)
        reach = [[r or p for r, p in zip(rr, pr)] for rr, pr in zip(reach, power)]
        if any(power[u][u] for u in range(n)):
            period = gcd(period, length)
    return {"irreducible": all(all(row) for row in reach), "period": period}


class TestTransitionMatrix:
    def test_group_chain_matrix(self):
        tm = transition_matrix(d2_chain_spec())
        zero = Polynomial.zero()
        expected = [
            [zero, x("a"), x("b"), zero],
            [x("a"), zero, zero, x("b")],
            [x("b"), zero, zero, x("a")],
            [zero, x("b"), x("a"), zero],
        ]
        assert tm.entries == expected

    def test_two_state_matrix(self):
        tm = transition_matrix(two_state_chain_spec())
        assert tm.entries == [
            [x("1"), x("1") + x("3")],
            [x("2") + x("3"), x("2")],
        ]

    def test_one_state(self):
        spec = MarkovChainSpec(("s",), (ChainGenerator("a", (0,), Fraction(1)),))
        tm = transition_matrix(spec)
        assert tm.entries == [[x("a")]]

    def test_column_sums_are_total_probability(self):
        for spec in (d2_chain_spec(True), two_state_chain_spec()):
            tm = transition_matrix(spec)
            total = Polynomial.zero()
            for g in spec.generators:
                total = total + x(g.label)
            n = len(spec.states)
            for j in range(n):
                col = Polynomial.zero()
                for i in range(n):
                    col = col + tm.entries[i][j]
                assert col == total


class TestErgodicity:
    def test_group_chain_is_periodic(self):
        assert ergodicity(d2_chain_spec()) == {"irreducible": True, "period": 2}

    def test_identity_generator_breaks_periodicity(self):
        assert ergodicity(d2_chain_spec(True)) == {"irreducible": True, "period": 1}

    def test_two_state_chain(self):
        assert ergodicity(two_state_chain_spec()) == {
            "irreducible": True,
            "period": 1,
        }

    def test_matches_matrix_powers_on_random_diagrams(self):
        rnd = random.Random(5)
        irreducible = 0
        for _ in range(60):
            n = rnd.randint(1, 6)
            gens = tuple(
                ChainGenerator(label, random_action(rnd, n), None)
                for label in "abc"[: rnd.randint(1, 3)]
            )
            spec = MarkovChainSpec(tuple(str(i) for i in range(n)), gens)
            expected = ergodicity_by_matrix_powers(spec)
            assert ergodicity(spec) == expected, gens
            irreducible += expected["irreducible"]
        assert 0 < irreducible < 60

    def test_reducible_diagram(self):
        spec = MarkovChainSpec(
            ("p", "q"), (ChainGenerator("a", (1, 1), Fraction(1)),)
        )
        assert not ergodicity(spec)["irreducible"]


class TestStationaryOracle:
    def test_uniform_on_augmented_group_chain(self):
        tm = transition_matrix(d2_chain_spec(True))
        third = Fraction(1, 3)
        psi = stationary_oracle(tm, {"a": third, "b": third, "c": third})
        assert psi == {s: Fraction(1, 4) for s in ("1", "a", "b", "ab")}

    def test_two_state_chain_balanced(self):
        tm = transition_matrix(two_state_chain_spec())
        third = Fraction(1, 3)
        psi = stationary_oracle(tm, {"1": third, "2": third, "3": third})
        assert psi == {"1": Fraction(1, 2), "2": Fraction(1, 2)}

    def test_one_state(self):
        spec = MarkovChainSpec(("s",), (ChainGenerator("a", (0,), Fraction(1)),))
        psi = stationary_oracle(transition_matrix(spec), {"a": Fraction(1)})
        assert psi == {"s": Fraction(1)}

    def test_fixed_point_property(self):
        tm = transition_matrix(two_state_chain_spec())
        point = {"1": Fraction(1, 2), "2": Fraction(1, 3), "3": Fraction(1, 6)}
        psi = stationary_oracle(tm, point)
        t = tm.evaluate(point)
        states = tm.states
        for i, si in enumerate(states):
            assert sum(t[i][j] * psi[sj] for j, sj in enumerate(states)) == psi[si]

    def test_not_stochastic(self):
        tm = transition_matrix(two_state_chain_spec())
        with pytest.raises(NotStochastic):
            stationary_oracle(tm, {"1": Fraction(1, 2), "2": Fraction(1, 3), "3": 0})

    def test_reducible_chain_rejected(self):
        spec = MarkovChainSpec(
            ("p", "q"),
            (
                ChainGenerator("a", (0, 1), Fraction(1, 2)),
                ChainGenerator("b", (0, 1), Fraction(1, 2)),
            ),
        )
        with pytest.raises(NotIrreducible):
            stationary_oracle(transition_matrix(spec), spec.numeric_point())


class TestSimulate:
    def test_two_state_convergence(self):
        spec = two_state_chain_spec()
        point = spec.numeric_point()
        psi = stationary_oracle(transition_matrix(spec), point)
        emp = simulate(spec, point, steps=50, trials=10**5, seed=4)
        assert tv_distance(emp, psi) < Fraction(1, 100)

    def test_deterministic_chain(self):
        spec = MarkovChainSpec(
            ("p", "q"), (ChainGenerator("a", (1, 1), Fraction(1)),)
        )
        emp = simulate(spec, {"a": Fraction(1)}, steps=3, trials=100, seed=0)
        assert emp == {"p": Fraction(0), "q": Fraction(1)}

    def test_augmented_group_chain_uniform(self):
        spec = d2_chain_spec(True)
        third = Fraction(1, 3)
        point = {"a": third, "b": third, "c": third}
        psi = stationary_oracle(transition_matrix(spec), point)
        emp = simulate(spec, point, steps=60, trials=10**5, seed=9)
        assert tv_distance(emp, psi) < Fraction(1, 100)

    def test_reproducible(self):
        spec = two_state_chain_spec()
        point = spec.numeric_point()
        a = simulate(spec, point, steps=20, trials=5000, seed=123)
        b = simulate(spec, point, steps=20, trials=5000, seed=123)
        assert a == b

    def test_error_shrinks_with_trials(self):
        spec = two_state_chain_spec()
        point = spec.numeric_point()
        psi = stationary_oracle(transition_matrix(spec), point)

        def mean_tv(trials):
            values = [
                tv_distance(simulate(spec, point, 50, trials, seed=100 + k), psi)
                for k in range(10)
            ]
            return sum(values) / len(values)

        small, mid, large = mean_tv(2500), mean_tv(10000), mean_tv(40000)
        # quadrupling trials should halve the error, give or take a factor 2
        assert 1 <= small / mid <= 4
        assert 1 <= mid / large <= 4

    def test_rejects_bad_probabilities(self):
        spec = two_state_chain_spec()
        with pytest.raises(NotStochastic):
            simulate(
                spec,
                {"1": Fraction(1, 2), "2": Fraction(1, 3), "3": Fraction(0)},
                10,
                10,
                seed=0,
            )


class TestTvDistance:
    def test_identical(self):
        u = {"p": Fraction(1, 2), "q": Fraction(1, 2)}
        assert tv_distance(u, u) == 0

    def test_disjoint(self):
        assert tv_distance({"p": 1, "q": 0}, {"p": 0, "q": 1}) == 1

    def test_quarter(self):
        u = {"p": Fraction(3, 4), "q": Fraction(1, 4)}
        v = {"p": Fraction(1, 2), "q": Fraction(1, 2)}
        assert tv_distance(u, v) == Fraction(1, 4)

    def test_triangle_inequality_spot_check(self):
        rnd = random.Random(6)
        for _ in range(50):
            dists = []
            for _ in range(3):
                cut = sorted(rnd.randint(0, 12) for _ in range(2))
                dists.append(
                    {
                        "p": Fraction(cut[0], 12),
                        "q": Fraction(cut[1] - cut[0], 12),
                        "r": Fraction(12 - cut[1], 12),
                    }
                )
            u, v, w = dists
            assert tv_distance(u, w) <= tv_distance(u, v) + tv_distance(v, w)
