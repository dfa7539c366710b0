import random

import pytest

from sgmc.errors import CapExceeded
from sgmc.semigroup import FiniteSemigroup, IDENTITY_NAME, compose

TWO_STATE_GENS = [("1", (0, 0)), ("2", (1, 1)), ("3", (1, 0))]
D2_GENS = [("a", (1, 0, 3, 2)), ("b", (2, 3, 0, 1))]
LEFT_ZERO_BAND = [("u", (0, 0)), ("v", (1, 1))]


def principal_ideal(s, seed, limit=None):
    """S^1 seed S^1, closing {seed} under generator products on both sides.

    Returns None as soon as the ideal has more than `limit` members.
    """
    members = {seed}
    queue = [seed]
    while queue:
        t = queue.pop()
        for g in s.gens.values():
            for product in (s.mul(g, t), s.mul(t, g)):
                if product not in members:
                    members.add(product)
                    queue.append(product)
                    if limit is not None and len(members) > limit:
                        return None
    return frozenset(members)


def smallest_principal_ideal(s):
    """Brute force: the smallest of all principal ideals S^1 t S^1."""
    best = None
    for t in s.element_ids():
        if t == s.identity_id:
            continue
        limit = None if best is None else len(best) - 1
        ideal = principal_ideal(s, t, limit)
        if ideal is not None:
            best = ideal
    return best


def test_composition_right_factor_first():
    flip, const1 = (1, 0), (0, 0)
    # flip after const1: everything lands on the image of state 0 under flip
    assert compose(flip, const1) == (1, 1)


class TestGenerate:
    def test_two_state_chain_closure(self):
        s = FiniteSemigroup.generate(TWO_STATE_GENS)
        assert s.size() == 4
        names = {s.name(e) for e in s.element_ids()}
        assert names == {IDENTITY_NAME, "1", "2", "3", "33"}
        assert s.mul(s.gens["3"], s.gens["1"]) == s.gens["2"]
        assert s.mul(s.gens["3"], s.gens["2"]) == s.gens["1"]

    def test_single_identity_generator(self):
        s = FiniteSemigroup.generate([("a", (0,))])
        assert s.size() == 1
        assert s.name(s.gens["a"]) == "a"
        # the adjoined identity is a distinct element even though a acts as one
        assert s.gens["a"] != s.identity_id

    def test_group_closure_size(self):
        s = FiniteSemigroup.generate(D2_GENS)
        assert s.size() == 4

    def test_deterministic_bfs_words(self):
        a = FiniteSemigroup.generate(D2_GENS)
        b = FiniteSemigroup.generate(D2_GENS)
        assert a.words == b.words
        assert [a.name(e) for e in a.element_ids()] == [
            IDENTITY_NAME,
            "a",
            "b",
            "aa",
            "ab",
        ]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            FiniteSemigroup.generate(TWO_STATE_GENS, max_elements=2)

    def test_identity_multiplication(self):
        s = FiniteSemigroup.generate(D2_GENS)
        for e in s.element_ids():
            assert s.mul(s.identity_id, e) == e
            assert s.mul(e, s.identity_id) == e

    def test_associativity_random_triples(self):
        rnd = random.Random(7)
        for gens in (TWO_STATE_GENS, D2_GENS, LEFT_ZERO_BAND):
            s = FiniteSemigroup.generate(gens)
            ids = list(s.element_ids())
            for _ in range(1000):
                x, y, z = (rnd.choice(ids) for _ in range(3))
                assert s.mul(s.mul(x, y), z) == s.mul(x, s.mul(y, z))


class TestAdjoinZero:
    def test_zero_absorbs(self):
        s = FiniteSemigroup.generate(D2_GENS).adjoin_zero()
        z = s.zero_id
        for e in s.element_ids():
            assert s.mul(e, z) == z
            assert s.mul(z, e) == z

    def test_zero_on_trivial_semigroup(self):
        s = FiniteSemigroup.generate([("e", (0,))]).adjoin_zero()
        assert s.size() == 2
        assert s.mul(s.gens["e"], s.zero_id) == s.zero_id

    def test_minimal_ideal_is_zero(self):
        for gens in (TWO_STATE_GENS, D2_GENS, LEFT_ZERO_BAND):
            s = FiniteSemigroup.generate(gens).adjoin_zero()
            info = s.minimal_ideal()
            assert info.members == frozenset({s.zero_id})
            assert info.is_left_zero

    def test_zero_is_a_generator(self):
        s = FiniteSemigroup.generate(D2_GENS).adjoin_zero()
        assert s.labels[-1] == s.zero_label
        assert s.gens[s.zero_label] == s.zero_id

    def test_label_collision_rejected(self):
        s = FiniteSemigroup.generate(D2_GENS)
        with pytest.raises(ValueError):
            s.adjoin_zero("a")


class TestMinimalIdeal:
    def test_group_ideal_is_everything(self):
        s = FiniteSemigroup.generate(D2_GENS)
        info = s.minimal_ideal()
        assert info.members == frozenset(e for e in s.element_ids() if e != s.identity_id)
        assert not info.is_left_zero

    def test_two_state_chain_ideal(self):
        s = FiniteSemigroup.generate(TWO_STATE_GENS)
        info = s.minimal_ideal()
        assert {s.name(e) for e in info.members} == {"1", "2"}
        assert info.is_left_zero

    def test_single_idempotent(self):
        s = FiniteSemigroup.generate([("e", (0, 0))])
        info = s.minimal_ideal()
        assert {s.name(e) for e in info.members} == {"e"}
        assert info.is_left_zero

    def test_ideal_closed_under_generator_multiplication(self):
        for gens in (TWO_STATE_GENS, D2_GENS, LEFT_ZERO_BAND):
            s = FiniteSemigroup.generate(gens)
            members = s.minimal_ideal().members
            for k in members:
                for g in set(s.gens.values()):
                    assert s.mul(k, g) in members
                    assert s.mul(g, k) in members

    def test_ideal_product_contained_in_intersection(self):
        s = FiniteSemigroup.generate(TWO_STATE_GENS)
        minimal = s.minimal_ideal().members
        principal = principal_ideal(s, s.gens["3"])
        products = {s.mul(x, y) for x in minimal for y in principal}
        assert products <= (minimal & principal)

    def test_equals_smallest_principal_ideal_on_random_semigroups(self):
        rnd = random.Random(11)
        for _ in range(40):
            n = rnd.randint(2, 5)
            gens = [
                (label, tuple(rnd.randrange(n) for _ in range(n)))
                for label in "abc"[: rnd.randint(1, 3)]
            ]
            s = FiniteSemigroup.generate(gens)
            assert s.minimal_ideal().members == smallest_principal_ideal(s), gens

    def test_left_zero_band(self):
        s = FiniteSemigroup.generate(LEFT_ZERO_BAND)
        info = s.minimal_ideal()
        assert info.is_left_zero
        assert {s.name(e) for e in info.members} == {"u", "v"}


def test_eval_word():
    s = FiniteSemigroup.generate(D2_GENS)
    assert s.eval_word(()) == s.identity_id
    assert s.eval_word(("a", "a")) == s.eval_word(("b", "b"))
    assert s.eval_word(("a", "a", "b")) == s.gens["b"]
    assert s.eval_word(("a", "b", "a")) == s.gens["b"]
