"""The Tsetlin library, a chain whose stationary law is known in closed form.

n books; the states are the n! orders, and generator b moves book b to the
front with probability x_b.  The semigroup is a left regular band whose
minimal ideal is the constant maps, so it is left zero, and the law is

    pi(sigma) = prod_i x_{sigma_i} / (1 - x_{sigma_1} - ... - x_{sigma_{i-1}})

(Hendricks 1972; Brown, J. Theor. Probab. 13, 2000).  A mass is keyed by an
element of K(S), a constant map, whose one image is the order it weighs.
"""

from itertools import permutations

import pytest

from sgmc.algebra import RationalFunction, evaluator, stochastic_complement
from sgmc.pipeline import sample_simplex_points, stationary
from sgmc.semigroup import FiniteSemigroup

BOOKS = "abcdef"


def tsetlin(n):
    """(orders, semigroup) of the library of n books."""
    books = BOOKS[:n]
    orders = list(permutations(books))
    index = {order: i for i, order in enumerate(orders)}
    gens = [
        (b, tuple(index[(b, *(c for c in order if c != b))] for order in orders))
        for b in books
    ]
    return orders, FiniteSemigroup.generate(gens)


def law(order, x):
    """pi(order), with x mapping each book to its weight."""
    value, rest = 1, 1
    for book in order:
        value = value * x[book] / rest
        rest = rest - x[book]
    return value


def masses_by_order(n):
    orders, s = tsetlin(n)
    result = stationary(s)
    assert result.case == "left_zero"
    masses = {
        orders[s.transform[result.element_ids[name]][0]]: rf
        for name, rf in result.per_element.items()
    }
    assert sorted(masses) == orders
    return s.labels, masses


@pytest.mark.parametrize("n", [2, 3, 4])
def test_masses_are_the_law_under_the_constraint(n):
    labels, masses = masses_by_order(n)
    x = {b: RationalFunction.variable(b) for b in labels}
    elim = max(labels)
    repl = stochastic_complement(elim, labels)
    for order, mass in masses.items():
        want = law(order, x).substitute(elim, repl)
        assert mass.substitute(elim, repl).equals(want), order


def test_masses_are_the_law_at_a_point_with_five_books():
    labels, masses = masses_by_order(5)
    [point] = sample_simplex_points(labels, 1, seed=5)
    value = evaluator(point)
    for order, mass in masses.items():
        assert value(mass) == law(order, point), order
    assert sum(law(order, point) for order in masses) == 1


def test_minimal_ideal_is_left_zero_in_two_products_per_member():
    # the all-pairs test made |K|^2 = 518,400 products here
    _, s = tsetlin(6)
    calls = 0
    mul = s.mul

    def counting_mul(i, j):
        nonlocal calls
        calls += 1
        return mul(i, j)

    s.mul = counting_mul
    info = s.minimal_ideal()
    assert len(info.members) == 720
    assert info.is_left_zero
    assert calls <= 2 * len(info.members)
