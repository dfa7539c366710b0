"""Shared fixtures: the two worked chains and their pipeline runs, and the
word of a vertex read off its tree path."""

from fractions import Fraction

import pytest

from sgmc.expansions import simple_path_edges
from sgmc.markov import ChainGenerator, MarkovChainSpec
from sgmc.pipeline import build_semigroup, stationary

# Four states ordered (identity, a, b, ab); generators act by left
# multiplication in the Klein four-group presentation.
D2_ACTIONS = {"a": (1, 0, 3, 2), "b": (2, 3, 0, 1), "c": (0, 1, 2, 3)}


def d2_chain_spec(with_c=False):
    labels = ["a", "b", "c"] if with_c else ["a", "b"]
    return MarkovChainSpec(
        ("1", "a", "b", "ab"),
        tuple(ChainGenerator(lab, D2_ACTIONS[lab], None) for lab in labels),
    )


def tree_word(g, vid):
    """The labels along vertex vid's unique simple path from the root."""
    return tuple(g.edges[eid][1] for eid in simple_path_edges(g)[vid])


def two_state_chain_spec():
    return MarkovChainSpec(
        ("1", "2"),
        (
            ChainGenerator("1", (0, 0), Fraction(1, 3)),
            ChainGenerator("2", (1, 1), Fraction(1, 3)),
            ChainGenerator("3", (1, 0), Fraction(1, 3)),
        ),
    )


@pytest.fixture(scope="session")
def d2_semigroup():
    return build_semigroup(d2_chain_spec())


@pytest.fixture(scope="session")
def d2_result(d2_semigroup):
    return stationary(d2_semigroup)


@pytest.fixture(scope="session")
def d2c_semigroup():
    return build_semigroup(d2_chain_spec(with_c=True))


@pytest.fixture(scope="session")
def d2c_result(d2c_semigroup):
    return stationary(d2c_semigroup)


@pytest.fixture(scope="session")
def two_state_semigroup():
    return build_semigroup(two_state_chain_spec())


@pytest.fixture(scope="session")
def two_state_result(two_state_semigroup):
    return stationary(two_state_semigroup)


@pytest.fixture(scope="session")
def two_state_spec():
    return two_state_chain_spec()


@pytest.fixture(scope="session")
def d2_spec():
    return d2_chain_spec()


@pytest.fixture(scope="session")
def d2c_spec():
    return d2_chain_spec(with_c=True)
