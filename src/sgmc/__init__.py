"""Exact stationary distributions of finite Markov chains via the
Karnofsky-Rhodes and McCammond expansions of the underlying semigroup.

The package root holds the names of the README's example; everything else
is imported from its module (``sgmc.mixing``, ``sgmc.errors``, ...).
"""

from .markov import ChainGenerator, MarkovChainSpec
from .pipeline import full_report

__version__ = "0.1.0"

__all__ = ["ChainGenerator", "MarkovChainSpec", "full_report"]
