"""Exact stationary distributions of finite Markov chains via the
Karnofsky-Rhodes and McCammond expansions of the underlying semigroup."""

from .algebra import Polynomial, RationalFunction, limit_at_box_zero
from .errors import SgmcError
from .expansions import (
    RootedGraph,
    check_usp,
    kr_expand,
    mc_expand,
    right_cayley,
    scc,
    transition_edges,
)
from .loopkleene import (
    LoopGraph,
    algorithm1,
    algorithm2,
    kleene_enumerate,
    kleene_to_rf,
    pict,
)
from .markov import (
    ChainGenerator,
    MarkovChainSpec,
    ergodicity,
    simulate,
    stationary_oracle,
    transition_matrix,
    tv_distance,
)
from .mixing import (
    expected_tau,
    expected_total,
    hitting_tail,
    markov_bound,
    tv_bound_check,
)
from .pipeline import (
    FullReport,
    StationaryResult,
    full_report,
    stationary,
    stationary_general,
    stationary_left_zero,
)
from .semigroup import FiniteSemigroup, IdealInfo

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "RationalFunction",
    "limit_at_box_zero",
    "SgmcError",
    "RootedGraph",
    "check_usp",
    "kr_expand",
    "mc_expand",
    "right_cayley",
    "scc",
    "transition_edges",
    "LoopGraph",
    "algorithm1",
    "algorithm2",
    "kleene_enumerate",
    "kleene_to_rf",
    "pict",
    "ChainGenerator",
    "MarkovChainSpec",
    "ergodicity",
    "simulate",
    "stationary_oracle",
    "transition_matrix",
    "tv_distance",
    "expected_tau",
    "expected_total",
    "hitting_tail",
    "markov_bound",
    "tv_bound_check",
    "FullReport",
    "StationaryResult",
    "full_report",
    "stationary",
    "stationary_general",
    "stationary_left_zero",
    "FiniteSemigroup",
    "IdealInfo",
]
