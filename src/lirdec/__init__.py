"""Locally irregular decompositions of doubled multigraphs.

Constructive colorings for standard graph classes and bipartite graphs, an
exhaustive exact solver for small instances, and a sweep harness that checks
the two-color conjecture over graph catalogs.
"""

from .bipartite import color_double_bipartite, find_twin_split, path_system
from .classify import ClassKind, classify, recognize_t_prime
from .colorers import color_double_auto
from .decomposition import BB, RB, RR, Decomposition, VerifyReport, verify
from .enumeration import enumerate_connected, enumerate_connected_bipartite
from .graphs import Multigraph, SimpleGraph, double, is_locally_irregular
from .harness import SweepRecord, check_graph, sweep
from .solver import (
    SearchLimits,
    SearchStatus,
    exact_lir_graph,
    exact_lir_multigraph,
    is_decomposable,
)

__all__ = [
    "BB",
    "RB",
    "RR",
    "ClassKind",
    "Decomposition",
    "Multigraph",
    "SearchLimits",
    "SearchStatus",
    "SimpleGraph",
    "SweepRecord",
    "VerifyReport",
    "check_graph",
    "classify",
    "color_double_auto",
    "color_double_bipartite",
    "double",
    "enumerate_connected",
    "enumerate_connected_bipartite",
    "exact_lir_graph",
    "exact_lir_multigraph",
    "find_twin_split",
    "is_decomposable",
    "is_locally_irregular",
    "path_system",
    "recognize_t_prime",
    "sweep",
    "verify",
]

__version__ = "0.1.0"
