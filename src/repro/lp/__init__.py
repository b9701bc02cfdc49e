"""Linear-programming substrate: the Δ-bounded forest polytope LP."""

from .forest_core import (
    EXACT_THRESHOLD,
    CoreLPResult,
    ForestLPError,
    solve_component,
)

__all__ = [
    "EXACT_THRESHOLD",
    "CoreLPResult",
    "ForestLPError",
    "solve_component",
]
