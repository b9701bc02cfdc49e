"""Core: the paper's contribution — Lipschitz extensions and Algorithm 1."""

from .extension import (
    CompactSpanningForestExtension,
    evaluate_lipschitz_extension,
    extension_for,
)
from .algorithm import (
    PrivateSpanningForestSize,
    PrivateConnectedComponents,
    SpanningForestRelease,
    ConnectedComponentsRelease,
    default_failure_probability,
)
from .down_sensitivity import (
    down_sensitivity_spanning_forest,
    down_sensitivity_brute_force,
    generic_lipschitz_extension,
    generic_extension_spanning_forest,
    in_optimal_anchor_set,
)
from .generic_algorithm import GenericRelease, PrivateMonotoneStatistic
from .lower_bounds import (
    worst_case_error_lower_bound,
    hard_instance_chain,
    chain_distance_budget,
)
from .optimal_extension import (
    extension_linf_error,
    optimal_extension_error_lower_bound,
    check_theorem_1_11,
)
from .bounds import (
    theorem_1_3_bound,
    theorem_1_5_bound,
    erdos_renyi_error_bound,
    geometric_error_bound,
)
from .baselines import (
    NonPrivateBaseline,
    EdgeDPConnectedComponents,
    NaiveNodeDPConnectedComponents,
    BoundedDegreePromiseLaplace,
)

__all__ = [
    "CompactSpanningForestExtension",
    "extension_for",
    "evaluate_lipschitz_extension",
    "PrivateSpanningForestSize",
    "PrivateConnectedComponents",
    "SpanningForestRelease",
    "ConnectedComponentsRelease",
    "default_failure_probability",
    "down_sensitivity_spanning_forest",
    "down_sensitivity_brute_force",
    "generic_lipschitz_extension",
    "generic_extension_spanning_forest",
    "in_optimal_anchor_set",
    "GenericRelease",
    "PrivateMonotoneStatistic",
    "worst_case_error_lower_bound",
    "hard_instance_chain",
    "chain_distance_budget",
    "extension_linf_error",
    "optimal_extension_error_lower_bound",
    "check_theorem_1_11",
    "theorem_1_3_bound",
    "theorem_1_5_bound",
    "erdos_renyi_error_bound",
    "geometric_error_bound",
    "NonPrivateBaseline",
    "EdgeDPConnectedComponents",
    "NaiveNodeDPConnectedComponents",
    "BoundedDegreePromiseLaplace",
]
