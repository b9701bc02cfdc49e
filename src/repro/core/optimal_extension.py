"""Machinery for the ℓ∞-optimality experiment (Theorem 1.11).

Theorem 1.11 compares our extension's error

    Err_G(f_Δ, f_sf) = max over H ⪯ G of |f_Δ(H) − f_sf(H)|

against the best achievable by *any* (Δ−1)-Lipschitz function:

    Err_G(f_Δ, f_sf) ≤ 2 · min over f* in F_{Δ−1} of Err_G(f*, f_sf) − 1
    (whenever the left side is positive).

The right-hand minimum ranges over all functions on all graphs, which is
not directly computable.  We bound it from below with a linear program
over the induced-subgraph poset of ``G``: one variable ``y_A`` per vertex
subset ``A`` (the value ``f*(G[A])``) plus the error bound ``z``:

    minimize  z
    subject to  |y_A − f_sf(G[A])| ≤ z          for every A ⊆ V(G)
                |y_A − y_{A−v}|   ≤ Δ − 1       for every A, v ∈ A.

Every true (Δ−1)-Lipschitz ``f*`` induces a feasible point (node-
neighboring induced subgraphs are at node distance 1), so the LP optimum
is a valid **lower bound** on the theorem's minimum; the LP relaxes away
(a) Lipschitz constraints between non-neighboring subgraphs and (b)
consistency on isomorphic subgraphs.  Verifying

    Err_G(f_Δ) ≤ 2 · LP_optimum − 1

is therefore *stronger* than Theorem 1.11 itself; our experiments (E7)
find it holds on the tested instances.

Exponential in |V(G)|; intended for graphs with ≤ ~10 vertices.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..graphs.components import spanning_forest_size
from ..graphs.distance import all_vertex_subsets
from ..graphs.graph import Graph
from .extension import evaluate_lipschitz_extension

__all__ = [
    "extension_linf_error",
    "optimal_extension_error_lower_bound",
    "check_theorem_1_11",
]

_POSET_LP_LIMIT = 12


def extension_linf_error(
    graph: Graph,
    delta: float,
    extension: Callable[[Graph, float], float] | None = None,
) -> float:
    """Return ``Err_G(f_Δ, f_sf) = max_{H ⪯ G} |f_Δ(H) − f_sf(H)|``.

    Evaluates the extension on every induced subgraph (exponential;
    small graphs).  A custom ``extension(graph, delta)`` may be supplied,
    e.g. the generic ``b̂f_Δ``; the default is the paper's LP extension.
    """
    evaluate = extension or evaluate_lipschitz_extension
    worst = 0.0
    for subset in all_vertex_subsets(graph):
        sub = graph.induced_subgraph(subset)
        gap = abs(evaluate(sub, delta) - spanning_forest_size(sub))
        worst = max(worst, gap)
    return worst


def optimal_extension_error_lower_bound(graph: Graph, lipschitz: float) -> float:
    """LP lower bound on ``min_{f* ∈ F_lipschitz} Err_G(f*, f_sf)``.

    See the module docstring for the formulation and why the relaxation
    direction makes this a valid lower bound.
    """
    if lipschitz < 0:
        raise ValueError(f"lipschitz must be non-negative, got {lipschitz}")
    n = graph.number_of_vertices()
    if n > _POSET_LP_LIMIT:
        raise ValueError(
            f"poset LP limited to {_POSET_LP_LIMIT} vertices, got {n}"
        )
    subsets = list(all_vertex_subsets(graph))
    index = {s: i for i, s in enumerate(subsets)}
    fsf = np.array(
        [spanning_forest_size(graph.induced_subgraph(s)) for s in subsets],
        dtype=float,
    )
    num_subsets = len(subsets)
    z_col = num_subsets  # variables: y_0..y_{N-1}, z

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    rhs: list[float] = []
    row = 0

    def add_row(entries: list[tuple[int, float]], bound: float) -> None:
        nonlocal row
        for col, coefficient in entries:
            rows.append(row)
            cols.append(col)
            data.append(coefficient)
        rhs.append(bound)
        row += 1

    # |y_A - fsf_A| <= z   ==>   y_A - z <= fsf_A  and  -y_A - z <= -fsf_A.
    for i in range(num_subsets):
        add_row([(i, 1.0), (z_col, -1.0)], fsf[i])
        add_row([(i, -1.0), (z_col, -1.0)], -fsf[i])
    # |y_A - y_{A-v}| <= lipschitz for every subset A and v in A.
    for subset in subsets:
        i = index[subset]
        for v in subset:
            j = index[subset - {v}]
            add_row([(i, 1.0), (j, -1.0)], lipschitz)
            add_row([(i, -1.0), (j, 1.0)], lipschitz)

    a_ub = sparse.csr_matrix(
        (data, (rows, cols)), shape=(row, num_subsets + 1)
    )
    c = np.zeros(num_subsets + 1)
    c[z_col] = 1.0
    bounds = [(None, None)] * num_subsets + [(0.0, None)]
    solution = linprog(c, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs")
    if not solution.success:
        raise RuntimeError(f"poset LP failed: {solution.message}")
    return float(solution.x[z_col])


def check_theorem_1_11(graph: Graph, delta: float) -> dict[str, float | bool]:
    """Evaluate both sides of Theorem 1.11 on ``graph`` for parameter Δ.

    Returns a dictionary with ``err`` (the LHS ``Err_G(f_Δ, f_sf)``),
    ``opt_lower_bound`` (LP lower bound on the theorem's minimum over
    ``F_{Δ−1}``), ``bound`` (``2·opt_lower_bound − 1``), and
    ``satisfied`` — vacuously ``True`` when ``err == 0`` as the theorem
    only applies to graphs where the extension errs.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    err = extension_linf_error(graph, delta)
    optimum = optimal_extension_error_lower_bound(graph, delta - 1)
    bound = 2.0 * optimum - 1.0
    satisfied = True if err <= 1e-9 else err <= bound + 1e-6
    return {
        "err": err,
        "opt_lower_bound": optimum,
        "bound": bound,
        "satisfied": satisfied,
    }
