"""Int-native evaluation core for the Δ-bounded forest LP.

Definition 3.1 of the paper: ``f_Δ(G) = max x(E)`` over vectors
``x ∈ R^E`` with

    x(e) ≥ 0                for every edge e,
    x(E[S]) ≤ |S| − 1       for every S ⊆ V with |S| ≥ 2,
    x(δ(v)) ≤ Δ             for every vertex v.

Every evaluator in this module operates on a *canonical component*: a
connected graph given as ``(n, u, v)`` where vertices are the local
integers ``0..n-1`` and ``u``/``v`` are parallel int64 endpoint arrays
(``u < v`` elementwise, sorted lexicographically).
:class:`repro.core.extension.CompactSpanningForestExtension` — the only
caller on the release path — canonicalizes each component it cannot
settle by the integral fast paths to this form and calls
:func:`solve_component`; same arrays in, same solver calls, same floats
out.  ``f_Δ`` is additive across components, and the optimum can be
fractional (a triangle with Δ = 1 has ``f_1 = 3/2``), so values are
never rounded to integers.

Evaluators:

* a **tree fast path**: on a tree (``m = n − 1``) with integral Δ the
  degree-constraint matrix is the incidence matrix of a bipartite graph,
  hence totally unimodular — the LP optimum is integral and equals the
  maximum degree-≤Δ subforest, solved exactly by a leaf-to-root DP in
  ``O(n log n)`` with no LP solve at all;
* a **Δ = 1 fast path**: the degree rows imply every forest row, so
  ``f_1`` is the fractional matching number, half a maximum matching of
  the bipartite double cover (:func:`matching_component_value`, one
  :func:`scipy.sparse.csgraph.maximum_bipartite_matching` call);
* the **exhaustive exact** formulation (every forest constraint
  materialized, bitmask-vectorized assembly) for small components;
* a **cutting plane** with the Padberg–Wolsey min-cut separation
  oracle (:func:`violated_forest_sets`), run until the oracle finds its
  LP point feasible: on a support component whose weights are all 1
  each pinned min cut is read off by peeling to the 2-core, with no
  network; every other pinned min cut of a round runs as one copy of an
  integer network inside a single
  :func:`scipy.sparse.csgraph.maximum_flow` call, each cut re-checked in
  float, with the float :class:`~repro.flow.maxflow.FlowNetwork` as the
  exact fallback for a pin the integer cut cannot certify;
* stabilized **column generation** (Dantzig–Wolfe over explicit
  forests, Kruskal pricing with an array union-find), which runs only
  past the cutting plane's round budget and closes its window from
  below: a feasible lower bound and a Lagrangian upper bound.

HiGHS runs three ways.  The cutting plane is warm-started: one
:class:`_HighsModel` per call, each round appending only its newly
violated forest rows and re-solving from the previous basis.  Its
model and rows are built as plain arrays (:func:`_plane_columns`,
:func:`_forest_rows`), and the oracle's flow networks as CSR arrays in
row order (:func:`_flow_network`), with no COO conversion or sparse
arithmetic on the per-round path; each array equals, element for
element, the one the scipy.sparse construction gave, so the solvers'
floats do not move.
The column-generation master is solved cold, one :class:`_HighsModel`
per solve, built from exactly the matrix, bounds and options
``linprog(method="highs")`` would pass, so its floats are ``linprog``'s.
The exhaustive LP calls :func:`scipy.optimize.linprog`.  The model
class drives ``scipy.optimize._highspy._core._Highs``, a private scipy
binding (tested with scipy 1.17.1): if it moves, importing this module
fails.

The combined ``auto`` logic — fast tree DP, the Δ = 1 matching,
exhaustive up to :data:`EXACT_THRESHOLD` vertices, the cutting plane
above it — lives in :func:`solve_component`.  Its caller settles
``f_Δ = n − 1`` before the LP where it can: a spanning ⌊Δ⌋-tree from
:func:`repro.kernels.capped_spanning_tree` (at Δ = 2 a Hamiltonian
path) or, where that declines, Algorithm-3 repair proves it in
integers (Lemma 3.3(4)), and counting tests skip both where no such
tree exists, so most components whose value is ``n − 1`` never reach
this module.

Algorithm 1's sensitivity argument needs ``f_Δ`` itself, so no value
is rounded to a nearby one.  The cutting plane's round budget (64,
twice the most rounds seen on the served corpora) only bounds the
work: past it, column generation closes the window from below,
``exact`` when the window is at most ``1e-6`` and ``approx`` with the
window otherwise.  The controls
(:data:`EXACT_THRESHOLD`, the round budget, separation tolerance
``1e-7``, 120 column-generation iterations) are constants of this
module: ``f_Δ`` depends on ``G`` and ``Δ`` alone, so they only decide
how its optimum is found.  Every result of :func:`solve_component`,
memo hits included, is counted in ``repro_lp_certificates_total{status}``
(:data:`CERTIFICATE_STATUSES`).

Any change that can move a bit of an ``f_Δ`` value bumps
``repro.__version__``: the version is the only code coordinate of the
extension caches' and the sweep store's keys, so values computed by
older code are never served from them.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs
from scipy.sparse.csgraph import (
    breadth_first_order,
    maximum_bipartite_matching,
    maximum_flow,
)

from .. import kernels, telemetry

from ..flow.maxflow import INFINITY, FlowNetwork
from ..graphs.compact import CompactGraph

__all__ = [
    "CERTIFICATE_STATUSES",
    "EXACT_THRESHOLD",
    "ForestLPError",
    "CoreLPResult",
    "solve_component",
    "tree_component_value",
    "batched_tree_values",
    "matching_component_value",
    "exhaustive_component_value",
    "cutting_plane_component",
    "column_generation_component",
    "violated_forest_sets",
]

EXACT_THRESHOLD = 13
"""Components up to this many vertices are solved with the exhaustive
(exact) formulation in ``auto`` mode."""

_CUTTING_PLANE_ROUNDS = 64
_SEPARATION_TOLERANCE = 1e-7
_CG_MAX_ITERATIONS = 120
_GAP_TOLERANCE = 1e-7
_SMOOTHING = 0.6


class ForestLPError(RuntimeError):
    """Raised when the inner LP solver reports a failure."""


class CoreLPResult(NamedTuple):
    """Outcome of evaluating ``f_Δ`` on one canonical component.

    ``x`` is aligned with the input edge arrays (weight of edge ``j`` at
    position ``j``).  ``value`` is a feasible lower bound; the true
    optimum lies in ``[value, value + gap]`` (``gap == 0`` means exact).
    ``status`` is one of :data:`CERTIFICATE_STATUSES`.
    """

    value: float
    x: np.ndarray
    lp_rounds: int
    constraints_added: int
    gap: float
    status: str


CERTIFICATE_STATUSES = ("exact", "approx", "outer-bound")
"""Every :attr:`CoreLPResult.status`: ``exact`` (a certified optimum),
``approx`` (only ``[value, value + gap]`` is certified) and
``outer-bound`` (a cutting-plane upper bound ``gap`` with
``value = 0``)."""


def _as_edge_arrays(u, v) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.ascontiguousarray(u, dtype=np.int64),
        np.ascontiguousarray(v, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# One HiGHS model, held across solves
# ----------------------------------------------------------------------
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("presolve", "on"),
    (
        "simplex_strategy",
        int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    ),
)
"""The options ``linprog(method="highs")`` passes to HiGHS: no output,
presolve on, dual simplex (every other option at HiGHS' default)."""


class _HighsSolution(NamedTuple):
    """An optimal solve: objective, column values and row duals, as
    ``linprog`` reports them (``fun``, ``x``, ``ineqlin``/``eqlin``
    marginals)."""

    fun: float
    x: np.ndarray
    row_dual: np.ndarray


class _Columns(NamedTuple):
    """A column-wise matrix as HiGHS takes it: column ``j`` has the
    entries ``data[indptr[j]:indptr[j + 1]]`` in the rows
    ``indices[indptr[j]:indptr[j + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class _HighsModel:
    """One LP ``min cost·x`` s.t. ``row_lower ≤ A x ≤ row_upper``,
    ``lower ≤ x ≤ upper``, kept in one HiGHS object across solves.

    The object is ``scipy.optimize._highspy._core._Highs``, the one
    ``linprog(method="highs")`` builds per call, set up with
    ``linprog``'s options and the column-wise matrix it passes, so a
    single :meth:`solve` of a fresh model gives ``linprog``'s floats
    without its per-call input checks.  ``matrix`` is that column-wise
    ``A``, given by its ``indptr``, ``indices`` and ``data`` arrays (a
    :class:`_Columns` triple or a scipy CSC array); its shape is
    ``(len(row_lower), len(cost))``.  :meth:`add_rows` keeps the last
    basis valid, so the next :meth:`solve` restarts the dual simplex
    from it (HiGHS skips presolve when it holds a basis).
    """

    def __init__(self, cost, lower, upper, matrix, row_lower, row_upper):
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
        lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lower)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        lp.col_cost_ = cost
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        self._highs = _highs._Highs()
        for option, value in _HIGHS_OPTIONS:
            self._highs.setOptionValue(option, value)
        self._check(self._highs.passModel(lp), "passModel")

    def add_rows(
        self, indptr: np.ndarray, indices: np.ndarray, upper: np.ndarray
    ) -> None:
        """Append the rows ``Σ_{j ∈ row i} x_j ≤ upper[i]``: row ``i``
        holds the columns ``indices[indptr[i]:indptr[i + 1]]``, each with
        coefficient 1 (int32 CSR arrays, ``indptr`` with its final
        entry)."""
        count = upper.size
        self._check(
            self._highs.addRows(
                count,
                np.full(count, -np.inf),
                upper,
                indices.size,
                indptr,
                indices,
                np.ones(indices.size),
            ),
            "addRows",
        )

    def solve(self) -> _HighsSolution:
        """Run HiGHS (from the current basis, if any) to optimality."""
        highs = self._highs
        with telemetry.span("lp.highs"):
            highs.run()
        status = highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise ForestLPError(
                f"HiGHS LP not optimal: model status "
                f"{highs.modelStatusToString(status)} ({status.name})"
            )
        solution = highs.getSolution()
        return _HighsSolution(
            highs.getObjectiveValue(),
            np.array(solution.col_value),
            np.array(solution.row_dual),
        )

    @staticmethod
    def _check(status, call: str) -> None:
        if status == _highs.HighsStatus.kError:
            raise ForestLPError(f"HiGHS {call} failed")


# ----------------------------------------------------------------------
# Auto driver
# ----------------------------------------------------------------------
# Content-addressed memo for small components.  Paper-scale sparse
# workloads (subcritical ER, planted classes, geometric dust) contain
# thousands of *identical* canonical components — the same size-3 path,
# the same size-5 blob — and each grid pass would otherwise re-solve the
# same LP thousands of times.  Keyed by the full argument tuple, so a
# hit is exactly a repeated computation; bounded in entry count (FIFO
# eviction of the oldest entry once full) AND in per-entry size (both n
# and m are capped, keeping every entry around a kilobyte, so the cache
# tops out in the low hundreds of MB even when full).
_SOLVE_CACHE: dict = {}
_SOLVE_CACHE_MAX = 100_000
_SOLVE_CACHE_MAX_N = 64
_SOLVE_CACHE_MAX_M = 96

# Always-on memo and certificate accounting (a counter bump per *lookup*
# and per result, far below the cost of even a memoized dict probe's
# surrounding work); the solve timing histogram and span only engage
# under an active tracer.
_MEMO_LOOKUPS = telemetry.counter(
    "repro_lp_memo_total",
    "Content-addressed component-solve memo lookups, by result",
    labels=("result",),
)
_CERTIFICATES = telemetry.counter(
    "repro_lp_certificates_total",
    "Component LP results (memo hits included), by certificate status",
    labels=("status",),
)
_SOLVE_SECONDS = telemetry.histogram(
    "repro_lp_solve_seconds",
    "Wall time of uncached per-component LP solves "
    "(recorded only while tracing is enabled)",
)


def clear_solve_cache() -> None:
    """Drop every memoized component solve (frees the cache memory)."""
    _SOLVE_CACHE.clear()


def solve_component(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    *,
    use_fast_paths: bool = True,
) -> CoreLPResult:
    """Evaluate ``f_Δ`` on one canonical connected component (``auto``).

    Strategy: tree DP when the component is a tree and Δ is integral;
    the double-cover matching at Δ = 1; exhaustive exact up to
    :data:`EXACT_THRESHOLD` vertices; otherwise the cutting plane until
    the oracle certifies its LP point, with column generation closing
    the window only past the round budget.  ``use_fast_paths=False``
    disables the tree DP and matching shortcuts so differential tests
    can compare them against a genuinely independent LP evaluation.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    u, v = _as_edge_arrays(u, v)
    m = u.size
    target = float(n - 1)
    if m == 0:
        _CERTIFICATES.inc(status="exact")
        return CoreLPResult(0.0, np.zeros(0), 0, 0, 0.0, "exact")
    cache_key = None
    if n <= _SOLVE_CACHE_MAX_N and m <= _SOLVE_CACHE_MAX_M:
        cache_key = (
            n,
            u.tobytes(),
            v.tobytes(),
            float(delta),
            use_fast_paths,
        )
        hit = _SOLVE_CACHE.get(cache_key)
        if hit is not None:
            _MEMO_LOOKUPS.inc(result="hit")
            _CERTIFICATES.inc(status=hit.status)
            return hit
        _MEMO_LOOKUPS.inc(result="miss")
    with telemetry.span("lp.solve", n=int(n), m=int(m)) as timing:
        result = _solve_component_uncached(
            n,
            u,
            v,
            delta,
            target,
            m,
            use_fast_paths=use_fast_paths,
        )
    if timing.seconds is not None:
        _SOLVE_SECONDS.observe(timing.seconds)
    if cache_key is not None:
        if len(_SOLVE_CACHE) >= _SOLVE_CACHE_MAX:
            _SOLVE_CACHE.pop(next(iter(_SOLVE_CACHE)))
        _SOLVE_CACHE[cache_key] = result
    _CERTIFICATES.inc(status=result.status)
    return result


def _solve_component_uncached(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    target: float,
    m: int,
    *,
    use_fast_paths: bool,
) -> CoreLPResult:
    """The ``auto`` strategy of :func:`solve_component`, unmemoized.

    Above :data:`EXACT_THRESHOLD` the cutting plane returns ``exact``
    once the oracle finds its LP point feasible.  Past its round budget
    its last LP value is an outer bound, and column generation closes
    the window from below: ``exact`` within ``1e-6``, else ``approx``.
    """
    if (
        use_fast_paths
        and m == n - 1
        and float(delta).is_integer()
        and kernels.is_forest(n, u, v)
    ):
        return tree_component_value(n, u, v, int(delta))
    if use_fast_paths and delta == 1.0:
        return matching_component_value(n, u, v)
    if n <= EXACT_THRESHOLD:
        return exhaustive_component_value(n, u, v, delta)

    outer = cutting_plane_component(
        n, u, v, delta, _SEPARATION_TOLERANCE, _CUTTING_PLANE_ROUNDS
    )
    if outer.status == "exact":
        return outer

    with telemetry.span("lp.colgen"):
        cg = column_generation_component(
            n, u, v, delta, external_upper_bound=outer.gap
        )
    upper = min(outer.gap, cg.value + cg.gap)
    lower = min(max(cg.value, 0.0), target)
    rounds = outer.lp_rounds + cg.lp_rounds
    added = outer.constraints_added + cg.constraints_added
    gap = max(upper - lower, 0.0)
    if gap <= 1e-6:
        return CoreLPResult(lower, cg.x, rounds, added, 0.0, "exact")
    return CoreLPResult(lower, cg.x, rounds, added, gap, "approx")


# ----------------------------------------------------------------------
# Tree fast path: exact DP, no LP solve
# ----------------------------------------------------------------------
def tree_component_value(
    n: int, u: np.ndarray, v: np.ndarray, cap: int
) -> CoreLPResult:
    """Exact ``f_Δ`` on a forest via the degree-capped subforest DP.

    On a forest the subset constraints are implied by the box bounds, so
    the LP is a degree-constrained subgraph problem whose constraint
    matrix (a bipartite incidence matrix) is totally unimodular: the
    optimum is integral.  ``dp0[w]``/``dp1[w]`` are the best edge counts
    in the subtree of ``w`` when the edge to the parent is unused/used;
    children are merged by taking the largest positive gains up to the
    remaining capacity.  A top-down pass reconstructs one optimal
    integral subforest as the certificate ``x``.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    u, v = _as_edge_arrays(u, v)
    m = u.size
    x = np.zeros(m)
    if m == 0:
        return CoreLPResult(0.0, x, 0, 0, 0.0, "exact")

    # CSR adjacency carrying edge ids.
    endpoints = np.concatenate([u, v])
    partners = np.concatenate([v, u])
    edge_ids = np.concatenate([np.arange(m), np.arange(m)])
    order = np.argsort(endpoints, kind="stable")
    nbr = partners[order]
    nbr_edge = edge_ids[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=n), out=indptr[1:])

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    bfs_order: list[int] = []
    roots: list[int] = []
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        roots.append(root)
        queue = [root]
        while queue:
            w = queue.pop()
            bfs_order.append(w)
            for k in range(indptr[w], indptr[w + 1]):
                c = int(nbr[k])
                if not visited[c]:
                    visited[c] = True
                    parent[c] = w
                    parent_edge[c] = nbr_edge[k]
                    queue.append(c)

    dp0 = [0] * n
    dp1 = [0] * n
    # Per-vertex children gains, sorted descending (ties by child index).
    gains: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for w in reversed(bfs_order):
        child_gains = gains[w]
        child_gains.sort(key=lambda item: (-item[0], item[1]))
        base = sum(dp0[c] for _, c, _ in child_gains)
        positive = [g for g, _, _ in child_gains if g > 0]
        dp0[w] = base + sum(positive[:cap])
        dp1[w] = base + sum(positive[: max(cap - 1, 0)])
        p = int(parent[w])
        if p >= 0:
            gains[p].append((dp1[w] + 1 - dp0[w], w, int(parent_edge[w])))

    # Top-down reconstruction of one optimal subforest.
    budget = [0] * n
    for root in roots:
        budget[root] = cap
    for w in bfs_order:
        take = budget[w]
        for g, c, e in gains[w]:
            if take > 0 and g > 0:
                x[e] = 1.0
                budget[c] = cap - 1
                take -= 1
            else:
                budget[c] = cap
    value = float(sum(dp0[r] for r in roots))
    return CoreLPResult(value, x, 0, 0, 0.0, "exact")


def batched_tree_values(
    n: int, u: np.ndarray, v: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Degree-capped subforest DP over a whole forest, vectorized.

    ``(n, u, v)`` is a forest (every connected component a tree; callers
    guarantee acyclicity) over local vertices ``0..n-1``.  Returns
    ``(roots, values)``: one root per tree (its minimum-peel survivor)
    and the exact maximum number of edges of a degree-≤``cap`` subforest
    of that tree, as float64.

    This is :func:`tree_component_value` evaluated on every tree in one
    array pass instead of a Python loop per component.  The per-child
    "gain" of the reference DP is always 0 or 1 (``dp0 − dp1 ∈ {0, 1}``
    by induction), so the reference's *sum of the top-``cap`` positive
    gains* collapses to ``min(cap, #children with gain 1)`` — the whole
    bottom-up pass reduces to integer scatter-adds grouped by leaf-peel
    round.  Values are integral, so they match the reference floats
    exactly (bit-identity pinned by the differential tests).

    Complexity: O(n + m) total work — each peel round touches only the
    vertices peeled in that round plus their parents (frontier-driven,
    never a full rescan), so long paths cost O(n), not O(n²).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    u, v = _as_edge_arrays(u, v)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    degree = degree.astype(np.int64, copy=False)
    # nbr_sum[x] = sum of x's not-yet-peeled neighbors: once x has
    # exactly one neighbor left, nbr_sum[x] IS that neighbor's index.
    nbr_sum = np.zeros(n, dtype=np.int64)
    np.add.at(nbr_sum, u, v)
    np.add.at(nbr_sum, v, u)

    parent = np.full(n, -1, dtype=np.int64)
    is_leaf = np.zeros(n, dtype=bool)
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    frontier = np.nonzero(degree == 1)[0]
    while frontier.size:
        leaves = frontier[degree[frontier] == 1]
        if leaves.size == 0:
            break
        parents = nbr_sum[leaves]
        # Mutual-leaf pairs (a 2-vertex tree, or the final edge of a
        # path): peel only the larger endpoint so the smaller survives
        # as the tree's root — matching one deterministic orientation.
        is_leaf[leaves] = True
        keep = ~(is_leaf[parents] & (parents > leaves))
        is_leaf[leaves] = False
        peeled = leaves[keep]
        parents = parents[keep]
        parent[peeled] = parents
        degree[peeled] = 0
        np.add.at(degree, parents, -1)
        np.subtract.at(nbr_sum, parents, peeled)
        rounds.append((peeled, parents))
        frontier = np.unique(parents)

    # Bottom-up DP: every child is peeled strictly before its parent, so
    # processing rounds in peel order sees complete child aggregates.
    base = np.zeros(n, dtype=np.int64)
    cnt1 = np.zeros(n, dtype=np.int64)
    for peeled, parents in rounds:
        dp0 = base[peeled] + np.minimum(cap, cnt1[peeled])
        dp1 = base[peeled] + np.minimum(cap - 1, cnt1[peeled])
        gain = dp1 + 1 - dp0
        np.add.at(base, parents, dp0)
        np.add.at(cnt1, parents, gain)
    roots = np.nonzero(parent < 0)[0]
    values = (base[roots] + np.minimum(cap, cnt1[roots])).astype(np.float64)
    return roots, values


# ----------------------------------------------------------------------
# Δ = 1 fast path: the fractional matching number, no LP solve
# ----------------------------------------------------------------------
def matching_component_value(
    n: int, u: np.ndarray, v: np.ndarray
) -> CoreLPResult:
    """Exact ``f_1``: half a maximum matching of the bipartite double
    cover.

    At Δ = 1 the degree rows imply every forest row (``x(E[S]) ≤ |S|/2
    ≤ |S| − 1`` for ``|S| ≥ 2``) and the box ``x ≤ 1``, so ``f_1`` is
    the fractional matching number.  That is half the maximum matching
    of the double cover, which has a row and a column per vertex and
    both ``(a, b)`` and ``(b, a)`` for each edge (Schrijver,
    *Combinatorial Optimization*, 2003, ch. 30).  One Hopcroft–Karp
    call; the certificate ``x`` puts 1/2 on an edge per matched copy of
    it, so every vertex load is at most 1 and ``x`` sums to the value.
    """
    u, v = _as_edge_arrays(u, v)
    m = u.size
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    cover = sparse.csr_array(
        (np.ones(2 * m), (rows, cols)), shape=(n, n)
    )
    partner = maximum_bipartite_matching(cover, perm_type="column")
    matched = np.nonzero(partner >= 0)[0]
    # Edge index of each matched (row, column) pair, by its sorted key.
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(keys, kind="stable")
    ends = partner[matched]
    pair_keys = np.minimum(matched, ends) * n + np.maximum(matched, ends)
    edges = order[np.searchsorted(keys[order], pair_keys)]
    x = np.bincount(edges, minlength=m) * 0.5
    return CoreLPResult(matched.size / 2.0, x, 0, 0, 0.0, "exact")


# ----------------------------------------------------------------------
# Exhaustive exact formulation (small components)
# ----------------------------------------------------------------------
def exhaustive_component_value(
    n: int, u: np.ndarray, v: np.ndarray, delta: float
) -> CoreLPResult:
    """Solve the LP with every forest constraint materialized.

    Subsets are enumerated as bitmasks over the ``n`` local vertices and
    the whole constraint matrix is assembled with array operations.
    """
    u, v = _as_edge_arrays(u, v)
    m = u.size
    target = float(n - 1)
    masks = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(masks.size, dtype=np.int64)
    for bit in range(n):
        pop += (masks >> bit) & 1
    keep = pop >= 2
    subsets = masks[keep]
    sizes = pop[keep]
    inc = (((subsets[:, None] >> u[None, :]) & 1) > 0) & (
        ((subsets[:, None] >> v[None, :]) & 1) > 0
    )
    touched = inc.any(axis=1)
    forest_rows = inc[touched]
    forest_rhs = (sizes[touched] - 1).astype(float)

    deg_rows_idx = np.concatenate([u, v])
    deg_cols_idx = np.concatenate([np.arange(m), np.arange(m)])
    degree_matrix = sparse.csr_matrix(
        (np.ones(2 * m), (deg_rows_idx, deg_cols_idx)), shape=(n, m)
    )
    keep_deg = np.asarray(degree_matrix.sum(axis=1)).ravel() > 0
    degree_matrix = degree_matrix[keep_deg]
    degree_rhs = np.full(int(keep_deg.sum()), float(delta))

    rows, cols = np.nonzero(forest_rows)
    forest_matrix = sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(forest_rows.shape[0], m)
    )
    a_ub = sparse.vstack([forest_matrix, degree_matrix], format="csr")
    b_ub = np.concatenate([forest_rhs, degree_rhs])
    with telemetry.span("lp.highs"):
        solution = linprog(
            -np.ones(m), A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
        )
    if not solution.success:
        raise ForestLPError(
            f"exhaustive LP failed (status {solution.status}): {solution.message}"
        )
    x = np.maximum(np.asarray(solution.x, dtype=float), 0.0)
    value = max(-float(solution.fun), 0.0)
    return CoreLPResult(min(value, target), x, 1, 2**n, 0.0, "exact")


# ----------------------------------------------------------------------
# Padberg–Wolsey separation oracle (batched integer min cuts)
# ----------------------------------------------------------------------
_MAX_FLOW_ARCS = 2**19
"""Arcs per ``maximum_flow`` call, counting the reverse arc scipy adds
to each; copies are packed up to this budget, and a copy larger than it
runs alone."""

_CAPACITY_SCALE = 2**30
"""``K`` when ``x ≤ 1``, and the capacity of every edge → endpoint arc.
No capacity exceeds it, so all fit scipy's int32 (which wraps larger
values silently instead of rejecting them)."""


class _Support(NamedTuple):
    """One connected component of the support: global vertex ids
    (ascending), local endpoints (``verts[a]``, ``verts[b]``), the edge
    weights and their integer capacities ``⌊x·K⌋``."""

    verts: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    cap: np.ndarray


def violated_forest_sets(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    tolerance: float = 1e-7,
    max_sets: int = 256,
) -> list[frozenset[int]]:
    """Return up to ``max_sets`` vertex sets with ``x(E[S]) > |S| − 1``.

    Padberg–Wolsey reduction: for a pinned vertex ``p``,
    ``max_{S ∋ p} [x(E[S]) − |S| + 1]`` is one min-cut in the edge–vertex
    network (source → edge node ``e`` with capacity ``x(e)``, edge node →
    both endpoints with capacity ∞, vertex → sink with capacity 1, or 0
    for ``p``): the cut equals ``x(E)`` minus that maximum, and its
    source side is the violated set.  One pinned min-cut per vertex of
    each support component (edges with ``x > tolerance``), except in a
    component that is a tree with ``x ≤ 1``, where no set is violated.

    A support component whose weights are all exactly ``1.0`` needs no
    network (:func:`_peeled_sets`): the minimal source side of each
    pinned cut is its 2-core plus the peel path from ``p`` to the core,
    and the violation is the component's cyclomatic number.

    The other pinned cuts run as copies of that network, scaled to
    integers, inside one :func:`scipy.sparse.csgraph.maximum_flow` call
    (a few for large components; at most :data:`_MAX_FLOW_ARCS` arcs
    each), computed lazily, one call at a time, as the list fills.  The
    integer network has ``c(e) = ⌊x(e)·K⌋`` and vertex → sink ``K``
    (:func:`_capacity_scale`).  Rounding down means a set never beats a
    subset that ties with it in the reals, so the residual source side
    ``S`` is the minimal minimum cut of the float network unless another
    cut comes within ``m/K`` of it; in such a near tie the pin may get
    another violated set than a float min cut would give it.  Per pin:

    * ``S ∪ {p}`` is returned if its violation, recomputed in float from
      ``x``, exceeds ``tolerance`` (sound);
    * otherwise the pin is clean if ``(c(E) − F)/K + Σ (x(e) − c(e)/K)``
      is at most ``tolerance``, where ``F`` is the copy's integer flow —
      this bounds the violation of every ``S ∋ p`` (complete);
    * any other pin runs the float :class:`FlowNetwork` cut.

    The slack ``Σ (x(e) − c(e)/K)`` is 0 for weights that are multiples
    of ``1/K`` (halves, quarters, ...) and below ``1/K`` for any other,
    so a component with more than ``tolerance·K`` edges of other weights
    (about 107 at ``1e-7`` and ``K = 2**30``) may certify no clean pin
    and send them all to the float cut.

    Sets come in component order, pins ascending, first occurrence kept.
    """
    u, v = _as_edge_arrays(u, v)
    x = np.asarray(x, dtype=np.float64)
    support = x > tolerance
    if not support.any():
        return []
    su, sv, sx = u[support], v[support], x[support]
    edge_root = kernels.connected_component_labels(n, su, sv)[su]
    order = np.argsort(edge_root, kind="stable")
    su, sv, sx = su[order], sv[order], sx[order]
    splits = np.nonzero(np.diff(edge_root[order]))[0] + 1
    scale = _capacity_scale(float(sx.max()))
    # Per component, in order: its pins' sets, or the _Support whose
    # pins the flow serves.
    sections: list = []
    for cu, cv, cx in zip(
        np.split(su, splits), np.split(sv, splits), np.split(sx, splits)
    ):
        verts = np.unique(np.concatenate([cu, cv]))
        if cx.size == verts.size - 1 and cx.max() <= 1.0:
            continue  # a tree: |E[S]| ≤ |S| − 1, so no S is violated
        a, b = np.searchsorted(verts, cu), np.searchsorted(verts, cv)
        if (cx == 1.0).all():
            sections.append(_peeled_sets(verts, a, b, tolerance))
        else:
            cap = np.floor(cx * scale).astype(np.int64)
            sections.append(_Support(verts, a, b, cx, cap))

    flow_components = [s for s in sections if isinstance(s, _Support)]
    flow_sets = (
        chosen
        for batch in _pin_batches(flow_components)
        for chosen in _pinned_cut_sets(n, batch, scale, tolerance)
    )
    violated: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for section in sections:
        if isinstance(section, _Support):
            section = islice(flow_sets, section.verts.size)
        for chosen in section:
            if chosen is not None and len(chosen) >= 2 and chosen not in seen:
                seen.add(chosen)
                violated.append(chosen)
                if len(violated) >= max_sets:
                    return violated
    return violated


def _peeled_sets(
    verts: np.ndarray, a: np.ndarray, b: np.ndarray, tolerance: float
) -> list[Optional[frozenset[int]]]:
    """Each pin's set, ascending, on a support component with every
    weight ``1.0`` that is not a tree.

    With unit weights, ``x(E[S]) − |S| + 1`` over ``S ∋ p`` is at most
    the cyclomatic number ``m − nv + 1``, reached exactly by the sets
    that are connected and hold every cycle edge.  The least of them is
    the 2-core (what repeatedly deleting degree-1 vertices leaves) plus
    the path along which ``p`` was peeled toward it, which is the
    minimal source side of the pinned min cut.  Every pin gets ``None``
    when the cyclomatic number is within ``tolerance``.
    """
    nv = verts.size
    if a.size - nv + 1 <= tolerance:
        return [None] * nv
    degree = np.bincount(a, minlength=nv) + np.bincount(b, minlength=nv)
    # nbr_sum[w] is the sum of w's unpeeled neighbours: the neighbour
    # itself once w is down to one.
    nbr_sum = np.zeros(nv, dtype=np.int64)
    np.add.at(nbr_sum, a, b)
    np.add.at(nbr_sum, b, a)
    parent = np.full(nv, -1, dtype=np.int64)
    peel_order: list[np.ndarray] = []
    leaves = np.nonzero(degree == 1)[0]
    while leaves.size:
        # The 2-core holds a cycle, so no two leaves are adjacent.
        up = nbr_sum[leaves]
        parent[leaves] = up
        peel_order.append(leaves)
        degree[leaves] = 0
        np.subtract.at(degree, up, 1)
        np.subtract.at(nbr_sum, up, leaves)
        leaves = np.unique(up[degree[up] == 1])
    core = frozenset(verts[parent < 0].tolist())
    sets = [core] * nv
    ids = verts.tolist()
    for leaves in reversed(peel_order):
        for w, up in zip(leaves.tolist(), parent[leaves].tolist()):
            sets[w] = sets[up] | {ids[w]}
    return sets


def _capacity_scale(x_max: float) -> int:
    """``K``: :data:`_CAPACITY_SCALE` when ``x ≤ 1``, else the largest
    power of two with ``K·x_max ≤ 2**30`` (0 when none is ≥ 1)."""
    scale = _CAPACITY_SCALE
    while scale and x_max * scale > _CAPACITY_SCALE:
        scale >>= 1
    return scale


def _pin_batches(components: list[_Support]):
    """Yield lists of ``(component, lo, hi)``: the copies pinned at local
    vertices ``lo..hi-1``, packed in order into one flow call each."""
    batch: list[tuple[_Support, int, int]] = []
    arcs = 0
    for comp in components:
        per_copy = 6 * comp.x.size + 2 * comp.verts.size
        lo = 0
        while lo < comp.verts.size:
            room = (_MAX_FLOW_ARCS - arcs) // per_copy
            if room < 1 and batch:
                yield batch
                batch, arcs = [], 0
                continue
            hi = min(lo + max(room, 1), comp.verts.size)
            batch.append((comp, lo, hi))
            arcs += (hi - lo) * per_copy
            lo = hi
    if batch:
        yield batch


def _pinned_cut_sets(n: int, batch, scale: int, tolerance: float):
    """Yield each pin's violated set, or ``None``, for one batch."""
    if not scale:
        for comp, lo, hi in batch:
            for pin in comp.verts[lo:hi].tolist():
                yield _float_pinned_cut(n, comp, pin, tolerance)
        return
    for (comp, lo, hi), flow, reach in zip(
        batch, *_batched_max_flow(batch, scale)
    ):
        bound = (int(comp.cap.sum()) - flow) / scale + float(
            (comp.x - comp.cap / scale).sum()
        )
        chosen = reach.copy()
        chosen[np.arange(hi - lo), np.arange(lo, hi)] = True
        violation = (
            (chosen[:, comp.a] & chosen[:, comp.b]) @ comp.x
            - chosen.sum(axis=1)
            + 1
        )
        for i, pin in enumerate(comp.verts[lo:hi].tolist()):
            if violation[i] > tolerance:
                yield frozenset(comp.verts[chosen[i]].tolist())
            elif bound[i] <= tolerance:
                yield None
            else:
                yield _float_pinned_cut(n, comp, pin, tolerance)


def _batched_max_flow(batch, scale: int):
    """One ``maximum_flow`` over every copy in ``batch``.

    Node 0 is the shared source and the last node the shared sink; each
    copy takes ``m + nv`` consecutive nodes, edge nodes first
    (:func:`_flow_network`).  Returns per batch entry the copies'
    integer flow values ``(k,)`` and the vertex nodes reachable from the
    source in the residual graph ``(k, nv)`` (:func:`_residual_reach`).
    """
    widths = [comp.x.size + comp.verts.size for comp, _, _ in batch]
    copies = [hi - lo for _, lo, hi in batch]
    starts = np.cumsum([1] + [w * k for w, k in zip(widths, copies)])
    capacity = _flow_network(batch, scale, starts)
    flow = maximum_flow(capacity, 0, capacity.shape[0] - 1).flow
    reached = _residual_reach(capacity, flow)
    sent = np.zeros(capacity.shape[0], dtype=np.int64)
    out = slice(flow.indptr[0], flow.indptr[1])
    sent[flow.indices[out]] = flow.data[out]

    flows, reaches = [], []
    for (comp, lo, hi), width, start in zip(batch, widths, starts):
        m, nodes = comp.x.size, slice(start, start + (hi - lo) * width)
        flows.append(sent[nodes].reshape(-1, width)[:, :m].sum(axis=1))
        reaches.append(reached[nodes].reshape(-1, width)[:, m:])
    return flows, reaches


def _flow_network(batch, scale: int, starts: np.ndarray) -> sparse.csr_array:
    """The batch's integer network as a CSR matrix, assembled in row
    order: the source row (an arc to every edge node, capacity
    ``c(e)``), then per copy its edge-node rows (arcs to both endpoints'
    vertex nodes, ascending, capacity :data:`_CAPACITY_SCALE`) and its
    vertex-node rows (the arc to the sink, capacity ``scale``, none for
    the pin), and an empty sink row.  Only forward arcs are stored;
    every one goes from a lower to a higher node."""
    sink = int(starts[-1])
    source_heads, source_caps = [], []
    heads, caps, lengths = [], [], []
    for (comp, lo, hi), start in zip(batch, starts):
        m, nv, k = comp.x.size, comp.verts.size, hi - lo
        bases = start + (m + nv) * np.arange(k)[:, None]
        source_heads.append((bases + np.arange(m)).ravel())
        source_caps.append(np.tile(comp.cap, k))
        ends = np.stack(
            [np.minimum(comp.a, comp.b), np.maximum(comp.a, comp.b)], axis=1
        ).ravel()
        heads.append(
            np.concatenate(
                [bases + m + ends, np.full((k, nv - 1), sink)], axis=1
            ).ravel()
        )
        caps.append(
            np.concatenate(
                [np.full((k, 2 * m), _CAPACITY_SCALE), np.full((k, nv - 1), scale)],
                axis=1,
            ).ravel()
        )
        length = np.ones((k, m + nv), dtype=np.int64)
        length[:, :m] = 2
        length[np.arange(k), m + np.arange(lo, hi)] = 0
        lengths.append(length.ravel())
    row_lengths = np.concatenate(
        [[sum(h.size for h in source_heads)], *lengths, [0]]
    )
    indptr = np.zeros(sink + 2, dtype=np.int32)
    np.cumsum(row_lengths, out=indptr[1:])
    return sparse.csr_array(
        (
            np.concatenate(source_caps + caps),
            np.concatenate(source_heads + heads).astype(np.int32),
            indptr,
        ),
        shape=(sink + 1, sink + 1),
    )


def _residual_reach(capacity: sparse.csr_array, flow: sparse.csr_array) -> np.ndarray:
    """The nodes reachable from node 0 in the residual graph of ``flow``.

    ``maximum_flow`` returns the flow on the network with a reverse arc
    added to every arc, each row sorted by head.  A forward arc (head
    above tail, as every arc of :func:`_flow_network`) is open while its
    flow is below its capacity, and its row lists forward arcs in
    ``capacity``'s order; a reverse arc is open while it carries
    negative flow, the positive flow of its forward twin.  This is the
    support of ``capacity − flow > 0``, read off the arrays.
    """
    nodes = flow.shape[0]
    tails = np.repeat(np.arange(nodes), np.diff(flow.indptr))
    forward = flow.indices > tails
    open_arcs = flow.data < 0
    open_arcs[forward] = flow.data[forward] < capacity.data
    indptr = np.zeros(nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails[open_arcs], minlength=nodes), out=indptr[1:])
    residual = sparse.csr_array(
        (np.ones(indptr[-1], dtype=bool), flow.indices[open_arcs], indptr),
        shape=flow.shape,
    )
    reached = np.zeros(nodes, dtype=bool)
    reached[breadth_first_order(residual, 0, return_predecessors=False)] = True
    return reached


def _float_pinned_cut(
    n: int, comp: _Support, pin: int, tolerance: float
) -> Optional[frozenset[int]]:
    """The pinned min cut on the float :class:`FlowNetwork` (node labels:
    ``-1`` source, ``-2`` sink, ``w`` vertex, ``n + j`` edge)."""
    network = FlowNetwork()
    ends = zip(comp.verts[comp.a].tolist(), comp.verts[comp.b].tolist())
    for j, ((a, b), weight) in enumerate(zip(ends, comp.x.tolist())):
        network.add_edge(-1, n + j, weight)
        network.add_edge(n + j, a, INFINITY)
        network.add_edge(n + j, b, INFINITY)
    for w in comp.verts.tolist():
        network.add_edge(w, -2, 0.0 if w == pin else 1.0)
    if float(comp.x.sum()) - network.max_flow(-1, -2) <= tolerance:
        return None
    side = network.min_cut_source_side(-1)
    return frozenset(label for label in side if 0 <= label < n) | {pin}


# ----------------------------------------------------------------------
# Cutting-plane loop
# ----------------------------------------------------------------------
def cutting_plane_component(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    separation_tolerance: float,
    max_rounds: int,
) -> CoreLPResult:
    """Lazy-constraint loop over the canonical arrays.

    One HiGHS model per call: ``m`` columns in ``[0, 1]``, the ``n``
    degree rows and the whole-vertex-set row.  Each round appends only
    the newly violated forest rows and re-solves from the previous
    basis.  Oracle-certified feasibility gives an ``exact`` result.
    Past ``max_rounds`` the result is an ``outer-bound``: ``value = 0``
    and ``gap`` the last LP value capped at ``n − 1``.
    """
    u, v = _as_edge_arrays(u, v)
    m = u.size
    target = float(n - 1)
    whole = frozenset(range(n))
    model = _HighsModel(
        -np.ones(m),
        np.zeros(m),
        np.ones(m),
        _plane_columns(n, u, v),
        np.full(n + 1, -np.inf),
        np.append(np.full(n, float(delta)), target),
    )

    in_model = {whole}
    total_added = 0
    lp_value = target
    for round_number in range(1, max_rounds + 1):
        solution = model.solve()
        lp_value = -float(solution.fun)
        x = np.maximum(solution.x, 0.0)
        with telemetry.span("lp.separation"):
            violated = violated_forest_sets(
                n, u, v, x, tolerance=separation_tolerance
            )
        new_sets = [s for s in violated if s not in in_model]
        if not new_sets:
            value = min(max(lp_value, 0.0), target)
            return CoreLPResult(
                value, x, round_number, total_added, 0.0, "exact"
            )
        in_model.update(new_sets)
        model.add_rows(*_forest_rows(new_sets, u, v, n))
        total_added += len(new_sets)
    return CoreLPResult(
        0.0, np.zeros(m), max_rounds, total_added,
        min(lp_value, target), "outer-bound",
    )


def _plane_columns(n: int, u: np.ndarray, v: np.ndarray) -> _Columns:
    """The cutting plane's first ``n + 1`` rows, column-wise: column
    ``j`` is 1 in the degree rows of its endpoints and in row ``n``,
    the whole-vertex-set forest row (rows ascending, as scipy's CSC
    conversion orders them)."""
    m = u.size
    indices = np.empty((m, 3), dtype=np.int32)
    indices[:, 0] = np.minimum(u, v)
    indices[:, 1] = np.maximum(u, v)
    indices[:, 2] = n
    indptr = np.arange(0, 3 * m + 1, 3, dtype=np.int32)
    return _Columns(indptr, indices.ravel(), np.ones(3 * m))


def _forest_rows(
    forest_sets: list[frozenset[int]], u: np.ndarray, v: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows ``x(E[S]) ≤ |S| − 1``, one per set, as int32 CSR
    ``(indptr, indices)`` over the edges (ascending within a row) and
    the right-hand sides."""
    member = np.zeros((len(forest_sets), n), dtype=bool)
    for i, subset in enumerate(forest_sets):
        member[i, list(subset)] = True
    rows, cols = np.nonzero(member[:, u] & member[:, v])
    indptr = np.zeros(len(forest_sets) + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(forest_sets)), out=indptr[1:])
    rhs = member.sum(axis=1) - 1.0
    return indptr, cols.astype(np.int32), rhs


# ----------------------------------------------------------------------
# Column generation (Dantzig–Wolfe, Kruskal pricing, array union-find)
# ----------------------------------------------------------------------
def _seed_columns(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Initial pool: Algorithm-3 forests at several caps + capped pairs."""
    m = u.size
    seeds: list[list[int]] = [[]]
    compact = CompactGraph.from_edge_arrays(n, u, v)
    edge_index = {
        (int(a), int(b)): j for j, (a, b) in enumerate(zip(u.tolist(), v.tolist()))
    }
    maxdeg = compact.max_degree()
    for cap in range(1, min(int(delta) + 2, maxdeg) + 1):
        forest = compact.repair_spanning_forest(cap).forest
        if forest is not None:
            fu, fv = forest.edge_arrays()
            seeds.append(
                [edge_index[(int(a), int(b))] for a, b in zip(fu.tolist(), fv.tolist())]
            )
    budget = max(int(round(2 * delta)), 1)
    for _ in range(12):
        order = [int(j) for j in rng.permutation(m)]
        cap1 = int(rng.integers(1, budget + 1))
        first, degree = kernels.greedy_capped_forest(
            n, u, v, order, np.full(n, cap1, dtype=np.int64)
        )
        seeds.append(first)
        residual = np.maximum(budget - degree, 0)
        order2 = [int(j) for j in rng.permutation(m)]
        second, _ = kernels.greedy_capped_forest(n, u, v, order2, residual)
        seeds.append(second)
    return seeds


def column_generation_component(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    *,
    max_iterations: int = _CG_MAX_ITERATIONS,
    external_upper_bound: Optional[float] = None,
) -> CoreLPResult:
    """Stabilized column generation on the canonical arrays.

    Returns a :class:`CoreLPResult` whose ``value`` is the best feasible
    master objective (a certified lower bound), ``gap`` the certified
    window against the best Lagrangian/external upper bound, and
    ``constraints_added`` the column count.  The upper bound is encoded
    as ``value + gap``.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    u, v = _as_edge_arrays(u, v)
    m = u.size
    if m == 0:
        return CoreLPResult(0.0, np.zeros(0), 0, 0, 0.0, "exact")
    target = float(n - 1)
    rng = np.random.default_rng(0)

    columns: list[list[int]] = []
    seen: set[frozenset[int]] = set()
    for column in _seed_columns(n, u, v, delta, rng):
        key = frozenset(column)
        if key not in seen:
            seen.add(key)
            columns.append(column)

    best_upper = min(
        external_upper_bound if external_upper_bound is not None else target,
        target,
    )
    lam_best = np.zeros(n)
    best_solution: Optional[tuple[float, np.ndarray]] = None

    for iteration in range(1, max_iterations + 1):
        master = _solve_master(columns, u, v, n, delta)
        lower = -float(master.fun)
        if len(columns) > 500:
            columns = _prune_columns(columns, master.x)
            seen = {frozenset(column) for column in columns}
            master = _solve_master(columns, u, v, n, delta)
            lower = -float(master.fun)
        if best_solution is None or lower > best_solution[0]:
            best_solution = (lower, _mixture(master.x, columns, m))
        lam = -np.minimum(master.row_dual[:n], 0.0)
        improved = False
        for lam_candidate in (lam, _SMOOTHING * lam_best + (1 - _SMOOTHING) * lam):
            weights = 1.0 - lam_candidate[u] - lam_candidate[v]
            chosen, value = kernels.max_weight_forest(n, u, v, weights)
            upper = float(delta) * float(lam_candidate.sum()) + value
            if upper < best_upper:
                best_upper = upper
                lam_best = np.asarray(lam_candidate).copy()
            improved |= _add_column(chosen, seen, columns)
            # Complementary capped forest: a high-value partner column.
            degree = np.zeros(n, dtype=np.int64)
            for j in chosen:
                degree[u[j]] += 1
                degree[v[j]] += 1
            budget = max(int(round(2 * delta)), 1)
            residual = np.maximum(budget - degree, 0)
            order = [int(j) for j in np.argsort(-weights, kind="stable")]
            partner, _ = kernels.greedy_capped_forest(n, u, v, order, residual)
            improved |= _add_column(partner, seen, columns)
            for _ in range(2):
                perturbed = weights + rng.normal(scale=1e-3, size=m)
                extra, _ = kernels.max_weight_forest(n, u, v, perturbed)
                improved |= _add_column(extra, seen, columns)
        gap = max(best_upper - lower, 0.0)
        if gap <= _GAP_TOLERANCE:
            return CoreLPResult(
                lower, best_solution[1], iteration, len(columns), 0.0, "exact"
            )
        if not improved:
            # No new columns at either dual point: the master is optimal
            # over all forests; the residual gap is dual-side only.
            return CoreLPResult(
                lower, best_solution[1], iteration, len(columns), 0.0, "exact"
            )
    lower, x = best_solution if best_solution else (0.0, np.zeros(m))
    return CoreLPResult(
        lower, x, max_iterations, len(columns),
        max(best_upper - lower, 0.0), "approx",
    )


def _prune_columns(columns: list[list[int]], mu: np.ndarray) -> list[list[int]]:
    """Keep active columns plus the most recent 150 generated ones."""
    active = [col for col, weight in zip(columns, mu) if weight > 1e-12]
    recent = columns[-150:]
    merged: list[list[int]] = []
    seen: set[frozenset[int]] = set()
    for column in active + recent + [[]]:
        key = frozenset(column)
        if key not in seen:
            seen.add(key)
            merged.append(column)
    return merged


def _add_column(
    column: list[int], seen: set[frozenset[int]], columns: list[list[int]]
) -> bool:
    key = frozenset(column)
    if key in seen:
        return False
    seen.add(key)
    columns.append(column)
    return True


def _mixture(mu: np.ndarray, columns: list[list[int]], m: int) -> np.ndarray:
    """The feasible edge-weight vector of the master's optimal mixture."""
    x = np.zeros(m)
    for mu_f, column in zip(mu, columns):
        if mu_f <= 1e-12:
            continue
        for j in column:
            x[j] += float(mu_f)
    return x


def _solve_master(
    columns: list[list[int]],
    u: np.ndarray,
    v: np.ndarray,
    n: int,
    delta: float,
) -> _HighsSolution:
    """Solve the restricted master LP cold; ``row_dual[:n]`` are the
    degree rows' duals."""
    k = len(columns)
    c = np.array([-float(len(column)) for column in columns])
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for col_index, column in enumerate(columns):
        if not column:
            continue
        idx = np.asarray(column, dtype=np.int64)
        counts = np.bincount(
            np.concatenate([u[idx], v[idx]]), minlength=n
        )
        touched = np.nonzero(counts)[0]
        rows.append(touched)
        cols.append(np.full(touched.size, col_index, dtype=np.int64))
        data.append(counts[touched].astype(float))
    if rows:
        a_ub = sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, k),
        )
    else:
        a_ub = sparse.csr_matrix((n, k))
    # The matrix, bounds and row ranges ``linprog(c, A_ub=a_ub,
    # b_ub=Δ, A_eq=1, b_eq=1, bounds=(0, None))`` hands HiGHS, solved cold.
    model = _HighsModel(
        c,
        np.zeros(k),
        np.full(k, np.inf),
        sparse.csc_array(sparse.vstack([a_ub, np.ones((1, k))])),
        np.append(np.full(n, -np.inf), 1.0),
        np.append(np.full(n, float(delta)), 1.0),
    )
    return model.solve()
