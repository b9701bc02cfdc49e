"""Integer kernels for the hot array loops.

The compact pipeline's innermost integer kernels — the connected-
component union-find, the forest/acyclicity check, and the Kruskal-style
greedy forest selections used by column-generation pricing — live here,
on numpy and plain Python with no dependency beyond numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "connected_component_labels",
    "is_forest",
    "max_weight_forest",
    "greedy_capped_forest",
]


# ----------------------------------------------------------------------
# Connected-component labels (canonical min-vertex labeling)
# ----------------------------------------------------------------------
def connected_component_labels(
    n: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Label each vertex with its component's minimum vertex index.

    The output is canonical — it depends only on the edge set, not the
    algorithm.  Vectorized hook-and-compress union-find (Shiloach–Vishkin
    style): alternate full pointer jumping with a vectorized "hook every
    cross edge to the smaller root" step (``np.minimum.at`` resolves
    conflicting hooks).  Roots only ever decrease, so the pointer
    structure stays acyclic and the loop merges at least one pair of
    roots per round — O(log n) rounds in practice, each a constant
    number of O(n + m) array ops.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        # Full path compression by pointer doubling.
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        if not cross.any():
            break
        pu, pv = pu[cross], pv[cross]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        # Edges already inside one component stay that way; drop them
        # so later rounds touch only the still-merging frontier.
        u, v = u[cross], v[cross]
    return parent


# ----------------------------------------------------------------------
# Acyclicity check
# ----------------------------------------------------------------------
def is_forest(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """True when the edge arrays are acyclic (union-find sweep)."""
    uf = _IntUnionFind(n)
    return all(uf.union(int(a), int(b)) for a, b in zip(u.tolist(), v.tolist()))


class _IntUnionFind:
    """Array union-find over ``0..n-1`` (path halving, union by root id)."""

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


# ----------------------------------------------------------------------
# Greedy forest selections (column-generation pricing inner loops)
# ----------------------------------------------------------------------
def max_weight_forest(
    n: int, u: np.ndarray, v: np.ndarray, weights: np.ndarray
) -> tuple[list[int], float]:
    """Matroid-greedy maximum-weight forest (strictly positive weights).

    Returns the chosen edge indices, heaviest first, and their total
    weight accumulated edge by edge in that order.
    """
    order = np.argsort(-weights, kind="stable")
    uf = _IntUnionFind(n)
    chosen_list: list[int] = []
    total = 0.0
    for j in order.tolist():
        w = weights[j]
        if w <= 0:
            break
        if uf.union(int(u[j]), int(v[j])):
            chosen_list.append(int(j))
            total += float(w)
    return chosen_list, total


def greedy_capped_forest(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    order: list[int],
    caps: np.ndarray,
) -> tuple[list[int], np.ndarray]:
    """Greedy forest respecting per-vertex degree caps.

    The loop indexes Python lists, not numpy arrays: column-generation
    seeding runs it 24 times per call, and a numpy scalar read costs
    several list reads.
    """
    uf = _IntUnionFind(n)
    ends_u, ends_v, cap = u.tolist(), v.tolist(), caps.tolist()
    degree = [0] * n
    chosen_list: list[int] = []
    for j in order:
        a, b = ends_u[j], ends_v[j]
        if degree[a] < cap[a] and degree[b] < cap[b] and uf.union(a, b):
            chosen_list.append(j)
            degree[a] += 1
            degree[b] += 1
    return chosen_list, np.array(degree, dtype=np.int64)
