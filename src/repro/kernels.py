"""Integer kernels for the hot array loops.

The compact pipeline's innermost integer kernels — the connected-
component union-find, the forest/acyclicity check, the Kruskal-style
greedy forest selections used by column-generation pricing, and the
spanning-tree certificates of the extension (a degree-capped spanning
tree search and the counting test that rules one out), and the sorted
array splice that edits a graph version's arrays in place of a rebuild
— live here, on numpy and plain Python with no dependency beyond numpy.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

__all__ = [
    "connected_component_labels",
    "is_forest",
    "max_weight_forest",
    "greedy_capped_forest",
    "capped_spanning_tree",
    "excludes_capped_spanning_tree",
    "splice",
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
# Sorted-array splice
# ----------------------------------------------------------------------
def splice(
    array: np.ndarray, drop: np.ndarray, at: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``np.insert(np.delete(array, drop), at, values)`` for ascending
    ``drop`` and ``at`` (``at`` indexes the array left after the drops).

    Built by concatenating slices: one copy of ``array`` plus one Python
    step per run of consecutive dropped positions and per run of values
    inserted at one position, where numpy's pair would build and apply
    boolean masks over the whole array twice.  Values sharing a
    position keep their order, as with ``np.insert``.
    """
    drop = np.asarray(drop, dtype=np.int64)
    at = np.asarray(at, dtype=np.int64)
    values = np.asarray(values, dtype=array.dtype)
    # Each cut (lo, hi, run) skips array[lo:hi], then inserts values[run].
    cuts: list[tuple[int, int, Optional[slice]]] = []
    if drop.size:
        breaks = np.flatnonzero(np.diff(drop) != 1) + 1
        lo = drop[np.concatenate([[0], breaks])]
        hi = drop[np.concatenate([breaks - 1, [drop.size - 1]])] + 1
        cuts += [(a, b, None) for a, b in zip(lo.tolist(), hi.tolist())]
    if at.size:
        # The position in ``array`` each value goes before; it never
        # falls inside or at the start of a run of dropped positions.
        before = at + np.searchsorted(drop - np.arange(drop.size), at, side="right")
        breaks = np.flatnonzero(np.diff(before)) + 1
        first = np.concatenate([[0], breaks]).tolist()
        last = np.concatenate([breaks, [at.size]]).tolist()
        cuts += [
            (p, p, slice(a, b))
            for p, a, b in zip(before[first].tolist(), first, last)
        ]
    cuts.sort(key=lambda cut: cut[0])
    pieces = []
    prev = 0
    for lo, hi, run in cuts:
        pieces.append(array[prev:lo])
        if run is not None:
            pieces.append(values[run])
        prev = hi
    pieces.append(array[prev:])
    return np.concatenate(pieces)


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


# ----------------------------------------------------------------------
# Spanning trees of bounded maximum degree (exactness certificates)
# ----------------------------------------------------------------------
_TREE_PHASES = 64
"""Work budget of :func:`capped_spanning_tree`: at most this many
improvement phases, each O((n + m)·α(n)).  A phase lowers the tree's
excess degree by exactly one, so a start with a larger excess is
declined without any phase."""


def excludes_capped_spanning_tree(
    n: int, u: np.ndarray, v: np.ndarray, cap: int
) -> bool:
    """True when counting proves that the connected graph ``(n, u, v)``
    has no spanning tree of maximum degree ≤ ``cap``.

    Every degree-1 vertex of G is a leaf of every spanning tree, and a
    tree with ``ℓ`` leaves and maximum degree ``cap`` has
    ``2(n − 1) ≤ ℓ + cap·(n − ℓ)``.  So with ``n ≥ 3`` and ``L`` degree-1
    vertices, no tree exists when ``L·(cap − 1) > (cap − 2)·n + 2``, or
    when some vertex has ``cap`` or more pendant neighbours and another
    neighbour besides (its tree degree is at least one more than its
    pendant count).  O(n + m) array work; ``False`` proves nothing.
    """
    if n < 3:
        return False
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    leaf = degree == 1
    leaves = int(np.count_nonzero(leaf))
    if leaves * (cap - 1) > (cap - 2) * n + 2:
        return True
    # With n ≥ 3 and G connected, no edge joins two leaves.
    pendants = np.bincount(
        np.concatenate([v[leaf[u]], u[leaf[v]]]), minlength=n
    )
    return bool(np.any((pendants >= cap) & (degree > pendants)))


def capped_spanning_tree(
    n: int, u: np.ndarray, v: np.ndarray, cap: int
) -> np.ndarray | None:
    """A spanning tree of ``(n, u, v)`` with maximum degree ≤ ``cap``, as
    ascending edge indices, or ``None`` when none was found.

    Deterministic.  The start is :func:`greedy_capped_forest` over the
    edges in ascending order of endpoint-degree sum (ties by edge
    index).  A start that does not span is completed over the same
    order with the caps lifted, and Fürer–Raghavachari improvement
    phases (:func:`_improvement_phase`) then lower the excess degree
    ``Σ max(deg_T(w) − cap, 0)`` one per phase, within
    :data:`_TREE_PHASES` phases.  So a declined call costs
    O(:data:`_TREE_PHASES`·(n + m)·α(n)).  ``None`` proves nothing: it
    also answers a graph that has such a tree but defeats the start and
    the local search, or that is not connected.  Every returned tree is
    checked (n − 1 edges, acyclic, within the cap) before it leaves.
    """
    if n <= 1:
        return np.zeros(0, dtype=np.int64)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    order = np.argsort(degree[u] + degree[v], kind="stable").tolist()
    chosen, _ = greedy_capped_forest(
        n, u, v, order, np.full(n, cap, dtype=np.int64)
    )
    if len(chosen) < n - 1:
        tree = _complete_and_improve(n, u.tolist(), v.tolist(), cap, order, chosen)
        if tree is None:
            return None
        chosen = tree
    edges = np.sort(np.asarray(chosen, dtype=np.int64))
    tree_degree = np.bincount(u[edges], minlength=n) + np.bincount(
        v[edges], minlength=n
    )
    if (
        edges.size != n - 1
        or tree_degree.max() > cap
        or not is_forest(n, u[edges], v[edges])
    ):  # pragma: no cover - the phases keep a spanning tree
        raise RuntimeError("capped_spanning_tree built an invalid tree")
    return edges


def _complete_and_improve(
    n: int,
    ends_u: list[int],
    ends_v: list[int],
    cap: int,
    order: list[int],
    chosen: list[int],
) -> list[int] | None:
    """Complete the capped forest ``chosen`` to a spanning tree over
    ``order`` with no caps, then run improvement phases until no vertex
    exceeds ``cap``.  ``None`` if G is not connected, the excess is
    larger than the budget, or a phase finds no improvement."""
    m = len(ends_u)
    uf = _IntUnionFind(n)
    in_tree = bytearray(m)
    for j in chosen:
        uf.union(ends_u[j], ends_v[j])
        in_tree[j] = 1
    tree = list(chosen)
    for j in order:
        if len(tree) == n - 1:
            break
        if not in_tree[j] and uf.union(ends_u[j], ends_v[j]):
            in_tree[j] = 1
            tree.append(j)
    if len(tree) < n - 1:
        return None
    adjacency: list[dict[int, int]] = [{} for _ in range(n)]
    for j in tree:
        a, b = ends_u[j], ends_v[j]
        adjacency[a][b] = j
        adjacency[b][a] = j
    excess = sum(max(len(nbrs) - cap, 0) for nbrs in adjacency)
    if excess > _TREE_PHASES:
        return None
    incident: list[list[int]] = [[] for _ in range(n)]
    for j in range(m):
        incident[ends_u[j]].append(j)
        incident[ends_v[j]].append(j)
    for _ in range(excess):
        if not _improvement_phase(
            n, ends_u, ends_v, cap, adjacency, in_tree, incident
        ):
            return None
    return [j for j in range(m) if in_tree[j]]


def _improvement_phase(
    n: int,
    ends_u: list[int],
    ends_v: list[int],
    cap: int,
    adjacency: list[dict[int, int]],
    in_tree: bytearray,
    incident: list[list[int]],
) -> bool:
    """One Fürer–Raghavachari phase: lower one over-cap degree by one.

    The tree is rooted at vertex 0.  Vertices of tree degree ≥ ``cap``
    are *blocked* (they cannot take another edge); removing them splits
    the tree into pieces, kept in a union-find whose representative is
    the piece's top vertex.  A non-tree edge ``(a, b)`` between two
    unblocked vertices of different pieces closes a tree cycle; the walk
    up from both ends, piece by piece, collects the blocked vertices on
    it, each with one of its cycle edges.  If one is over the cap, the
    swap (add ``(a, b)``, drop that cycle edge) lowers its degree, and
    the phase ends.  Otherwise every blocked vertex on the cycle is at
    the cap: it is freed (the swap is recorded for it, and it joins one
    merged piece with every piece on the cycle), and its non-tree edges
    are queued again.  A freed endpoint of a swap first applies its own
    recorded swap, recursively; pieces merged by one edge are disjoint
    from each other, so every such chain frees each vertex at most once
    and only edits edges inside the piece it started from (Fürer and
    Raghavachari, J. Algorithms 17(3), 1994).  Returns ``False`` when
    the queue empties without an improvement (a local optimum).
    """
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    seen = bytearray(n)
    seen[0] = 1
    bfs = [0]
    for w in bfs:
        for x, j in adjacency[w].items():
            if not seen[x]:
                seen[x] = 1
                parent[x] = w
                parent_edge[x] = j
                depth[x] = depth[w] + 1
                bfs.append(x)
    degree = [len(nbrs) for nbrs in adjacency]
    blocked = [d >= cap for d in degree]
    top = list(range(n))
    for w in bfs:
        p = parent[w]
        if p >= 0 and not blocked[w] and not blocked[p]:
            top[w] = top[p]

    def find(a: int) -> int:
        while top[a] != a:
            top[a] = top[top[a]]
            a = top[a]
        return a

    recorded: dict[int, tuple[int, int]] = {}
    queue = deque(j for j in range(len(ends_u)) if not in_tree[j])
    while queue:
        j = queue.popleft()
        a, b = ends_u[j], ends_v[j]
        if in_tree[j] or blocked[a] or blocked[b]:
            continue
        ta, tb = find(a), find(b)
        if ta == tb:
            continue
        pieces: list[int] = []
        walls: dict[int, int] = {}
        while ta != tb:
            if depth[ta] < depth[tb]:
                ta, tb = tb, ta
            pieces.append(ta)
            edge = parent_edge[ta]
            ta = find(parent[ta])
            if blocked[ta] and ta not in walls:
                walls[ta] = edge
        over = [w for w in walls if degree[w] > cap]
        if over:
            _apply_swaps(
                ends_u, ends_v, cap, adjacency, in_tree, degree, recorded,
                j, walls[over[0]],
            )
            return True
        for w, edge in walls.items():
            blocked[w] = False
            recorded[w] = (j, edge)
            queue.extend(incident[w])
        for piece in pieces:
            top[piece] = ta
    return False


def _apply_swaps(
    ends_u, ends_v, cap, adjacency, in_tree, degree, recorded, j, edge
) -> None:
    """Add edge ``j`` and drop tree edge ``edge``, first applying the
    recorded swap of each endpoint at the cap (post-order, no
    recursion)."""
    stack = [(j, edge, False)]
    while stack:
        j, edge, ready = stack.pop()
        a, b = ends_u[j], ends_v[j]
        if not ready:
            stack.append((j, edge, True))
            for x in (b, a):
                if degree[x] >= cap:
                    stack.append((*recorded.pop(x), False))
            continue
        adjacency[a][b] = j
        adjacency[b][a] = j
        in_tree[j] = 1
        c, d = ends_u[edge], ends_v[edge]
        del adjacency[c][d], adjacency[d][c]
        in_tree[edge] = 0
        for x, step in ((a, 1), (b, 1), (c, -1), (d, -1)):
            degree[x] += step
