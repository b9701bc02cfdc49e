"""Maximum flow / minimum cut (Dinic's algorithm) with real capacities.

The exact fallback of the Padberg–Wolsey separation oracle
:func:`repro.lp.forest_core.violated_forest_sets`.  The oracle runs its
pinned min cuts batched, on integer-scaled capacities, through
:func:`scipy.sparse.csgraph.maximum_flow`; a pin whose integer cut
neither yields a violated set nor certifies that none exists is solved
here, on the float network.  Its capacities are real-valued (fractional
LP solutions), so the implementation carries an explicit numerical
tolerance below which residual capacity is treated as zero.  With
finitely many distinct capacity values derived from one LP solution
this converges exactly like the integral case.

The API is deliberately small: build a :class:`FlowNetwork`, call
:meth:`FlowNetwork.max_flow`, then :meth:`FlowNetwork.min_cut_source_side`
for the certifying cut.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

__all__ = ["FlowNetwork", "INFINITY"]

INFINITY = float("inf")
_DEFAULT_TOLERANCE = 1e-12


class FlowNetwork:
    """A directed flow network supporting Dinic's max-flow.

    Nodes are arbitrary hashable labels, added implicitly by
    :meth:`add_edge`.  Parallel edges are allowed (capacities are not
    merged, which is harmless for max-flow).

    Examples
    --------
    >>> net = FlowNetwork()
    >>> net.add_edge("s", "a", 1.0)
    >>> net.add_edge("a", "t", 0.5)
    >>> net.max_flow("s", "t")
    0.5
    """

    def __init__(self, tolerance: float = _DEFAULT_TOLERANCE) -> None:
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self._tolerance = tolerance
        # Edge arrays: to[i], cap[i] (residual); edge i^1 is the reverse.
        self._to: list[int] = []
        self._cap: list[float] = []
        self._head: dict[int, list[int]] = {}
        self._index: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []

    def _node(self, label: Hashable) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
            self._head[idx] = []
        return idx

    def add_edge(self, u: Hashable, v: Hashable, capacity: float) -> None:
        """Add a directed edge ``u → v`` with the given capacity ≥ 0."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        ui, vi = self._node(u), self._node(v)
        self._head[ui].append(len(self._to))
        self._to.append(vi)
        self._cap.append(capacity)
        self._head[vi].append(len(self._to))
        self._to.append(ui)
        self._cap.append(0.0)

    def has_node(self, label: Hashable) -> bool:
        """Return ``True`` if ``label`` has appeared in any edge."""
        return label in self._index

    def max_flow(self, source: Hashable, sink: Hashable) -> float:
        """Compute the maximum ``source → sink`` flow (Dinic).

        Mutates residual capacities; call :meth:`min_cut_source_side`
        afterwards for the certifying minimum cut.
        """
        s, t = self._node(source), self._node(sink)
        if s == t:
            raise ValueError("source and sink must differ")
        flow = 0.0
        while True:
            level = self._bfs_levels(s, t)
            if level[t] < 0:
                return flow
            iters = {u: 0 for u in self._head}
            while True:
                pushed = self._dfs_push(s, t, INFINITY, level, iters)
                if pushed <= self._tolerance:
                    break
                flow += pushed

    def _bfs_levels(self, s: int, t: int) -> dict[int, int]:
        level = {u: -1 for u in self._head}
        level[s] = 0
        queue: deque[int] = deque([s])
        while queue:
            u = queue.popleft()
            for edge_id in self._head[u]:
                v = self._to[edge_id]
                if level[v] < 0 and self._cap[edge_id] > self._tolerance:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _dfs_push(
        self,
        u: int,
        t: int,
        limit: float,
        level: dict[int, int],
        iters: dict[int, int],
    ) -> float:
        if u == t:
            return limit
        edges = self._head[u]
        while iters[u] < len(edges):
            edge_id = edges[iters[u]]
            v = self._to[edge_id]
            residual = self._cap[edge_id]
            if residual > self._tolerance and level[v] == level[u] + 1:
                pushed = self._dfs_push(v, t, min(limit, residual), level, iters)
                if pushed > self._tolerance:
                    self._cap[edge_id] -= pushed
                    self._cap[edge_id ^ 1] += pushed
                    return pushed
            iters[u] += 1
        return 0.0

    def min_cut_source_side(self, source: Hashable) -> set[Hashable]:
        """Return the labels reachable from ``source`` in the residual
        graph -- the source side of a minimum cut.  Valid only after
        :meth:`max_flow`."""
        s = self._node(source)
        seen = {s}
        queue: deque[int] = deque([s])
        while queue:
            u = queue.popleft()
            for edge_id in self._head[u]:
                v = self._to[edge_id]
                if v not in seen and self._cap[edge_id] > self._tolerance:
                    seen.add(v)
                    queue.append(v)
        return {self._labels[i] for i in seen}
