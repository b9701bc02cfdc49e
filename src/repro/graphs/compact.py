"""Array-backed graph kernel: CSR adjacency + vectorized statistics.

:class:`CompactGraph` is the fast counterpart of the reference
:class:`repro.graphs.graph.Graph`.  Vertices are the integers
``0..n-1`` (an optional label table maps them back to arbitrary hashable
vertices), and the adjacency is stored CSR-style in two numpy arrays:

* ``indptr`` of length ``n + 1``;
* ``indices`` of length ``2m``, with the neighbors of vertex ``i`` in
  the sorted slice ``indices[indptr[i]:indptr[i + 1]]``.

On top of that representation the module implements the hot statistics
of the paper as array algorithms:

* connected components / ``f_cc`` via Shiloach–Vishkin-style array
  union-find (vectorized hook + pointer-jumping rounds);
* spanning forests / ``f_sf`` via vectorized Borůvka over edge ids
  (edge ids act as distinct weights, so the selected edges are exactly
  the unique minimum spanning forest under id-weights);
* degree-bounded spanning forests (Algorithm 3 of the paper) as an
  iterative int-indexed port of the reference local-repair procedure;
* the star number ``s(G)`` via per-neighborhood exact maximum
  independent sets (shared branch-and-bound core in
  :mod:`repro.graphs.independent_set`), plus fast lower/upper bounds.

The reference object-graph implementations in ``components``,
``forests`` and ``stars`` remain the ground truth; those modules route
calls here when handed a :class:`CompactGraph`.  Differential tests in
``tests/test_compact.py`` pin exact agreement between the two paths.
"""

from __future__ import annotations

import hashlib
import heapq
from contextlib import contextmanager
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .graph import Graph, Vertex
from .independent_set import mis_of_adjacency

__all__ = [
    "CompactGraph",
    "CompactRepairResult",
    "EditResult",
    "as_compact",
    "as_object_graph",
    "component_fingerprint",
    "graph_content_fingerprint",
    "object_coercion_count",
    "forbid_object_coercion",
]

# Telemetry for the compact-native pipeline: every conversion of a
# CompactGraph back to the reference object Graph bumps this counter.
# Tests and benchmarks snapshot it around a compact run to *prove* the
# fast path never silently falls back to the object representation.
_object_coercions = 0
_coercion_forbidden = False


def object_coercion_count() -> int:
    """Number of ``CompactGraph -> Graph`` conversions so far (process-wide)."""
    return _object_coercions


@contextmanager
def forbid_object_coercion():
    """Context manager that makes any compact→object conversion raise.

    Used by tests and benchmarks as a hard guard that a code path is
    compact-native end to end.
    """
    global _coercion_forbidden
    previous = _coercion_forbidden
    _coercion_forbidden = True
    try:
        yield
    finally:
        _coercion_forbidden = previous


def _record_coercion() -> None:
    global _object_coercions
    if _coercion_forbidden:
        raise RuntimeError(
            "CompactGraph was coerced to an object Graph inside a "
            "forbid_object_coercion() block — a compact-native path "
            "fell back to the reference representation"
        )
    _object_coercions += 1


def _in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean membership mask of ``values`` in a sorted-unique array."""
    member = np.zeros(values.size, dtype=bool)
    if values.size and sorted_keys.size:
        pos = np.searchsorted(sorted_keys, values)
        inside = pos < sorted_keys.size
        member[inside] = sorted_keys[pos[inside]] == values[inside]
    return member


def component_fingerprint(n: int, u: np.ndarray, v: np.ndarray) -> str:
    """Content hash of one canonical component (hex SHA-256).

    ``(n, u, v)`` is the canonical local-index form shared by the LP
    core and the extension engine: vertices are ``0..n-1`` in the order
    of their global indices, ``u < v`` elementwise, edges lexsorted.
    Two components hash equal iff those arrays are byte-identical —
    exactly the precondition under which every per-component pipeline
    result (Algorithm-3 repair outcome, LP value) is bit-identical.
    Labels are deliberately excluded: extension values never depend on
    them.
    """
    digest = hashlib.sha256(b"compact-component-v1")
    digest.update(int(n).to_bytes(8, "big"))
    digest.update(np.ascontiguousarray(u, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(v, dtype=np.int64).tobytes())
    return digest.hexdigest()


def graph_content_fingerprint(
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: Optional[Sequence[Vertex]] = None,
) -> str:
    """Content hash of a whole graph's defining arrays (hex SHA-256).

    The exact recipe behind :meth:`CompactGraph.fingerprint`, exposed at
    module level so the on-disk store (:mod:`repro.graphs.store`) can
    re-hash raw arrays during ``verify`` opens without building a graph.
    """
    digest = hashlib.sha256(b"compact-graph-v1")
    digest.update(int(indptr.size - 1).to_bytes(8, "big"))
    digest.update(np.ascontiguousarray(indptr).tobytes())
    digest.update(np.ascontiguousarray(indices).tobytes())
    if labels is not None:
        digest.update(repr(list(labels)).encode("utf-8"))
    return digest.hexdigest()


class EditResult(NamedTuple):
    """Outcome of :meth:`CompactGraph.apply_edits`.

    ``graph`` is the post-edit graph (a fresh immutable instance; the
    input graph is never mutated).  ``touched_old`` / ``touched_new``
    are the canonical component ids (minimum vertex index) of every
    component incident to an *effective* change, in the pre-edit and
    post-edit graph respectively — a component absent from these sets
    kept its exact vertex and edge sets, so its canonical arrays (and
    hence its :func:`component_fingerprint`) are unchanged.
    ``inserted`` / ``deleted`` count the effective edits (no-op inserts
    of existing edges and deletes of absent edges are skipped).
    """

    graph: "CompactGraph"
    touched_old: frozenset[int]
    touched_new: frozenset[int]
    inserted: int
    deleted: int


class CompactRepairResult(NamedTuple):
    """Outcome of the Algorithm-3 construction on a :class:`CompactGraph`.

    Mirrors :class:`repro.graphs.forests.RepairResult`; the forest is a
    :class:`CompactGraph` and the star certificate uses vertex labels.
    """

    forest: Optional["CompactGraph"]
    star: Optional[tuple[Vertex, tuple[Vertex, ...]]]
    repair_count: int


class CompactGraph:
    """An immutable undirected graph over int vertices in CSR form.

    Build one with :meth:`from_graph`, :meth:`from_edges`,
    :meth:`from_edge_arrays`, or the ``*_compact`` generators in
    :mod:`repro.graphs.generators`.  The structure is immutable: all the
    fast kernels cache derived arrays (edge lists, component labels) on
    first use.

    Examples
    --------
    >>> cg = CompactGraph.from_edges(4, [(0, 1), (2, 3)])
    >>> cg.number_of_connected_components()
    2
    >>> cg.spanning_forest_size()
    2
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_labels",
        "_label_to_index",
        "_edge_u",
        "_edge_v",
        "_component_labels",
        "_fingerprint",
        "_component_fps",
        "_backing",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Optional[Sequence[Vertex]] = None,
        _validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if _validate:
            n = indptr.size - 1
            if indptr.size < 1 or indptr[0] != 0 or indptr[-1] != indices.size:
                raise ValueError("malformed CSR indptr")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if indices.size and (indices.min() < 0 or indices.max() >= n):
                raise ValueError("CSR indices out of range")
            if labels is not None and len(labels) != n:
                raise ValueError(
                    f"expected {n} labels, got {len(labels)}"
                )
        # The class contract is immutability (memoized caches depend on
        # it), so the constructor takes ownership of the arrays and
        # freezes them; pass a copy if you need to keep mutating yours.
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        self._labels = list(labels) if labels is not None else None
        self._label_to_index: Optional[dict[Vertex, int]] = None
        self._edge_u: Optional[np.ndarray] = None
        self._edge_v: Optional[np.ndarray] = None
        self._component_labels: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None
        self._component_fps: Optional[dict[int, str]] = None
        # (path, fingerprint) when the CSR arrays are memmaps onto an
        # on-disk archive (repro.graphs.store); None for in-RAM graphs.
        self._backing: Optional[tuple[str, str]] = None

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        labels: Optional[Sequence[Vertex]] = None,
    ) -> "CompactGraph":
        """Build from parallel endpoint arrays (duplicates are merged).

        Raises
        ------
        ValueError
            On self-loops or endpoints outside ``[0, n)``.
        """
        if n < 0:
            raise ValueError(f"size must be non-negative, got {n}")
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError("endpoint arrays must have the same shape")
        if u.size:
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                raise ValueError(f"edge endpoints must lie in [0, {n})")
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
        uu = np.concatenate([u, v])
        vv = np.concatenate([v, u])
        order = np.lexsort((vv, uu))
        uu, vv = uu[order], vv[order]
        if uu.size:
            keep = np.empty(uu.size, dtype=bool)
            keep[0] = True
            keep[1:] = (uu[1:] != uu[:-1]) | (vv[1:] != vv[:-1])
            uu, vv = uu[keep], vv[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(uu, minlength=n), out=indptr[1:])
        return cls(indptr, vv, labels=labels, _validate=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[Vertex]] = None,
    ) -> "CompactGraph":
        """Build from an iterable of int edge pairs."""
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        return cls.from_edge_arrays(n, pairs[:, 0], pairs[:, 1], labels=labels)

    @classmethod
    def from_graph(cls, graph: Graph) -> "CompactGraph":
        """Convert a reference :class:`Graph`, preserving its vertex
        labels (index order = graph insertion order)."""
        labels = graph.vertex_list()
        index = {label: i for i, label in enumerate(labels)}
        m = graph.number_of_edges()
        u = np.empty(m, dtype=np.int64)
        v = np.empty(m, dtype=np.int64)
        for k, (a, b) in enumerate(graph.edges()):
            u[k] = index[a]
            v[k] = index[b]
        identity = all(label == i for i, label in enumerate(labels))
        return cls.from_edge_arrays(
            len(labels), u, v, labels=None if identity else labels
        )

    def to_graph(self) -> Graph:
        """Convert back to a reference :class:`Graph` (original labels).

        Counted by :func:`object_coercion_count` (and rejected inside
        :func:`forbid_object_coercion` blocks) so compact-native paths
        can prove they never round-trip through the object graph.
        """
        _record_coercion()
        g = Graph(vertices=self._label_iter())
        label = self.label_of
        u, v = self.edge_arrays()
        for a, b in zip(u.tolist(), v.tolist()):
            g.add_edge(label(a), label(b))
        return g

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def label_of(self, i: int) -> Vertex:
        """Return the original label of vertex index ``i``."""
        return self._labels[i] if self._labels is not None else i

    def labels(self) -> list[Vertex]:
        """Return the label table (identity ints when none was given)."""
        if self._labels is not None:
            return list(self._labels)
        return list(range(self.number_of_vertices()))

    def _label_iter(self) -> Iterable[Vertex]:
        return self._labels if self._labels is not None else range(
            self.number_of_vertices()
        )

    def index_of(self, label: Vertex) -> int:
        """Return the vertex index of ``label`` (cached reverse map).

        Raises
        ------
        KeyError
            If ``label`` is not a vertex of the graph.
        """
        if self._labels is None:
            if isinstance(label, (int, np.integer)) and 0 <= label < self.number_of_vertices():
                return int(label)
            raise KeyError(f"vertex {label!r} not in graph")
        if self._label_to_index is None:
            self._label_to_index = {
                lab: i for i, lab in enumerate(self._labels)
            }
        return self._label_to_index[label]

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def number_of_vertices(self) -> int:
        return self._indptr.size - 1

    def number_of_edges(self) -> int:
        return self._indices.size // 2

    def degree(self, i: int) -> int:
        """Degree of vertex index ``i``."""
        return int(self._indptr[i + 1] - self._indptr[i])

    def degrees(self) -> np.ndarray:
        """All degrees as an int64 array."""
        return np.diff(self._indptr)

    def max_degree(self) -> int:
        if self.number_of_vertices() == 0:
            return 0
        return int(self.degrees().max())

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of vertex ``i`` (a read-only view)."""
        return self._indices[self._indptr[i] : self._indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        """Edge test via binary search in the sorted neighbor row."""
        row = self._indices[self._indptr[i] : self._indptr[i + 1]]
        pos = int(np.searchsorted(row, j))
        return pos < row.size and row[pos] == j

    def is_empty(self) -> bool:
        return self._indices.size == 0

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(u, v)`` index arrays, each edge once with ``u < v``."""
        if self._edge_u is None:
            rows = np.repeat(
                np.arange(self.number_of_vertices(), dtype=np.int64),
                self.degrees(),
            )
            mask = self._indices > rows
            self._edge_u = rows[mask]
            self._edge_v = self._indices[mask]
        return self._edge_u, self._edge_v

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Iterate over labelled edges (canonical ``u < v`` index order)."""
        label = self.label_of
        u, v = self.edge_arrays()
        for a, b in zip(u.tolist(), v.tolist()):
            yield (label(a), label(b))

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertex labels in index order."""
        return iter(self._label_iter())

    def vertex_list(self) -> list[Vertex]:
        """Return the vertex labels as a list (index order).

        Mirrors :meth:`Graph.vertex_list` so poset enumeration
        (:mod:`repro.graphs.distance`) runs on either representation.
        """
        return self.labels()

    def induced_subgraph(self, vertex_subset) -> "CompactGraph":
        """Return the compact subgraph induced by ``vertex_subset``.

        ``vertex_subset`` holds vertex *labels*; labels not present in
        the graph are ignored, mirroring :meth:`Graph.induced_subgraph`.
        Kept vertices are reindexed densely in original index order, so
        the result is deterministic regardless of subset iteration
        order.  This is the poset walk ``H ⪯ G`` of Definition 1.4,
        which lets the Theorem A.2 generic estimator run compact-native.
        """
        keep: set[int] = set()
        for label in vertex_subset:
            try:
                keep.add(self.index_of(label))
            except KeyError:
                continue
        keep_idx = np.array(sorted(keep), dtype=np.int64)
        k = int(keep_idx.size)
        u, v = self.edge_arrays()
        mask = _in_sorted(u, keep_idx) & _in_sorted(v, keep_idx)
        new_u = np.searchsorted(keep_idx, u[mask])
        new_v = np.searchsorted(keep_idx, v[mask])
        identity = self._labels is None and (
            k == 0 or (keep_idx[0] == 0 and keep_idx[-1] == k - 1)
        )
        labels = (
            None if identity else [self.label_of(int(i)) for i in keep_idx]
        )
        return CompactGraph.from_edge_arrays(k, new_u, new_v, labels=labels)

    def without_vertex(self, v: Vertex) -> "CompactGraph":
        """Return a copy with vertex label ``v`` removed (its edges too).

        Equivalent to ``induced_subgraph(V - {v})``.
        """
        return self.induced_subgraph(
            label for label in self._label_iter() if label != v
        )

    def __len__(self) -> int:
        return self.number_of_vertices()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactGraph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and self.labels() == other.labels()
        )

    def __repr__(self) -> str:
        return (
            f"CompactGraph(n={self.number_of_vertices()}, "
            f"m={self.number_of_edges()})"
        )

    @property
    def source_path(self) -> Optional[str]:
        """Archive path backing this graph's arrays, or ``None`` in RAM."""
        return self._backing[0] if self._backing is not None else None

    def __getstate__(self) -> dict:
        """Pickle the defining structure — or just a path for file-backed
        graphs.

        In-RAM graphs pickle their CSR arrays + labels; derived memos
        (edge lists, component labels) are dropped — they rebuild on
        demand — so graphs ship cheaply across process boundaries
        (sweep pools, the sharded serve-batch workers).  The memoized
        fingerprint rides along: it is content-derived, and keeping it
        saves the receiving process a full re-hash.

        File-backed graphs (opened via :func:`repro.graphs.store.open_npz`)
        pickle only ``(path, fingerprint)``: the receiving process
        re-opens the archive as a fresh memmap, so N workers share one
        set of OS page-cache pages instead of each receiving a full CSR
        copy over the pipe.  The open validates the stored fingerprint
        against the pickled one and fails loudly if the file changed.
        """
        if self._backing is not None:
            path, fingerprint = self._backing
            return {"path": path, "fingerprint": fingerprint}
        return {
            "indptr": self._indptr,
            "indices": self._indices,
            "labels": self._labels,
            "fingerprint": self._fingerprint,
        }

    def __setstate__(self, state: dict) -> None:
        if "path" in state:
            from .store import open_npz

            opened = open_npz(
                state["path"], expected_fingerprint=state["fingerprint"]
            )
            self.__init__(
                opened._indptr, opened._indices,
                labels=opened._labels, _validate=False,
            )
            self._fingerprint = opened._fingerprint
            self._backing = opened._backing
            return
        # Re-enter through __init__ so the unpickled arrays are frozen
        # again (ndarray writeability does not survive pickling).
        self.__init__(
            state["indptr"], state["indices"],
            labels=state["labels"], _validate=False,
        )
        self._fingerprint = state["fingerprint"]

    def fingerprint(self) -> str:
        """Content hash of the graph structure (hex SHA-256, memoized).

        Two :class:`CompactGraph` instances compare equal iff their
        fingerprints match: the hash covers the CSR arrays and the label
        table (labels enter via ``repr``, so any hashable labels work).
        :class:`repro.service.ReleaseSession` keys its per-graph
        amortization cache on this value, letting content-identical
        graphs materialized independently (e.g. sweep cells sharing a
        graph seed) share one extension table.
        """
        if self._fingerprint is None:
            self._fingerprint = graph_content_fingerprint(
                self._indptr, self._indices, self._labels
            )
        return self._fingerprint

    def component_fingerprints(self) -> dict[int, str]:
        """Content hash per component, keyed by canonical component id.

        Each component is hashed over its canonical local-index arrays
        (the same ``(n, u, v)`` form the extension engine and the LP
        core consume — see :func:`component_fingerprint`), so a
        component untouched by :meth:`apply_edits` keeps the same
        fingerprint across graph versions even though the whole-graph
        :meth:`fingerprint` changes.  The per-component extension cache
        (:mod:`repro.service.cache`) keys on these hashes.  Memoized.
        """
        if self._component_fps is not None:
            return dict(self._component_fps)
        u, v = self.edge_arrays()
        labels = self.component_labels()
        if u.size:
            edge_root = labels[u]
            edge_order = np.argsort(edge_root, kind="stable")
            eu, ev = u[edge_order], v[edge_order]
            sorted_roots = edge_root[edge_order]
            cuts = np.nonzero(np.diff(sorted_roots))[0] + 1
            starts = np.concatenate([[0], cuts, [eu.size]])
            group_roots = sorted_roots[starts[:-1]]
        else:
            group_roots = np.zeros(0, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        fps: dict[int, str] = {}
        for verts in self.component_index_sets():
            root = int(verts[0])
            g = int(np.searchsorted(group_roots, root))
            if g < group_roots.size and int(group_roots[g]) == root:
                lo, hi = int(starts[g]), int(starts[g + 1])
                lu = np.searchsorted(verts, eu[lo:hi])
                lv = np.searchsorted(verts, ev[lo:hi])
                order = np.lexsort((lv, lu))
                fps[root] = component_fingerprint(
                    int(verts.size), lu[order], lv[order]
                )
            else:
                fps[root] = component_fingerprint(int(verts.size), empty, empty)
        self._component_fps = fps
        return dict(fps)

    # ------------------------------------------------------------------
    # Delta updates
    # ------------------------------------------------------------------
    def _edit_keys(self, pairs, kind: str) -> np.ndarray:
        """Canonicalize an edit list to sorted-unique int64 edge keys."""
        n = self.number_of_vertices()
        if isinstance(pairs, np.ndarray):
            arr = np.asarray(pairs, dtype=np.int64)
        else:
            arr = np.array(list(pairs), dtype=np.int64)
        arr = arr.reshape(-1, 2)
        if arr.size == 0:
            return np.empty(0, dtype=np.int64)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"{kind} endpoints must lie in [0, {n})")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError(f"self-loops are not allowed ({kind})")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        return np.unique(lo * np.int64(n) + hi)

    def apply_edits(self, inserts=(), deletes=()) -> EditResult:
        """Apply a batch of edge inserts/deletes, returning the new graph
        plus the set of touched components (old and new component ids).

        The graph itself is immutable: the edited graph is a fresh
        instance with fresh memos (its whole-graph :meth:`fingerprint`
        and :meth:`component_fingerprints` are recomputed from the new
        content, never inherited), and ``self`` is untouched.

        Semantics
        ---------
        * the vertex set is fixed — endpoints must lie in ``[0, n)``;
        * inserts of existing edges and deletes of absent edges are
          idempotent no-ops, excluded from the effective batch and the
          touched sets;
        * an edge appearing in both lists raises :class:`ValueError`
          (the intended final state is ambiguous);
        * ``inserts`` / ``deletes`` are iterables of ``(u, v)`` int
          pairs or ``(k, 2)`` arrays; duplicates within one list
          collapse.

        A component not in ``touched_old`` has identical vertex and
        edge sets in both versions, hence an unchanged component
        fingerprint — the invariant the component-level extension
        cache relies on to reuse its value tables across versions.
        """
        n = self.number_of_vertices()
        ins = self._edit_keys(inserts, "insert")
        dels = self._edit_keys(deletes, "delete")
        if ins.size and dels.size:
            overlap = np.intersect1d(ins, dels, assume_unique=True)
            if overlap.size:
                a, b = divmod(int(overlap[0]), n)
                raise ValueError(
                    f"edge ({a}, {b}) appears in both inserts and deletes"
                )
        u, v = self.edge_arrays()
        old_keys = u * np.int64(n) + v  # u < v rows: sorted, unique
        eff_ins = ins[~_in_sorted(ins, old_keys)]
        eff_del = dels[_in_sorted(dels, old_keys)]
        if not eff_ins.size and not eff_del.size:
            return EditResult(self, frozenset(), frozenset(), 0, 0)
        new_keys = np.union1d(
            np.setdiff1d(old_keys, eff_del, assume_unique=True), eff_ins
        )
        graph = CompactGraph.from_edge_arrays(
            n, new_keys // n, new_keys % n, labels=self._labels
        )
        changed = np.concatenate([eff_ins, eff_del])
        verts = np.unique(np.concatenate([changed // n, changed % n]))
        return EditResult(
            graph,
            frozenset(self.component_labels()[verts].tolist()),
            frozenset(graph.component_labels()[verts].tolist()),
            int(eff_ins.size),
            int(eff_del.size),
        )

    # ------------------------------------------------------------------
    # Connected components (array union-find, Shiloach–Vishkin style)
    # ------------------------------------------------------------------
    def component_labels(self) -> np.ndarray:
        """Return an array mapping each vertex index to its component's
        minimum vertex index (the canonical component id).

        Computed by :func:`repro.kernels.connected_component_labels`, a
        vectorized hook-and-compress union-find (Shiloach–Vishkin style,
        O(log n) rounds of O(n + m) array ops); cached on the graph.
        """
        if self._component_labels is not None:
            return self._component_labels
        from .. import kernels

        u, v = self.edge_arrays()
        parent = kernels.connected_component_labels(
            self.number_of_vertices(), u, v
        )
        self._component_labels = parent
        return parent

    def number_of_connected_components(self) -> int:
        """``f_cc(G)`` -- the number of connected components."""
        n = self.number_of_vertices()
        if n == 0:
            return 0
        labels = self.component_labels()
        # Labels are fully compressed: roots are exactly the fixed points.
        return int(np.count_nonzero(labels == np.arange(n, dtype=np.int64)))

    f_cc = number_of_connected_components

    def spanning_forest_size(self) -> int:
        """``f_sf(G) = |V| - f_cc(G)`` (Equation (1) of the paper)."""
        return self.number_of_vertices() - self.number_of_connected_components()

    f_sf = spanning_forest_size

    def is_connected(self) -> bool:
        """True when the graph has at most one component (empty counts)."""
        return self.number_of_connected_components() <= 1

    def component_index_sets(self) -> list[np.ndarray]:
        """Component vertex-index arrays, ordered by minimum index."""
        n = self.number_of_vertices()
        if n == 0:
            return []
        roots = self.component_labels()
        order = np.argsort(roots, kind="stable")
        boundaries = np.nonzero(np.diff(roots[order]))[0] + 1
        return np.split(order, boundaries)

    def component_sets(self) -> list[set[Vertex]]:
        """Components as sets of labels (reference-compatible output)."""
        label = self.label_of
        return [
            {label(i) for i in part.tolist()}
            for part in self.component_index_sets()
        ]

    def component_of_index(self, i: int) -> np.ndarray:
        """Indices of the component containing vertex index ``i``."""
        roots = self.component_labels()
        return np.nonzero(roots == roots[i])[0]

    # ------------------------------------------------------------------
    # Spanning forests (vectorized Borůvka)
    # ------------------------------------------------------------------
    def spanning_forest_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(u, v)`` arrays of a spanning forest's edges.

        Vectorized Borůvka with edge ids as (distinct) weights: each
        round every component picks its minimum-id incident cross edge;
        by the cut property those edges all belong to the unique
        minimum spanning forest under id-weights, so the accumulated
        selection is acyclic and finishes with exactly ``f_sf(G)``
        edges.  O(log n) rounds of O(n + m) array work.
        """
        n = self.number_of_vertices()
        u, v = self.edge_arrays()
        m = u.size
        chosen = np.zeros(m, dtype=bool)
        if m == 0:
            return u, v
        comp = np.arange(n, dtype=np.int64)
        edge_ids = np.arange(m, dtype=np.int64)
        while True:
            cu, cv = comp[u], comp[v]
            cross = cu != cv
            if not cross.any():
                break
            ids = edge_ids[cross]
            best = np.full(n, m, dtype=np.int64)
            np.minimum.at(best, cu[cross], ids)
            np.minimum.at(best, cv[cross], ids)
            selected = np.unique(best[best < m])
            chosen[selected] = True
            # Merge the endpoint components of the selected edges.
            parent = np.arange(n, dtype=np.int64)
            pu, pv = comp[u[selected]], comp[v[selected]]
            np.minimum.at(
                parent, np.maximum(pu, pv), np.minimum(pu, pv)
            )
            while True:
                grandparent = parent[parent]
                if np.array_equal(grandparent, parent):
                    break
                parent = grandparent
            comp = parent[comp]
        return u[chosen], v[chosen]

    def spanning_forest(self) -> "CompactGraph":
        """Return a spanning forest as a :class:`CompactGraph` on the
        same vertex set (and labels)."""
        fu, fv = self.spanning_forest_edges()
        return CompactGraph.from_edge_arrays(
            self.number_of_vertices(), fu, fv, labels=self._labels
        )

    def is_forest(self) -> bool:
        """Acyclicity check: a graph is a forest iff ``m = n - f_cc``."""
        return self.number_of_edges() == self.spanning_forest_size()

    # ------------------------------------------------------------------
    # Degree-bounded spanning forests (Algorithm 3, int-indexed port)
    # ------------------------------------------------------------------
    def _leaf_elimination_order(self) -> list[int]:
        """Peel leaves of a spanning forest (smallest index first), as in
        :func:`repro.graphs.forests.leaf_elimination_order`."""
        n = self.number_of_vertices()
        fu, fv = self.spanning_forest_edges()
        degree = np.bincount(
            np.concatenate([fu, fv]), minlength=n
        ).astype(np.int64)
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for a, b in zip(fu.tolist(), fv.tolist()):
            adjacency[a].add(b)
            adjacency[b].add(a)
        heap = [v for v in range(n) if degree[v] <= 1]
        heapq.heapify(heap)
        removed = np.zeros(n, dtype=bool)
        order: list[int] = []
        while heap:
            v = heapq.heappop(heap)
            if removed[v] or degree[v] > 1:
                continue
            removed[v] = True
            order.append(v)
            for w in adjacency[v]:
                if removed[w]:
                    continue
                adjacency[w].discard(v)
                degree[w] -= 1
                if degree[w] <= 1:
                    heapq.heappush(heap, w)
        if len(order) != n:
            raise RuntimeError("leaf elimination failed to exhaust the graph")
        return order

    def repair_spanning_forest(self, delta: int) -> CompactRepairResult:
        """Algorithm 3 on the compact representation.

        Same invariants as the reference implementation (Lemma 1.8):
        succeeds whenever ``s(G) < delta``; on failure returns an
        explicit induced delta-star certificate (labelled).  Iterative
        rather than vectorized -- the win over the reference comes from
        int indexing and binary-searched edge tests.
        """
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        n = self.number_of_vertices()
        if delta == 0:
            if self.is_empty():
                empty = CompactGraph.from_edge_arrays(
                    n, np.empty(0, np.int64), np.empty(0, np.int64),
                    labels=self._labels,
                )
                return CompactRepairResult(empty, None, 0)
            return CompactRepairResult(None, None, 0)

        insertion_order = list(reversed(self._leaf_elimination_order()))
        inserted = np.zeros(n, dtype=bool)
        inserted_count = 0
        forest_adj: list[set[int]] = [set() for _ in range(n)]
        repair_count = 0

        for v0 in insertion_order:
            inserted[v0] = True
            inserted_count += 1
            candidates = [
                int(u) for u in self.neighbors(v0) if inserted[u]
            ]
            if not candidates:
                continue
            v1 = min(candidates)
            forest_adj[v0].add(v1)
            forest_adj[v1].add(v0)

            # Local repair walk (Claim 4.1 bounds its length).
            prev, current = v0, v1
            max_iterations = inserted_count + 1
            for _ in range(max_iterations):
                if len(forest_adj[current]) <= delta:
                    break
                neighborhood = sorted(forest_adj[current] - {prev})[:delta]
                pair = self._find_adjacent_pair(neighborhood)
                if pair is None:
                    label = self.label_of
                    return CompactRepairResult(
                        None,
                        (
                            label(current),
                            tuple(label(w) for w in neighborhood),
                        ),
                        repair_count,
                    )
                a, b = pair
                forest_adj[current].discard(b)
                forest_adj[b].discard(current)
                forest_adj[a].add(b)
                forest_adj[b].add(a)
                repair_count += 1
                prev, current = current, a
            else:  # pragma: no cover - guarded by Claim 4.1
                raise RuntimeError("local repair walk did not terminate")

        fu = [a for a in range(n) for b in forest_adj[a] if a < b]
        fv = [b for a in range(n) for b in forest_adj[a] if a < b]
        forest = CompactGraph.from_edge_arrays(
            n,
            np.array(fu, dtype=np.int64),
            np.array(fv, dtype=np.int64),
            labels=self._labels,
        )
        return CompactRepairResult(forest, None, repair_count)

    def _find_adjacent_pair(
        self, vertices: list[int]
    ) -> Optional[tuple[int, int]]:
        for a, b in combinations(vertices, 2):
            if self.has_edge(a, b):
                return a, b
        return None

    def spanning_forest_with_max_degree(
        self, delta: int
    ) -> Optional["CompactGraph"]:
        """Spanning delta-forest, or ``None`` when Algorithm 3 fails."""
        return self.repair_spanning_forest(delta).forest

    # ------------------------------------------------------------------
    # Star number (exact + bounds)
    # ------------------------------------------------------------------
    def _neighborhood_adjacency(self, i: int) -> dict[int, set[int]]:
        """Adjacency of the subgraph induced by ``N(i)`` (sorted-array
        intersections against the CSR rows)."""
        hood = self.neighbors(i)
        return {
            int(u): {
                int(w)
                for w in np.intersect1d(
                    self.neighbors(int(u)), hood, assume_unique=True
                ).tolist()
            }
            for u in hood.tolist()
        }

    def star_number(self) -> int:
        """``s(G)`` exactly: max over vertices of the independence number
        of the induced neighborhood (branch-and-bound per neighborhood).

        Vertices are visited in decreasing-degree order so the
        ``degree <= best`` cutoff prunes as early as possible.
        """
        best = 0
        degs = self.degrees()
        for i in np.argsort(-degs, kind="stable").tolist():
            if degs[i] <= best:
                break
            best = max(best, len(mis_of_adjacency(self._neighborhood_adjacency(i))))
        return best

    def find_max_induced_star(
        self,
    ) -> Optional[tuple[Vertex, frozenset[Vertex]]]:
        """Labelled ``(center, leaves)`` of a maximum induced star, or
        ``None`` for an edgeless graph."""
        best: Optional[tuple[int, set[int]]] = None
        best_size = 0
        degs = self.degrees()
        for i in np.argsort(-degs, kind="stable").tolist():
            if degs[i] <= best_size:
                break
            leaves = mis_of_adjacency(self._neighborhood_adjacency(i))
            if len(leaves) > best_size:
                best_size = len(leaves)
                best = (i, leaves)
        if best is None:
            return None
        label = self.label_of
        return label(best[0]), frozenset(label(w) for w in best[1])

    def star_number_lower_bound(self) -> int:
        """Greedy lower bound on ``s(G)`` (independent subset of each
        neighborhood in index order)."""
        best = 0
        degs = self.degrees()
        for i in range(self.number_of_vertices()):
            if degs[i] <= best:
                continue
            picked: set[int] = set()
            for u in self.neighbors(i).tolist():
                if picked.isdisjoint(self.neighbors(u).tolist()):
                    picked.add(u)
            best = max(best, len(picked))
        return best

    def star_number_upper_bound(self) -> int:
        """Matching-based upper bound on ``s(G)``: per neighborhood
        ``H = G[N(v)]``, ``alpha(H) <= |V(H)| - |M|`` for any matching
        ``M`` (greedy maximal, index order)."""
        best = 0
        degs = self.degrees()
        for i in range(self.number_of_vertices()):
            degree = int(degs[i])
            if degree <= best:
                continue
            hood = self.neighbors(i)
            members = set(hood.tolist())
            matched: set[int] = set()
            matching_size = 0
            for u in hood.tolist():
                if u in matched:
                    continue
                for w in self.neighbors(u).tolist():
                    if w in members and w not in matched and w != u:
                        matched.add(u)
                        matched.add(w)
                        matching_size += 1
                        break
            best = max(best, degree - matching_size)
        return best

    def max_independent_set(self) -> set[Vertex]:
        """Exact maximum independent set of the whole graph (labelled);
        exponential worst case, meant for modest instances."""
        adjacency = {
            i: set(self.neighbors(i).tolist())
            for i in range(self.number_of_vertices())
        }
        label = self.label_of
        return {label(i) for i in mis_of_adjacency(adjacency)}


def as_compact(graph: "Graph | CompactGraph") -> CompactGraph:
    """Coerce either graph representation to :class:`CompactGraph`."""
    if isinstance(graph, CompactGraph):
        return graph
    return CompactGraph.from_graph(graph)


def as_object_graph(graph: "Graph | CompactGraph") -> Graph:
    """Coerce either graph representation to the reference :class:`Graph`."""
    if isinstance(graph, CompactGraph):
        return graph.to_graph()
    return graph
