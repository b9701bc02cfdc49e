"""The arrays the forest-LP core hands HiGHS and ``maximum_flow``.

The cutting plane builds its model columns, its forest rows and the
oracle's flow networks from plain arrays.  Each must equal, element for
element, what the scipy.sparse construction it replaced produced, so
the solvers see the same input and every released float stays put.
The reference constructions below are those replaced ones, kept here
verbatim in substance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from repro.lp import forest_core

from .strategies import graph_arrays, small_graphs
from .test_forest_core import _giant_component_corpus
from .test_separation import X_FAMILIES


def reference_forest_rows(sets, u, v, n):
    """The forest rows as a ``csr_matrix`` built from COO triplets."""
    rows, cols = [], []
    rhs = np.empty(len(sets))
    for i, subset in enumerate(sets):
        rhs[i] = len(subset) - 1
        member = np.zeros(n, dtype=bool)
        member[list(subset)] = True
        inside = np.nonzero(member[u] & member[v])[0]
        rows.append(np.full(inside.size, i, dtype=np.int64))
        cols.append(inside)
    all_rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    all_cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    matrix = sparse.csr_matrix(
        (np.ones(all_rows.size), (all_rows, all_cols)), shape=(len(sets), u.size)
    )
    return matrix, rhs


def reference_plane_matrix(n, u, v):
    """The degree rows stacked over the whole-vertex-set row, as CSC."""
    m = u.size
    cols = np.arange(m, dtype=np.int64)
    degree_matrix = sparse.csr_matrix(
        (np.ones(2 * m), (np.concatenate([u, v]), np.concatenate([cols, cols]))),
        shape=(n, m),
    )
    whole_row, _ = reference_forest_rows([frozenset(range(n))], u, v, n)
    return sparse.csc_array(sparse.vstack([degree_matrix, whole_row]))


def reference_flow_network(batch, scale):
    """The batched pinned network built as COO, then converted to CSR."""
    widths = [comp.x.size + comp.verts.size for comp, _, _ in batch]
    copies = [hi - lo for _, lo, hi in batch]
    starts = np.cumsum([1] + [w * k for w, k in zip(widths, copies)])
    sink = int(starts[-1])
    tails, heads, caps = [], [], []
    for (comp, lo, hi), width, start in zip(batch, widths, starts):
        m, k = comp.x.size, hi - lo
        bases = start + width * np.arange(k)[:, None]
        edge_nodes, vertex_nodes = bases + np.arange(m), bases + m
        unpinned = np.ones((k, comp.verts.size), dtype=bool)
        unpinned[np.arange(k), np.arange(lo, hi)] = False
        tails += [np.zeros(k * m, dtype=np.int64), edge_nodes, edge_nodes]
        heads += [edge_nodes, vertex_nodes + comp.a, vertex_nodes + comp.b]
        caps += [np.tile(comp.cap, k), np.full(2 * k * m, forest_core._CAPACITY_SCALE)]
        tails.append((vertex_nodes + np.arange(comp.verts.size))[unpinned])
        heads.append(np.full(tails[-1].size, sink))
        caps.append(np.full(tails[-1].size, scale))
    rows = np.concatenate([t.ravel() for t in tails])
    cols = np.concatenate([h.ravel() for h in heads])
    return sparse.coo_array(
        (np.concatenate(caps), (rows, cols)), shape=(sink + 1, sink + 1)
    ).tocsr()


def reference_residual_reach(capacity, flow):
    residual = capacity - flow > 0
    reached = np.zeros(capacity.shape[0], dtype=bool)
    reached[breadth_first_order(residual, 0, return_predecessors=False)] = True
    return reached


def _assert_same_csr(ours, reference):
    assert ours.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ours, name), getattr(reference, name)), name
    assert ours.data.dtype == reference.data.dtype


class _Recorder:
    """Wrap ``_flow_network``, ``_residual_reach`` and ``_forest_rows``
    and check every call against its reference as it happens."""

    def __init__(self):
        self.networks = self.reaches = self.rows = 0

    def flow_network(self, batch, scale, starts):
        ours = self._flow_network(batch, scale, starts)
        _assert_same_csr(ours, reference_flow_network(batch, scale))
        self.networks += 1
        return ours

    def residual_reach(self, capacity, flow):
        ours = self._residual_reach(capacity, flow)
        assert np.array_equal(ours, reference_residual_reach(capacity, flow))
        self.reaches += 1
        return ours

    def forest_rows(self, sets, u, v, n):
        indptr, indices, rhs = self._forest_rows(sets, u, v, n)
        matrix, reference_rhs = reference_forest_rows(sets, u, v, n)
        assert indptr.dtype == indices.dtype == np.int32
        assert np.array_equal(indptr, matrix.indptr.astype(np.int32))
        assert np.array_equal(indices, matrix.indices.astype(np.int32))
        assert np.array_equal(matrix.data, np.ones(indices.size))
        assert rhs.tobytes() == reference_rhs.tobytes()
        self.rows += 1
        return indptr, indices, rhs

    def __enter__(self):
        self._flow_network = forest_core._flow_network
        self._residual_reach = forest_core._residual_reach
        self._forest_rows = forest_core._forest_rows
        self._patches = [
            mock.patch.object(forest_core, "_flow_network", self.flow_network),
            mock.patch.object(forest_core, "_residual_reach", self.residual_reach),
            mock.patch.object(forest_core, "_forest_rows", self.forest_rows),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.stop()


def _assert_plane_columns(n, u, v):
    ours = forest_core._plane_columns(n, u, v)
    reference = reference_plane_matrix(n, u, v)
    assert reference.shape == (n + 1, u.size)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ours, name), getattr(reference, name)), name


GIANT_CORPUS = _giant_component_corpus(seed=1, count=20)


class TestSameArrays:
    def test_plane_columns_on_the_giant_corpus(self):
        for n, u, v in GIANT_CORPUS:
            _assert_plane_columns(n, u, v)

    @pytest.mark.parametrize("delta", [2, 3])
    def test_cutting_plane_rows_and_flows_on_the_giant_corpus(self, delta):
        with _Recorder() as recorder:
            for n, u, v in GIANT_CORPUS:
                forest_core.cutting_plane_component(n, u, v, delta, 1e-7, 12)
        assert recorder.rows >= 5
        assert recorder.networks == recorder.reaches >= 5

    @pytest.mark.parametrize("family", sorted(X_FAMILIES))
    def test_oracle_flows_on_the_giant_corpus(self, family):
        rng = np.random.default_rng(sorted(X_FAMILIES).index(family))
        with _Recorder() as recorder:
            for n, u, v in GIANT_CORPUS[:6]:
                sets = forest_core.violated_forest_sets(
                    n, u, v, X_FAMILIES[family](rng, u.size)
                )
                forest_core._forest_rows(sets, u, v, n)
        assert recorder.networks == recorder.reaches >= 6

    @given(
        small_graphs(min_vertices=2, max_vertices=8),
        st.sampled_from(sorted(X_FAMILIES)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150)
    def test_same_arrays_on_small_graphs(self, g, family, seed):
        n, u, v = graph_arrays(g)
        _assert_plane_columns(n, u, v)
        x = X_FAMILIES[family](np.random.default_rng(seed), u.size)
        with _Recorder() as recorder:
            sets = forest_core.violated_forest_sets(n, u, v, x)
            forest_core._forest_rows(sets, u, v, n)
        assert recorder.networks == recorder.reaches


# ``solve_component(n, u, v, 2)`` on ``_giant_component_corpus(seed=1,
# count=20)``: (n, float.hex of f_2, cutting-plane rounds).  Any change
# that moves one bit of a value or a round count fails here.  Exact
# rational certificates ("Exact rational certificates for every LP
# value" in ROADMAP.md) will move these floats by design; update the
# table then, together with a ``repro.__version__`` bump.
GOLDEN_DELTA_2 = [
    (46, "0x1.5000000000000p+5", 1),
    (56, "0x1.8000000000000p+5", 1),
    (45, "0x1.5000000000000p+5", 1),
    (53, "0x1.7000000000000p+5", 1),
    (53, "0x1.8c00000000000p+5", 1),
    (41, "0x1.1800000000000p+5", 3),
    (59, "0x1.a800000000000p+5", 1),
    (53, "0x1.8400000000000p+5", 1),
    (46, "0x1.4800000000000p+5", 1),
    (54, "0x1.7400000000000p+5", 1),
    (46, "0x1.4800000000000p+5", 2),
    (48, "0x1.4800000000000p+5", 1),
    (54, "0x1.7000000000000p+5", 1),
    (52, "0x1.6000000000000p+5", 1),
    (50, "0x1.6800000000000p+5", 1),
    (40, "0x1.2000000000000p+5", 2),
    (48, "0x1.6400000000000p+5", 2),
    (46, "0x1.3c00000000000p+5", 1),
    (57, "0x1.9400000000000p+5", 1),
    (45, "0x1.3000000000000p+5", 3),
]


def test_giant_corpus_delta_2_golden_table():
    forest_core.clear_solve_cache()
    table = []
    for n, u, v in GIANT_CORPUS:
        result = forest_core.solve_component(n, u, v, 2)
        assert result.status == "exact"
        table.append((n, result.value.hex(), result.lp_rounds))
    assert table == GOLDEN_DELTA_2
