"""Compact-native private pipeline: coercion guards and agreement
between compact and object-graph inputs.

The contract of the compact pipeline:

* ``PrivateConnectedComponents``/``PrivateSpanningForestSize`` run end
  to end on a :class:`CompactGraph` with **zero** object-graph coercion
  (hard-guarded via :func:`forbid_object_coercion`);
* an object-graph input is converted to a ``CompactGraph`` once, so for
  the same seed the compact and object inputs release **bit-identical**
  values — same GEM scores, same Δ̂, same extension value, same noisy
  release — and a direct release equals a ``ReleaseSession`` release.
"""

import numpy as np
import pytest

from repro.core.algorithm import (
    PrivateConnectedComponents,
    PrivateSpanningForestSize,
)
from repro.core.extension import (
    CompactSpanningForestExtension,
    extension_for,
)
from repro.estimators import create
from repro.graphs.compact import (
    CompactGraph,
    forbid_object_coercion,
    object_coercion_count,
)
from repro.graphs.generators import (
    erdos_renyi,
    erdos_renyi_compact,
    grid_graph_compact,
    planted_components,
    planted_components_compact,
    random_geometric_graph_compact,
    stochastic_block_model_compact,
    barabasi_albert_compact,
)
from repro.graphs.graph import Graph
from repro.mechanisms.gem import power_of_two_grid
from repro.service import ReleaseSession


def _compact_workloads():
    rng = np.random.default_rng(20230413)
    yield "er-sparse", erdos_renyi_compact(240, 0.8 / 240, rng)
    yield "er-denser", erdos_renyi_compact(90, 2.0 / 90, rng)
    yield "grid", grid_graph_compact(7, 8)
    yield "planted", planted_components_compact([12, 9, 5, 1], 0.25, rng)
    yield "geometric", random_geometric_graph_compact(120, 0.07, rng)
    yield "sbm", stochastic_block_model_compact(
        [30, 25, 20], [[0.08, 0.004, 0.004], [0.004, 0.08, 0.004],
                       [0.004, 0.004, 0.08]], rng
    )
    yield "ba", barabasi_albert_compact(60, 2, rng)


class TestZeroCoercion:
    def test_end_to_end_release_is_compact_native(self):
        rng = np.random.default_rng(11)
        graph = erdos_renyi_compact(3000, 0.5 / 3000, rng)
        estimator = PrivateConnectedComponents(epsilon=1.0)
        before = object_coercion_count()
        with forbid_object_coercion():
            release = estimator.release(graph, np.random.default_rng(0))
        assert object_coercion_count() == before
        assert np.isfinite(release.value)
        grid = [float(c) for c in power_of_two_grid(3000)]
        assert release.spanning_forest.delta_hat in grid

    def test_spanning_forest_release_compact_native(self):
        rng = np.random.default_rng(13)
        graph = planted_components_compact([40, 30, 20], 0.15, rng)
        with forbid_object_coercion():
            release = PrivateSpanningForestSize(epsilon=2.0).release(
                graph, np.random.default_rng(1)
            )
        assert release.true_value == graph.spanning_forest_size()

    def test_guard_actually_fires(self):
        graph = grid_graph_compact(3, 3)
        with forbid_object_coercion():
            with pytest.raises(RuntimeError, match="coerced"):
                graph.to_graph()

    def test_counter_increments_on_conversion(self):
        graph = grid_graph_compact(2, 2)
        before = object_coercion_count()
        graph.to_graph()
        assert object_coercion_count() == before + 1


class TestDifferentialReleases:
    @pytest.mark.parametrize(
        "name,compact", list(_compact_workloads()), ids=lambda w: w if isinstance(w, str) else ""
    )
    def test_bit_identical_releases(self, name, compact):
        reference = compact.to_graph()
        seed = np.random.SeedSequence(99)
        compact_release = PrivateConnectedComponents(epsilon=1.0).release(
            compact, np.random.default_rng(seed)
        )
        object_release = PrivateConnectedComponents(epsilon=1.0).release(
            reference, np.random.default_rng(seed)
        )
        sf_c = compact_release.spanning_forest
        sf_o = object_release.spanning_forest
        assert sf_c.gem.q_values == sf_o.gem.q_values
        assert sf_c.gem.probabilities == sf_o.gem.probabilities
        assert sf_c.delta_hat == sf_o.delta_hat
        assert sf_c.extension_value == sf_o.extension_value
        assert compact_release.value == object_release.value
        assert compact_release.true_value == object_release.true_value

    def test_repeated_releases_reuse_extension_cache(self):
        rng = np.random.default_rng(5)
        compact = erdos_renyi_compact(150, 1.0 / 150, rng)
        estimator = PrivateConnectedComponents(epsilon=1.0)
        release_rng = np.random.default_rng(2)
        first = estimator.release(compact, release_rng)
        second = estimator.release(compact, release_rng)
        # Same true value, different noise draws.
        assert first.true_value == second.true_value
        assert first.value != second.value


class TestCompactExtension:
    def _graph_pair(self):
        rng = np.random.default_rng(23)
        compact = erdos_renyi_compact(200, 1.3 / 200, rng)
        return compact, compact.to_graph()

    def test_value_parity_with_object_extension(self):
        compact, reference = self._graph_pair()
        ce = CompactSpanningForestExtension(compact)
        oe = extension_for(reference)
        for delta in (1, 2, 2.5, 4, 8, 32, 128):
            assert ce.value(delta) == oe.value(delta)

    def test_grid_pass_matches_single_values(self):
        compact, _ = self._graph_pair()
        ext = CompactSpanningForestExtension(compact)
        candidates = power_of_two_grid(200)
        grid_values = ext.values_for_grid(candidates)
        fresh = CompactSpanningForestExtension(compact)
        for c, value in zip(candidates, grid_values):
            assert fresh.value(c) == value

    def test_lemma_3_3_shape(self):
        compact, _ = self._graph_pair()
        ext = CompactSpanningForestExtension(compact)
        candidates = power_of_two_grid(200)
        values = ext.values_for_grid(candidates)
        # Underestimation and monotonicity in delta.
        assert all(v <= ext.true_value + 1e-9 for v in values)
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        # Exact once delta dominates the max degree.
        maxdeg = compact.max_degree()
        for c, v in zip(candidates, values):
            if c >= maxdeg:
                assert v == pytest.approx(ext.true_value)

    def test_edgeless_graph(self):
        compact = CompactGraph.from_edge_arrays(
            5, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        ext = CompactSpanningForestExtension(compact)
        assert ext.true_value == 0
        assert ext.value(1) == 0.0
        assert ext.gap(1) == 0.0

    def test_extension_for_dispatch(self):
        compact, reference = self._graph_pair()
        assert isinstance(
            extension_for(compact), CompactSpanningForestExtension
        )
        converted = extension_for(reference)
        assert isinstance(converted, CompactSpanningForestExtension)
        assert converted.graph == compact

    def test_evaluated_deltas_cache(self):
        compact, _ = self._graph_pair()
        ext = CompactSpanningForestExtension(compact)
        ext.value(2)
        ext.value(2)
        ext.value(4)
        assert ext.evaluated_deltas() == [2.0, 4.0]

    def test_invalid_delta_rejected(self):
        compact, _ = self._graph_pair()
        with pytest.raises(ValueError, match="positive"):
            CompactSpanningForestExtension(compact).value(0)


def _string_labelled_shuffled(n: int, c: float, seed: int) -> Graph:
    """G(n, c/n) relabelled ``v<i>``, vertices inserted in shuffled order."""
    base = erdos_renyi(n, c / n, np.random.default_rng(seed))
    graph = Graph()
    for i in np.random.default_rng(seed + 1).permutation(n).tolist():
        graph.add_vertex(f"v{i}")
    for a, b in base.edges():
        graph.add_edge(f"v{a}", f"v{b}")
    return graph


class TestSingleConversion:
    """An object graph is converted to a CompactGraph once, on every
    entry point, and then runs the compact pipeline."""

    @pytest.mark.parametrize("name", ["sf", "cc"])
    def test_direct_release_equals_session_release(self, name):
        # Insertion order differs from sorted label order, so the LP
        # arrays depend on how the graph is numbered: numbering this
        # instance by sorted label moves the sf release by 3.6e-15.
        graph = _string_labelled_shuffled(20, 3.0, 13)
        direct = create(name, epsilon=1.0).release(graph, np.random.default_rng(7))
        served = ReleaseSession().query(name, 1.0, graph=graph, seed=7)
        assert direct.value == served.value
        assert direct.delta_hat == served.delta_hat

    def test_repeated_releases_convert_and_prepare_once(self, monkeypatch):
        calls = {"convert": 0, "prepare": 0}
        from_graph = CompactGraph.from_graph
        prepare = CompactSpanningForestExtension._prepare

        def counting_from_graph(graph):
            calls["convert"] += 1
            return from_graph(graph)

        def counting_prepare(self):
            calls["prepare"] += 1
            prepare(self)

        monkeypatch.setattr(
            CompactGraph, "from_graph", staticmethod(counting_from_graph)
        )
        monkeypatch.setattr(
            CompactSpanningForestExtension, "_prepare", counting_prepare
        )
        graph = planted_components([8, 8, 8], 0.4, np.random.default_rng(3))
        estimator = PrivateConnectedComponents(epsilon=1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            estimator.release(graph, rng)
        assert calls == {"convert": 1, "prepare": 1}
