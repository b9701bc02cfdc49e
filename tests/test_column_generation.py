"""Tests for the Dantzig–Wolfe column-generation solver
(:func:`repro.lp.forest_core.column_generation_component`) and its
Kruskal pricing kernel (:func:`repro.kernels.max_weight_forest`)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.graphs.union_find import UnionFind
from repro.lp.forest_core import (
    column_generation_component,
    exhaustive_component_value,
)

from .strategies import canonical_components, graph_arrays, small_graphs_with_edge


class TestMaxWeightForest:
    def test_takes_positive_only(self):
        n, u, v = graph_arrays(path_graph(3))
        chosen, total = kernels.max_weight_forest(n, u, v, np.array([1.0, -0.5]))
        assert chosen == [0]
        assert total == 1.0

    def test_avoids_cycles(self):
        n, u, v = graph_arrays(complete_graph(3))
        chosen, total = kernels.max_weight_forest(n, u, v, np.ones(3))
        assert len(chosen) == 2
        assert total == 2.0

    def test_greedy_is_optimal_on_matroid(self):
        """Compare against brute force over all forests on small graphs."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            n, u, v = graph_arrays(erdos_renyi(6, 0.5, rng))
            if not u.size:
                continue
            weights = rng.normal(size=u.size)
            _, greedy_total = kernels.max_weight_forest(n, u, v, weights)
            best = 0.0
            for k in range(1, u.size + 1):
                for subset in combinations(range(u.size), k):
                    uf = UnionFind(range(n))
                    if all(uf.union(int(u[j]), int(v[j])) for j in subset):
                        best = max(best, float(weights[list(subset)].sum()))
            assert greedy_total == pytest.approx(best, abs=1e-9)


class TestColumnGeneration:
    def test_star_values(self):
        n, u, v = graph_arrays(star_graph(5))
        for delta in (1, 2, 3):
            result = column_generation_component(n, u, v, delta)
            assert result.gap <= 1e-6
            assert result.value == pytest.approx(float(delta), abs=1e-6)

    def test_triangle_fractional(self):
        result = column_generation_component(*graph_arrays(complete_graph(3)), 1)
        assert result.value == pytest.approx(1.5, abs=1e-6)
        assert result.gap <= 1e-6

    def test_edgeless(self):
        empty = np.zeros(0, dtype=np.int64)
        assert column_generation_component(3, empty, empty, 1).value == 0.0

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            column_generation_component(*graph_arrays(path_graph(2)), 0)

    def test_mixture_is_feasible(self):
        n, u, v = graph_arrays(cycle_graph(5))
        result = column_generation_component(n, u, v, 2)
        assert result.x.min() >= -1e-9
        load = np.bincount(u, result.x, n) + np.bincount(v, result.x, n)
        assert load.max() <= 2 + 1e-6
        assert result.x.sum() == pytest.approx(result.value, abs=1e-6)

    def test_external_upper_bound_tightens(self):
        n, u, v = graph_arrays(complete_graph(4))
        exact = exhaustive_component_value(n, u, v, 1).value
        result = column_generation_component(
            n, u, v, 1, external_upper_bound=exact
        )
        assert result.value + result.gap <= exact + 1e-9
        assert result.value == pytest.approx(exact, abs=1e-6)

    @given(small_graphs_with_edge(max_vertices=7), st.integers(1, 4))
    @settings(max_examples=40)
    def test_agrees_with_exhaustive(self, g, delta):
        """CG and the exhaustive exact LP agree on small graphs."""
        for n, u, v in canonical_components(g):
            exact = exhaustive_component_value(n, u, v, delta).value
            cg = column_generation_component(n, u, v, delta)
            assert cg.value <= exact + 1e-6  # feasible lower bound
            if cg.gap <= 1e-6:
                assert cg.value == pytest.approx(exact, abs=1e-5)

    def test_iteration_cap_returns_certified(self):
        n, u, v = graph_arrays(complete_graph(8))
        exact = exhaustive_component_value(n, u, v, 2).value
        result = column_generation_component(n, u, v, 2, max_iterations=2)
        assert result.lp_rounds <= 2
        assert result.gap >= 0.0
        # The certified window [value, value + gap] holds the optimum.
        assert result.value <= exact + 1e-6
        assert result.value + result.gap >= exact - 1e-6
