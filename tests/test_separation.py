"""Tests for the Padberg–Wolsey separation oracle
(:func:`repro.lp.forest_core.violated_forest_sets`)."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

import numpy as np

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    star_graph,
)
from repro.lp.forest_core import violated_forest_sets

from .strategies import graph_arrays, small_graphs_with_edge


def _violation(u, v, x, subset) -> float:
    """``x(E[S]) − (|S| − 1)`` for the vertex set ``subset``."""
    inside = sum(
        float(w)
        for a, b, w in zip(u.tolist(), v.tolist(), x.tolist())
        if a in subset and b in subset
    )
    return inside - (len(subset) - 1)


def _brute_force_most_violated(n, u, v, x) -> float:
    """Reference: maximize x(E[S]) - |S| + 1 over all S with |S| >= 2."""
    return max(
        _violation(u, v, x, frozenset(subset))
        for k in range(2, n + 1)
        for subset in combinations(range(n), k)
    )


class TestOracleFindsViolations:
    def test_full_cycle_weight(self):
        n, u, v = graph_arrays(cycle_graph(4))
        x = np.ones(u.size)
        violated = violated_forest_sets(n, u, v, x)
        assert violated
        for subset in violated:
            assert _violation(u, v, x, subset) > 0

    def test_valid_point_certified(self):
        # A spanning tree indicator is inside the forest polytope.
        n, u, v = graph_arrays(complete_graph(4))
        x = (u == 0).astype(float)
        assert violated_forest_sets(n, u, v, x) == []

    def test_fractional_violation(self):
        n, u, v = graph_arrays(complete_graph(3))
        violated = violated_forest_sets(n, u, v, np.full(3, 0.9))  # 2.7 > 2
        assert violated
        assert frozenset([0, 1, 2]) in violated

    def test_fractional_feasible(self):
        n, u, v = graph_arrays(complete_graph(3))
        x = np.full(3, 2.0 / 3.0)  # sum = 2 = |S|-1, tight
        assert violated_forest_sets(n, u, v, x) == []

    def test_zero_vector(self):
        n, u, v = graph_arrays(star_graph(5))
        assert violated_forest_sets(n, u, v, np.zeros(u.size)) == []

    def test_max_sets_cap(self):
        # Many disjoint overweight triangles.
        n, u, v = graph_arrays(disjoint_union([complete_graph(3)] * 5))
        violated = violated_forest_sets(n, u, v, np.ones(u.size), max_sets=3)
        assert len(violated) == 3


class TestOracleSoundAndComplete:
    @given(small_graphs_with_edge(max_vertices=6), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_brute_force(self, g, seed):
        n, u, v = graph_arrays(g)
        x = np.random.default_rng(seed).random(u.size)
        brute_best = _brute_force_most_violated(n, u, v, x)
        found = violated_forest_sets(n, u, v, x, tolerance=1e-9)
        if brute_best > 1e-6:
            assert found, f"missed violation of {brute_best}"
            # soundness: every returned set is genuinely violated
            for subset in found:
                assert _violation(u, v, x, subset) > 1e-9
        else:
            for subset in found:
                assert _violation(u, v, x, subset) > 0
