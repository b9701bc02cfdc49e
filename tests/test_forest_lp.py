"""Tests for the forest-polytope LP evaluation of f_Δ: values through
:func:`repro.core.extension.evaluate_lipschitz_extension`, certificates
through :mod:`repro.lp.forest_core` on canonical arrays."""

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro import telemetry
from repro.core import extension as extension_module
from repro.core.extension import evaluate_lipschitz_extension
from repro.graphs.components import spanning_forest_size
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.lp.forest_core import solve_component, violated_forest_sets

from .strategies import canonical_components, small_graphs


class TestKnownValues:
    def test_star_clips_at_delta(self):
        """Remark 3.4's family: f_Δ(K_{1,k}) = min(Δ, k)."""
        g = star_graph(5)
        for delta in range(1, 8):
            assert evaluate_lipschitz_extension(g, delta) == pytest.approx(
                min(delta, 5)
            )

    def test_triangle_fractional(self):
        """f_1(K3) = 3/2: x = 1/2 on each edge is optimal."""
        assert evaluate_lipschitz_extension(complete_graph(3), 1) == pytest.approx(1.5)

    def test_triangle_delta_2(self):
        assert evaluate_lipschitz_extension(complete_graph(3), 2) == pytest.approx(2.0)

    def test_edgeless_zero(self):
        assert evaluate_lipschitz_extension(empty_graph(4), 1) == 0.0

    def test_path_exact_at_delta_2(self):
        assert evaluate_lipschitz_extension(path_graph(6), 2) == pytest.approx(5.0)

    def test_path_at_delta_1_is_matching(self):
        """With Δ=1 the LP reduces to maximum matching on a path
        (fractional = integral on bipartite graphs): f_1(P6) = 3."""
        assert evaluate_lipschitz_extension(path_graph(6), 1) == pytest.approx(3.0)

    def test_k4_delta_1(self):
        """K4, Δ=1: degree constraints cap sum at 4*1/2 = 2; achievable
        by a perfect matching: f_1 = 2."""
        assert evaluate_lipschitz_extension(complete_graph(4), 1) == pytest.approx(2.0)

    def test_component_additivity(self):
        a = complete_graph(3)
        b = star_graph(4)
        union = disjoint_union([a, b])
        for delta in (1, 2, 3):
            expected = evaluate_lipschitz_extension(
                a, delta
            ) + evaluate_lipschitz_extension(b, delta)
            assert evaluate_lipschitz_extension(union, delta) == pytest.approx(
                expected
            )

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            evaluate_lipschitz_extension(path_graph(2), 0)


def _forbid_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP core was reached")

    monkeypatch.setattr(extension_module, "solve_component", no_lp)


def _repairs(outcome: str) -> float:
    return telemetry.counter_value(
        telemetry.snapshot(), "repro_extension_repairs_total", outcome=outcome
    )


class TestFastPaths:
    def test_fast_path_used_when_delta_large(self, monkeypatch):
        _forbid_lp(monkeypatch)
        attempts = _repairs("success") + _repairs("failure")
        assert evaluate_lipschitz_extension(grid_graph(3, 3), 4) == pytest.approx(8.0)
        assert _repairs("success") + _repairs("failure") == attempts

    def test_repair_fast_path(self, monkeypatch):
        """Grid with Δ=3: repair finds an integral spanning 3-forest,
        skipping the LP."""
        _forbid_lp(monkeypatch)
        before = _repairs("success")
        assert evaluate_lipschitz_extension(grid_graph(3, 3), 3) == pytest.approx(8.0)
        assert _repairs("success") == before + 1

    @given(small_graphs(max_vertices=6), st.integers(1, 5))
    @settings(max_examples=60)
    def test_fast_paths_agree_with_lp(self, g, delta):
        with_fast = evaluate_lipschitz_extension(g, delta, use_fast_paths=True)
        without = evaluate_lipschitz_extension(g, delta, use_fast_paths=False)
        assert with_fast == pytest.approx(without, abs=1e-5)

    def test_fractional_delta(self):
        assert evaluate_lipschitz_extension(star_graph(4), 2.5) == pytest.approx(2.5)


class TestCertification:
    @given(small_graphs(max_vertices=6), st.integers(1, 4))
    @settings(max_examples=40)
    def test_returned_point_is_feasible(self, g, delta):
        for n, u, v in canonical_components(g):
            result = solve_component(n, u, v, delta, use_fast_paths=False)
            # Degree constraints.
            assert result.x.min() >= -1e-9
            load = np.bincount(u, result.x, n) + np.bincount(v, result.x, n)
            assert load.max() <= delta + 1e-6
            # Forest constraints (oracle certifies none violated).
            assert violated_forest_sets(n, u, v, result.x, tolerance=1e-5) == []
            # Objective consistency.
            assert result.x.sum() == pytest.approx(result.value, abs=1e-6)


class TestModerateGraphs:
    def test_er_graph_all_deltas_monotone(self):
        rng = np.random.default_rng(11)
        g = erdos_renyi(40, 0.08, rng)
        values = [
            evaluate_lipschitz_extension(g, d) for d in (1, 2, 4, 8, 16, 32)
        ]
        fsf = spanning_forest_size(g)
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(fsf)

    def test_k23(self):
        """K_{2,3}: Hamiltonian path exists so f_2 = 4 = f_sf."""
        g = complete_bipartite_graph(2, 3)
        assert evaluate_lipschitz_extension(g, 2) == pytest.approx(4.0)
