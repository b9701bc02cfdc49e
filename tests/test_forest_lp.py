"""Tests for the forest-polytope LP evaluation of f_Δ: values through
:func:`repro.core.extension.evaluate_lipschitz_extension`, certificates
through :mod:`repro.lp.forest_core` on canonical arrays."""

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro import kernels, telemetry
from repro.core import extension as extension_module
from repro.core.extension import evaluate_lipschitz_extension, extension_for
from repro.graphs.compact import CompactGraph
from repro.graphs.components import spanning_forest_size
from repro.graphs.generators import (
    barabasi_albert_compact,
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


def _spy_kernel(monkeypatch) -> list:
    """Record what each ``kernels.capped_spanning_tree`` call returns."""
    trees = []
    kernel = kernels.capped_spanning_tree

    def spy(*args):
        trees.append(kernel(*args))
        return trees[-1]

    monkeypatch.setattr(kernels, "capped_spanning_tree", spy)
    return trees


class TestFastPaths:
    def test_fast_path_used_when_delta_large(self, monkeypatch):
        _forbid_lp(monkeypatch)
        attempts = _repairs("success") + _repairs("failure")
        assert evaluate_lipschitz_extension(grid_graph(3, 3), 4) == pytest.approx(8.0)
        assert _repairs("success") + _repairs("failure") == attempts

    def test_repair_fast_path(self, monkeypatch):
        """Grid with Δ=3: the spanning-tree kernel finds a spanning
        3-tree, skipping Algorithm 3 and the LP."""
        _forbid_lp(monkeypatch)
        trees = _spy_kernel(monkeypatch)
        attempts = _repairs("success") + _repairs("failure")
        assert evaluate_lipschitz_extension(grid_graph(3, 3), 3) == pytest.approx(8.0)
        assert len(trees) == 1 and trees[0] is not None
        assert _repairs("success") + _repairs("failure") == attempts

    def test_repair_runs_when_the_kernel_declines(self, monkeypatch):
        """Grid with Δ=3 and a kernel that finds nothing: Algorithm 3
        runs and certifies, with one more success counted."""
        _forbid_lp(monkeypatch)
        monkeypatch.setattr(kernels, "capped_spanning_tree", lambda *args: None)
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


# A connected G(45, 67) with maximum degree 10 (the seventh graph of
# ``_giant_component_corpus(seed=4)`` in test_forest_core.py).
# Algorithm-3 repair fails at cap 4, and the LP gives f_4 = 44 = n − 1
# exactly.
LP_TREE_BOUND_COMPONENT = (
    45,
    np.array([0, 0, 0, 1, 2, 3, 3, 4, 4, 4, 5, 6, 6, 7, 7, 8, 8, 9, 9, 9,
              10, 10, 10, 10, 11, 12, 12, 13, 13, 14, 14, 15, 16, 16, 16,
              16, 17, 18, 18, 19, 19, 19, 20, 20, 21, 22, 22, 23, 24, 24,
              26, 26, 27, 27, 29, 29, 30, 31, 31, 32, 33, 34, 34, 34, 35,
              36, 43]),
    np.array([32, 36, 37, 5, 3, 19, 34, 9, 15, 38, 34, 34, 40, 34, 41, 10,
              21, 20, 34, 37, 17, 22, 37, 40, 26, 30, 44, 23, 44, 37, 43,
              38, 27, 30, 35, 42, 40, 21, 37, 22, 35, 44, 34, 39, 32, 25,
              37, 37, 28, 43, 29, 36, 28, 31, 38, 42, 35, 33, 37, 43, 34,
              36, 37, 43, 37, 42, 44]),
)


class TestCertificateStep:
    """The spanning-tree kernel, then Algorithm-3 repair only where the
    kernel declines, after the counting test; and an LP value of exactly
    n − 1 certifies every larger Δ."""

    def test_kernel_certifies_where_repair_fails(self, monkeypatch):
        """BA(1000, 2), seed 0: the kernel's tree settles f_4 = n − 1
        without Algorithm 3 (which fails at cap 4) or the LP (whose
        value was ``approx`` 989.47)."""
        _forbid_lp(monkeypatch)
        trees = _spy_kernel(monkeypatch)
        graph = barabasi_albert_compact(1000, 2, np.random.default_rng(0))
        attempts = _repairs("success") + _repairs("failure")
        assert extension_for(graph).value(4) == 999.0
        assert len(trees) == 1 and trees[0] is not None
        assert _repairs("success") + _repairs("failure") == attempts
        assert graph.repair_spanning_forest(4).forest is None

    def test_lp_value_n_minus_1_settles_every_larger_delta(self, monkeypatch):
        graph = CompactGraph.from_edge_arrays(*LP_TREE_BOUND_COMPONENT)
        assert graph.max_degree() == 10
        monkeypatch.setattr(
            kernels, "capped_spanning_tree", lambda *args: None
        )
        deltas = []

        def spy(n, u, v, delta, **options):
            deltas.append(delta)
            return solve_component(n, u, v, delta, **options)

        monkeypatch.setattr(extension_module, "solve_component", spy)
        values = extension_for(graph).values_for_grid([1, 2, 4, 5, 8])
        assert values[2:].tolist() == [44.0, 44.0, 44.0]
        assert deltas == [1.0, 2.0, 4.0]

    def test_counting_test_skips_repair(self, monkeypatch):
        """A triangle with three pendants on each corner: 9 leaves in 12
        vertices exclude a spanning 2-tree, so no repair is attempted."""
        u = np.array([0, 0, 1] + [c for c in (0, 1, 2) for _ in range(3)])
        v = np.array([1, 2, 2] + list(range(3, 12)))
        kernel = []
        monkeypatch.setattr(
            kernels, "capped_spanning_tree", lambda *args: kernel.append(args)
        )
        attempts = _repairs("success") + _repairs("failure")
        graph = CompactGraph.from_edge_arrays(12, u, v)
        assert extension_for(graph).value(2) < 11
        assert _repairs("success") + _repairs("failure") == attempts
        assert kernel == []


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
