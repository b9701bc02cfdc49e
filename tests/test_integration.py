"""End-to-end integration tests across subsystems.

These tests exercise the full pipeline — generators → extension family
→ GEM → Laplace release → analysis harness — and the agreement between
independent implementations of the same quantities.
"""

import numpy as np
import pytest

from repro import (
    EdgeDPConnectedComponents,
    PrivateConnectedComponents,
    PrivateSpanningForestSize,
    number_of_connected_components,
)
from repro.analysis import run_trials, summarize_errors
from repro.core.down_sensitivity import (
    down_sensitivity_spanning_forest,
    generic_extension_spanning_forest,
)
from repro.core.extension import evaluate_lipschitz_extension
from repro.core.generic_algorithm import PrivateMonotoneStatistic
from repro.graphs.components import spanning_forest_size
from repro.graphs.generators import (
    erdos_renyi,
    planted_components,
    random_geometric_graph,
    star_plus_isolated,
)
from repro.graphs.io import parse_edge_list, format_edge_list
from repro.lp import forest_core

from .strategies import canonical_components


def _component_sum(graph, solve):
    """Sum ``solve(n, u, v)`` results over the canonical components,
    returning the total value and total certified gap."""
    results = [solve(n, u, v) for n, u, v in canonical_components(graph)]
    return sum(r.value for r in results), sum(r.gap for r in results)


class TestExtensionImplementationsAgree:
    """Three evaluators of f_Δ and the generic b̂f_Δ relate correctly."""

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_methods_agree_on_moderate_graph(self, rng, delta):
        g = erdos_renyi(11, 0.3, rng)
        exhaustive, _ = _component_sum(
            g,
            lambda n, u, v: forest_core.exhaustive_component_value(n, u, v, delta),
        )
        results = [
            forest_core.cutting_plane_component(n, u, v, delta, 1e-7, 200)
            for n, u, v in canonical_components(g)
        ]
        assert all(result.status == "exact" for result in results)
        cutting = sum(result.value for result in results)
        auto = evaluate_lipschitz_extension(g, delta)
        assert cutting == pytest.approx(exhaustive, abs=1e-5)
        assert auto == pytest.approx(exhaustive, abs=1e-5)

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_lp_extension_dominates_generic(self, rng, delta):
        """Both are Δ-Lipschitz underestimates of f_sf; on the anchor set
        both are exact.  Outside, the LP extension with parameter Δ is at
        least... (no general dominance) — but both stay below f_sf and
        above 0."""
        g = erdos_renyi(7, 0.5, rng)
        fsf = spanning_forest_size(g)
        lp_value = evaluate_lipschitz_extension(g, delta)
        generic = generic_extension_spanning_forest(g, delta)
        assert 0 <= lp_value <= fsf + 1e-6
        assert 0 <= generic <= fsf + 1e-9
        if down_sensitivity_spanning_forest(g) <= delta - 1:
            assert lp_value == pytest.approx(fsf, abs=1e-5)
            assert generic == pytest.approx(float(fsf))


class TestSpecializedVsGenericAlgorithm:
    def test_both_track_truth_on_small_graph(self, rng):
        g = star_plus_isolated(2, 5)
        truth = spanning_forest_size(g)
        specialized = PrivateSpanningForestSize(epsilon=6.0)
        generic = PrivateMonotoneStatistic(
            spanning_forest_size,
            epsilon=6.0,
            down_sensitivity=down_sensitivity_spanning_forest,
        )
        spec_errors = [
            abs(specialized.release(g, rng).value - truth) for _ in range(12)
        ]
        gen_errors = [abs(generic.release(g, rng).value - truth) for _ in range(12)]
        assert np.median(spec_errors) < 12
        assert np.median(gen_errors) < 12


class TestFullPipeline:
    def test_io_roundtrip_then_private_count(self, rng):
        graph = planted_components([8, 8, 8], 0.4, rng)
        text = format_edge_list(graph)
        loaded = parse_edge_list(text.splitlines())
        estimator = PrivateConnectedComponents(epsilon=2.0)
        release = estimator.release(loaded, rng)
        assert release.true_value == 3

    def test_harness_with_paper_algorithm(self, rng):
        graph = planted_components([10, 10], 0.4, rng)
        estimator = PrivateConnectedComponents(epsilon=2.0)
        errors = run_trials(estimator, graph, 8, rng)
        summary = summarize_errors(errors, number_of_connected_components(graph))
        assert summary.n_trials == 8
        assert summary.true_value == 2.0

    def test_extension_cache_shared_across_releases(self, rng):
        """Repeated releases on the same graph reuse the LP cache."""
        graph = random_geometric_graph(60, 0.12, rng)
        estimator = PrivateSpanningForestSize(epsilon=1.0)
        estimator.release(graph, rng)
        cached = estimator._cached_extension
        assert cached is not None
        deltas_after_first = set(cached.evaluated_deltas())
        estimator.release(graph, rng)
        assert estimator._cached_extension is cached
        assert set(cached.evaluated_deltas()) == deltas_after_first

    def test_cache_invalidated_for_new_graph(self, rng):
        a = planted_components([5, 5], 0.5, rng)
        b = planted_components([5, 5], 0.5, rng)
        estimator = PrivateSpanningForestSize(epsilon=1.0)
        estimator.release(a, rng)
        first = estimator._cached_extension
        estimator.release(b, rng)
        assert estimator._cached_extension is not first

    def test_node_privacy_dominates_edge_privacy_in_noise(self, rng):
        """Sanity on relative error scales: the node-DP release is
        noisier than the edge-DP one at equal epsilon (stronger privacy
        costs accuracy), but both are unbiased-ish."""
        graph = planted_components([12] * 4, 0.4, rng)
        truth = number_of_connected_components(graph)
        node = PrivateConnectedComponents(epsilon=1.0)
        edge = EdgeDPConnectedComponents(epsilon=1.0)
        node_err = np.median(
            [abs(node.release(graph, rng).value - truth) for _ in range(15)]
        )
        edge_err = np.median(
            [abs(edge.release(graph, rng) - truth) for _ in range(15)]
        )
        assert edge_err <= node_err + 1.0


class TestApproximateRegime:
    def test_gap_is_certified_and_propagates(self, rng):
        """Force the approximate path with a tiny iteration budget (column
        generation alone) and check the contract: value is a lower bound
        within gap of any exact evaluation."""
        g = erdos_renyi(30, 0.25, rng)  # one big component, > threshold
        approx, approx_gap = _component_sum(
            g,
            lambda n, u, v: forest_core.column_generation_component(
                n, u, v, 2, max_iterations=3
            ),
        )
        assert approx_gap > 0.0
        exact, exact_gap = _component_sum(
            g, lambda n, u, v: forest_core.solve_component(n, u, v, 2)
        )
        if exact_gap == 0.0:
            assert approx <= exact + 1e-6
            assert approx + approx_gap >= exact - 1e-6

    def test_solve_lies_in_the_column_generation_window(self, rng):
        """The cutting plane's total lies in the window that column
        generation alone certifies."""
        g = erdos_renyi(26, 0.3, rng)
        solved, _ = _component_sum(
            g, lambda n, u, v: forest_core.solve_component(n, u, v, 2)
        )
        lower, gap = _component_sum(
            g,
            lambda n, u, v: forest_core.column_generation_component(
                n, u, v, 2
            ),
        )
        assert lower - 1e-6 <= solved <= lower + gap + 1e-6
