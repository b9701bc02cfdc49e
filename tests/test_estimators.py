"""Tests for the unified estimator registry (``repro.estimators``).

The load-bearing property is *differential bit-identity*: a release
dispatched through the registry must equal — float for float — the
release produced by the legacy class API for the same graph and RNG
seed.  Everything downstream (sweep-store validity across the refactor,
session-cache correctness) leans on it.
"""

import json
import re

import numpy as np
import pytest

from repro.core.algorithm import (
    PrivateConnectedComponents,
    PrivateSpanningForestSize,
)
from repro.core.baselines import (
    BoundedDegreePromiseLaplace,
    EdgeDPConnectedComponents,
    NaiveNodeDPConnectedComponents,
    NonPrivateBaseline,
)
from repro.core.generic_algorithm import PrivateMonotoneStatistic
from repro.estimators import (
    EstimatorSpec,
    canonical_name,
    create,
    estimator_names,
    get_spec,
    register,
    registry_specs,
    true_statistic_for,
)
from repro.graphs.compact import as_compact
from repro.graphs.components import (
    number_of_connected_components,
    spanning_forest_size,
)
from repro.graphs.generators import (
    grid_graph,
    path_graph,
    planted_components,
)


@pytest.fixture
def graph():
    return planted_components([8, 5, 7], 0.5, np.random.default_rng(3))


@pytest.fixture
def compact(graph):
    return as_compact(graph)


class TestRegistry:
    def test_canonical_names_present(self):
        names = set(estimator_names())
        assert {
            "cc",
            "sf",
            "generic_sf",
            "edge_dp",
            "naive_node_dp",
            "non_private",
            "bounded_degree",
        } <= names

    def test_legacy_mechanism_aliases_resolve(self):
        # The pre-registry sweep mechanism names must keep working so
        # existing specs and stored cells stay valid.
        assert canonical_name("private_cc") == "cc"
        assert canonical_name("private_sf") == "sf"
        assert canonical_name("generic") == "generic_sf"
        assert canonical_name("cc") == "cc"

    def test_unknown_name_raises_with_catalog(self):
        with pytest.raises(KeyError, match="known:"):
            canonical_name("wizardry")

    def test_create_requires_epsilon_for_private(self):
        with pytest.raises(ValueError, match="requires epsilon"):
            create("cc")
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            create("cc", epsilon=-1.0)

    def test_non_private_needs_no_epsilon(self, graph, rng):
        release = create("non_private").release(graph, rng)
        assert release.epsilon is None
        assert release.value == number_of_connected_components(graph)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(
                EstimatorSpec(
                    name="cc",
                    statistic="cc",
                    summary="dup",
                    factory=lambda eps, graph, opts: None,
                )
            )

    def test_specs_enumerate_sorted(self):
        names = [spec.name for spec in registry_specs()]
        assert names == sorted(names)

    def test_true_statistic_for(self, graph):
        assert true_statistic_for("cc") is number_of_connected_components
        assert true_statistic_for("sf") is spanning_forest_size
        with pytest.raises(ValueError, match="unknown statistic"):
            true_statistic_for("diameter")


class TestDifferentialBitIdentity:
    """Registry releases == legacy class releases, float for float."""

    @pytest.mark.parametrize("representation", ["object", "compact"])
    def test_cc(self, graph, compact, representation):
        g = graph if representation == "object" else compact
        ours = create("cc", epsilon=1.0).release(g, np.random.default_rng(7))
        legacy = PrivateConnectedComponents(epsilon=1.0).release(
            g, np.random.default_rng(7)
        )
        assert ours.value == legacy.value
        assert ours.delta_hat == legacy.spanning_forest.delta_hat
        assert ours.true_value == legacy.true_value

    @pytest.mark.parametrize("representation", ["object", "compact"])
    def test_sf(self, graph, compact, representation):
        g = graph if representation == "object" else compact
        ours = create("sf", epsilon=0.8).release(g, np.random.default_rng(9))
        legacy = PrivateSpanningForestSize(epsilon=0.8).release(
            g, np.random.default_rng(9)
        )
        assert ours.value == legacy.value
        assert ours.delta_hat == legacy.delta_hat

    def test_generic_sf(self):
        g = path_graph(6)
        ours = create("generic_sf", epsilon=2.0).release(
            g, np.random.default_rng(5)
        )
        legacy = PrivateMonotoneStatistic(
            spanning_forest_size, epsilon=2.0
        ).release(g, np.random.default_rng(5))
        assert ours.value == legacy.value

    def test_edge_dp(self, compact):
        ours = create("edge_dp", epsilon=0.5).release(
            compact, np.random.default_rng(2)
        )
        legacy = EdgeDPConnectedComponents(epsilon=0.5).release(
            compact, np.random.default_rng(2)
        )
        assert ours.value == legacy

    def test_naive_node_dp_default_n_max_matches_runner_legacy(self, compact):
        # The legacy runner passed n_max = |V|; the registry default must
        # reproduce that exactly.
        ours = create("naive_node_dp", epsilon=0.5, graph=compact).release(
            compact, np.random.default_rng(2)
        )
        legacy = NaiveNodeDPConnectedComponents(
            epsilon=0.5, n_max=compact.number_of_vertices()
        ).release(compact, np.random.default_rng(2))
        assert ours.value == legacy

    def test_non_private(self, compact, rng):
        ours = create("non_private").release(compact, rng)
        legacy = NonPrivateBaseline().release(compact, rng)
        assert ours.value == legacy

    def test_bounded_degree(self, compact):
        bound = compact.max_degree()
        ours = create(
            "bounded_degree", epsilon=0.5, degree_bound=bound
        ).release(compact, np.random.default_rng(4))
        legacy = BoundedDegreePromiseLaplace(
            epsilon=0.5, degree_bound=bound
        ).release(compact, np.random.default_rng(4))
        assert ours.value == legacy


class TestReleaseRecord:
    def test_ledger_sums_to_epsilon(self, compact):
        for name in ("cc", "sf", "edge_dp", "naive_node_dp"):
            release = create(name, epsilon=1.25, graph=compact).release(
                compact, np.random.default_rng(1)
            )
            assert release.epsilon == 1.25
            assert release.epsilon_spent() == pytest.approx(1.25)

    def test_cc_ledger_steps(self, compact):
        release = create("cc", epsilon=1.0).release(
            compact, np.random.default_rng(1)
        )
        labels = [label for label, _ in release.ledger]
        assert labels == ["vertex count", "gem selection", "laplace release"]

    def test_error_property(self, compact):
        release = create("non_private").release(
            compact, np.random.default_rng(0)
        )
        assert release.error == 0.0

    def test_timing_recorded(self, compact):
        release = create("cc", epsilon=1.0).release(
            compact, np.random.default_rng(0)
        )
        assert release.elapsed_seconds > 0

    def test_to_json_round_trip(self, compact):
        release = create("cc", epsilon=1.0).release(
            compact, np.random.default_rng(0)
        )
        record = json.loads(release.to_json())
        assert record["estimator"] == "cc"
        assert record["statistic"] == "cc"
        assert record["value"] == release.value
        assert sum(
            step["epsilon"] for step in record["ledger"]
        ) == pytest.approx(1.0)

    def test_private_serialization_drops_true_value(self, compact):
        release = create("cc", epsilon=1.0).release(
            compact, np.random.default_rng(0)
        )
        record = json.loads(release.to_json(include_true_value=False))
        assert "true_value" not in record
        assert "detail" not in record

    def test_release_is_frozen(self, compact):
        release = create("edge_dp", epsilon=1.0).release(
            compact, np.random.default_rng(0)
        )
        with pytest.raises(AttributeError):
            release.value = 0.0


class TestSupports:
    def test_generic_refuses_large_graphs(self):
        big = path_graph(40)
        estimator = create("generic_sf", epsilon=1.0)
        assert not estimator.supports(big)
        with pytest.raises(ValueError, match="induced subgraphs"):
            estimator.release(big, np.random.default_rng(0))

    def test_bounded_degree_supports_respects_bound(self, compact):
        tight = create("bounded_degree", epsilon=1.0, degree_bound=1)
        assert not tight.supports(compact)
        loose = create(
            "bounded_degree", epsilon=1.0, degree_bound=compact.max_degree()
        )
        assert loose.supports(compact)

    def test_algorithm1_supports_any_nonempty(self, graph, compact):
        assert create("cc", epsilon=1.0).supports(graph)
        assert create("sf", epsilon=1.0).supports(compact)


class TestLegacyLedgers:
    """The ledger rides on the legacy release dataclasses too."""

    def test_spanning_forest_release_ledger(self, compact):
        release = PrivateSpanningForestSize(epsilon=1.0).release(
            compact, np.random.default_rng(3)
        )
        assert [label for label, _ in release.ledger] == [
            "gem selection",
            "laplace release",
        ]
        assert sum(eps for _, eps in release.ledger) == pytest.approx(1.0)

    def test_cc_release_ledger_includes_count(self, graph):
        release = PrivateConnectedComponents(epsilon=2.0).release(
            graph, np.random.default_rng(3)
        )
        assert release.ledger[0][0] == "vertex count"
        assert sum(eps for _, eps in release.ledger) == pytest.approx(2.0)

    def test_generic_release_ledger(self):
        release = PrivateMonotoneStatistic(
            spanning_forest_size, epsilon=1.5
        ).release(grid_graph(2, 3), np.random.default_rng(3))
        assert sum(eps for _, eps in release.ledger) == pytest.approx(1.5)


class TestOptionValidation:
    def test_unknown_option_rejected_with_catalog(self):
        with pytest.raises(ValueError, match="valid:"):
            create("cc", epsilon=1.0, warp_factor=9)

    def test_declared_options_accepted(self):
        create("cc", epsilon=1.0, count_fraction=0.3, delta_max=10)
        create("sf", epsilon=1.0, beta=0.3, select_fraction=0.4)
        create("bounded_degree", epsilon=1.0, degree_bound=3)

    @pytest.mark.parametrize("name", ["cc", "sf"])
    @pytest.mark.parametrize(
        "option, value",
        [
            ("max_rounds", 10),
            ("separation_tolerance", 1e-6),
            ("use_fast_paths", False),
        ],
    )
    def test_lp_controls_are_not_options(self, name, option, value):
        """The forest LP has one configuration, so Algorithm 1 takes no
        LP controls: each is rejected with the catalog of valid ones."""
        valid = sorted(get_spec(name).options)
        assert "delta_max" in valid
        with pytest.raises(ValueError, match=re.escape(f"valid: {valid}")):
            create(name, epsilon=1.0, **{option: value})

    def test_non_private_takes_no_options(self):
        with pytest.raises(ValueError, match="valid: \\[\\]"):
            create("non_private", anything=1)


class TestRegistryMechanismFactory:
    """The trial engine's registry factory (used by the sweep runner)."""

    def test_dispatches_by_config_name_bit_identically(self):
        import numpy as np

        from repro.analysis.trials import (
            TrialConfig,
            registry_mechanism_factory,
            run_trial_batch,
        )
        from repro.graphs.generators import path_graph_compact

        graph = path_graph_compact(25)
        config = TrialConfig(
            graph, epsilon=1.0, seed=4, n_trials=3, name="edge_dp"
        )
        (result,) = run_trial_batch(registry_mechanism_factory, [config])
        # Same seeds through the direct adapter: identical errors.
        children = np.random.SeedSequence(4).spawn(3)
        direct = [
            create("edge_dp", epsilon=1.0).release(
                graph, np.random.default_rng(child)
            ).value
            for child in children
        ]
        truth = float(number_of_connected_components(graph))
        assert list(result.errors) == [v - truth for v in direct]
