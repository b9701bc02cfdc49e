"""Tests for the amortized serving layer (``repro.service``).

Two load-bearing properties:

* correctness — a release answered from a *warm* session (shared
  extension table) is bit-identical to a cold registry release for the
  same RNG stream;
* amortization — content-identical graphs materialized independently
  share one cache entry (fingerprint-keyed), the LRU evicts, and the
  optional shared accountant enforces a session-wide budget.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.extension import extension_for
from repro.estimators import create
from repro.graphs.compact import (
    CompactGraph,
    as_compact,
    forbid_object_coercion,
    object_coercion_count,
)
from repro.graphs.generators import (
    erdos_renyi_compact,
    grid_graph,
    path_graph_compact,
    planted_components_compact,
)
from repro.graphs.io import write_edge_list
from repro.lp import forest_core
from repro.mechanisms.accountant import BudgetExceededError
from repro.mechanisms.gem import power_of_two_grid
from repro.service import ReleaseSession, serve_jsonl


@pytest.fixture
def compact():
    return planted_components_compact([12, 9, 6], 0.4, np.random.default_rng(5))


def _giant_component_graph(n: int = 50, m: int = 75) -> CompactGraph:
    """Uniform G(n, m) with mean degree 3: one giant component whose
    values come from the cutting-plane LP."""
    rng = np.random.default_rng([1, 1])
    u, v = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(u.size, size=m, replace=False))
    return CompactGraph.from_edge_arrays(
        n, u[pick].astype(np.int64), v[pick].astype(np.int64)
    )


def _memo_misses() -> float:
    return telemetry.counter_value(
        telemetry.snapshot(), "repro_lp_memo_total", result="miss"
    )


class TestFingerprint:
    def test_deterministic_and_content_addressed(self, compact):
        rebuilt = planted_components_compact(
            [12, 9, 6], 0.4, np.random.default_rng(5)
        )
        assert rebuilt is not compact
        assert rebuilt.fingerprint() == compact.fingerprint()

    def test_distinguishes_graphs(self, compact):
        other = path_graph_compact(27)
        assert other.fingerprint() != compact.fingerprint()

    def test_isolated_vertices_matter(self):
        # f_cc is sensitive to isolated vertices; the fingerprint must
        # be too, even though both graphs have identical edge sets.
        a = CompactGraph.from_edges(3, [(0, 1)])
        b = CompactGraph.from_edges(2, [(0, 1)])
        assert a.fingerprint() != b.fingerprint()

    def test_labels_matter(self):
        a = CompactGraph.from_edges(2, [(0, 1)], labels=["x", "y"])
        b = CompactGraph.from_edges(2, [(0, 1)])
        assert a.fingerprint() != b.fingerprint()

    def test_memoized(self, compact):
        assert compact.fingerprint() is compact.fingerprint()


class TestSessionCache:
    def test_warm_equals_cold_bitwise(self, compact):
        """The acceptance-critical property, at test scale: cached vs
        cold releases are identical for identical RNG streams."""
        session = ReleaseSession()
        session.query("cc", epsilon=1.0, graph=compact, seed=100)  # warm up
        for name, epsilon, seed in [
            ("cc", 1.0, 0),
            ("cc", 0.25, 1),
            ("sf", 2.0, 2),
            ("edge_dp", 0.5, 3),
        ]:
            warm = session.query(name, epsilon=epsilon, graph=compact, seed=seed)
            cold = create(name, epsilon=epsilon, graph=compact).release(
                compact, np.random.default_rng(seed)
            )
            assert warm.value == cold.value, (name, epsilon)

    def test_content_identical_graphs_share_entry(self):
        session = ReleaseSession()
        a = planted_components_compact([10, 10], 0.5, np.random.default_rng(1))
        b = planted_components_compact([10, 10], 0.5, np.random.default_rng(1))
        session.query("cc", epsilon=1.0, graph=a, seed=0)
        session.query("cc", epsilon=1.0, graph=b, seed=1)
        assert len(session) == 1
        assert session.stats.graph_hits == 1
        assert session.stats.graph_misses == 1

    def test_extension_built_once(self, compact):
        session = ReleaseSession()
        session.query("cc", epsilon=1.0, graph=compact, seed=0)
        entry_extension = session.graph_and_extension(compact)[1]
        session.query("sf", epsilon=0.5, graph=compact, seed=1)
        assert session.graph_and_extension(compact)[1] is entry_extension

    def test_zero_coercions_on_compact_path(self, compact):
        session = ReleaseSession()
        before = object_coercion_count()
        with forbid_object_coercion():
            for seed, name in enumerate(("cc", "sf", "cc", "naive_node_dp")):
                session.query(name, epsilon=1.0, graph=compact, seed=seed)
        assert object_coercion_count() == before

    def test_lru_evicts_oldest(self):
        session = ReleaseSession(max_graphs=2)
        graphs = [path_graph_compact(n) for n in (5, 6, 7)]
        for i, g in enumerate(graphs):
            session.query("edge_dp", epsilon=1.0, graph=g, seed=i)
        assert len(session) == 2
        assert session.stats.evictions == 1
        assert graphs[0].fingerprint() not in session.fingerprints()
        assert graphs[2].fingerprint() in session.fingerprints()

    def test_query_by_fingerprint(self, compact):
        session = ReleaseSession()
        fingerprint = session.register(compact)
        release = session.query(
            "cc", epsilon=1.0, fingerprint=fingerprint, seed=3
        )
        cold = create("cc", epsilon=1.0).release(
            compact, np.random.default_rng(3)
        )
        assert release.value == cold.value

    def test_unknown_fingerprint_raises(self):
        session = ReleaseSession()
        with pytest.raises(KeyError, match="register"):
            session.query("cc", epsilon=1.0, fingerprint="f" * 64, seed=0)

    def test_object_graphs_enter_via_compact_conversion(self):
        session = ReleaseSession()
        release = session.query(
            "cc", epsilon=1.0, graph=grid_graph(3, 3), seed=4
        )
        # Served from the compact representation: identical to a cold
        # compact release (PR-3 pins compact == object for int labels).
        cold = create("cc", epsilon=1.0).release(
            as_compact(grid_graph(3, 3)), np.random.default_rng(4)
        )
        assert release.value == cold.value

    def test_session_table_equals_a_cold_extension_on_an_lp_graph(self):
        """The warm table is the one a cold ``extension_for`` builds, bit
        for bit, on a graph whose value comes from the LP — the
        precondition for warm == cold on hard inputs."""
        graph = _giant_component_graph()
        session = ReleaseSession()
        session.query("sf", epsilon=1.0, graph=graph, seed=0)
        grid = power_of_two_grid(graph.number_of_vertices())
        _, warm = session.graph_and_extension(graph)
        forest_core.clear_solve_cache()
        cold = extension_for(graph).values_for_grid(grid)
        assert warm.values_for_grid(grid).tobytes() == cold.tobytes()

    @pytest.mark.parametrize("first", ["create", "session"])
    def test_release_and_extension_share_the_lp_memo(self, first):
        """Every layer solves with one LP configuration, so after one
        release a fresh extension's whole grid is answered from the
        component-solve memo."""
        graph = _giant_component_graph()
        grid = power_of_two_grid(graph.number_of_vertices())
        forest_core.clear_solve_cache()
        before = _memo_misses()
        if first == "create":
            create("cc", epsilon=1.0).release(graph, np.random.default_rng(0))
        else:
            ReleaseSession().query("cc", epsilon=1.0, graph=graph, seed=0)
        solved = _memo_misses()
        assert solved > before
        extension_for(graph).values_for_grid(grid)
        assert _memo_misses() == solved

    def test_rng_xor_seed_required(self, compact):
        session = ReleaseSession()
        with pytest.raises(ValueError, match="exactly one"):
            session.query("cc", epsilon=1.0, graph=compact)
        with pytest.raises(ValueError, match="exactly one"):
            session.query(
                "cc", epsilon=1.0, graph=compact,
                rng=np.random.default_rng(0), seed=1,
            )


class TestSessionStatsView:
    """``session.stats`` reads the session's own child registry; the
    process registry behind ``/metrics`` sums every session."""

    def test_each_session_counts_only_its_own_events(self, compact):
        def process(name, **labels):
            return telemetry.counter_value(telemetry.snapshot(), name, **labels)

        lookups = "repro_session_graph_lookups_total"
        before = (
            process("repro_session_queries_total"),
            process(lookups, result="hit"),
            process(lookups, result="miss"),
        )
        first, second = ReleaseSession(), ReleaseSession()
        for seed in range(3):
            first.query("cc", epsilon=1.0, graph=compact, seed=seed)
        second.query("edge_dp", epsilon=0.5, graph=path_graph_compact(6), seed=0)
        assert (first.stats.queries, first.stats.graph_hits,
                first.stats.graph_misses) == (3, 2, 1)
        assert (second.stats.queries, second.stats.graph_hits,
                second.stats.graph_misses) == (1, 0, 1)
        after = (
            process("repro_session_queries_total"),
            process(lookups, result="hit"),
            process(lookups, result="miss"),
        )
        assert [b - a for a, b in zip(before, after)] == [4.0, 2.0, 2.0]

    def test_to_dict_keeps_keys_order_and_types(self, compact):
        session = ReleaseSession()
        session.query("cc", epsilon=0.5, graph=compact, seed=0)
        stats = session.stats.to_dict()
        assert list(stats) == [
            "queries", "graph_hits", "graph_misses", "evictions",
            "epsilon_spent", "disk_warm_starts", "component_hits",
            "component_misses", "component_promotions",
        ]
        assert stats["queries"] == 1 and stats["epsilon_spent"] == 0.5
        assert type(stats.pop("epsilon_spent")) is float
        assert all(type(count) is int for count in stats.values())

    def test_stats_are_read_only(self):
        session = ReleaseSession()
        with pytest.raises(AttributeError):
            session.stats.queries = 5


class TestSessionBudget:
    def test_budget_enforced_across_queries(self, compact):
        session = ReleaseSession(total_epsilon=1.0)
        session.query("cc", epsilon=0.5, graph=compact, seed=0)
        session.query("sf", epsilon=0.5, graph=compact, seed=1)
        with pytest.raises(BudgetExceededError):
            session.query("cc", epsilon=0.1, graph=compact, seed=2)

    def test_budgeted_session_refuses_non_private_by_default(self, compact):
        """An exact release would sidestep --total-epsilon entirely, so
        a budgeted session refuses it unless explicitly allowed."""
        session = ReleaseSession(total_epsilon=0.5)
        with pytest.raises(ValueError, match="allow_non_private"):
            session.query("non_private", graph=compact, seed=0)
        assert session.accountant.spent() == 0.0

    def test_non_private_is_free_when_opted_in(self, compact):
        session = ReleaseSession(total_epsilon=0.5, allow_non_private=True)
        for seed in range(5):
            session.query("non_private", graph=compact, seed=seed)
        assert session.accountant.spent() == 0.0

    def test_unbudgeted_session_serves_non_private(self, compact):
        release = ReleaseSession().query(
            "non_private", graph=compact, seed=0
        )
        assert release.value == compact.number_of_connected_components()

    def test_ledger_labels_queries(self, compact):
        session = ReleaseSession(total_epsilon=2.0)
        session.query("cc", epsilon=0.75, graph=compact, seed=0)
        ledger = session.accountant.ledger()
        assert len(ledger) == 1
        assert ledger[0][0].startswith("cc@")
        assert ledger[0][1] == 0.75

    def test_unsupported_query_spends_nothing(self, compact):
        """A doomed release must not leak budget: generic_sf refuses the
        27-vertex graph before any epsilon is debited."""
        session = ReleaseSession(total_epsilon=1.0)
        with pytest.raises(ValueError, match="does not support"):
            session.query("generic_sf", epsilon=0.6, graph=compact, seed=0)
        assert session.accountant.spent() == 0.0
        # The full budget is still available for a valid query.
        session.query("cc", epsilon=1.0, graph=compact, seed=1)

    def test_failed_release_spends_nothing(self, compact, monkeypatch):
        """Spend happens after the release succeeds, so an estimator
        that raises mid-release leaves the budget untouched."""
        import repro.service.session as session_module

        class _Exploding:
            name = "edge_dp"
            statistic = "cc"
            uses_extension = False

            def supports(self, graph):
                return True

            def release(self, graph, rng):
                raise RuntimeError("solver blew up")

        monkeypatch.setattr(
            session_module, "create", lambda *a, **k: _Exploding()
        )
        session = ReleaseSession(total_epsilon=1.0)
        with pytest.raises(RuntimeError, match="blew up"):
            session.query("edge_dp", epsilon=0.6, graph=compact, seed=0)
        assert session.accountant.spent() == 0.0


class TestServeJsonl:
    def _request_lines(self, path):
        return [
            json.dumps(
                {"id": "a", "estimator": "cc", "epsilon": 1.0,
                 "graph": path, "seed": 11}
            ),
            "# comment lines and blanks are skipped",
            "",
            json.dumps(
                {"id": "b", "estimator": "sf", "epsilon": 0.5,
                 "graph": path, "seed": 12}
            ),
            json.dumps({"estimator": "unknown_thing", "graph": path}),
        ]

    def test_end_to_end(self, tmp_path, compact):
        path = str(tmp_path / "g.edges")
        write_edge_list(compact, path)
        session = ReleaseSession()
        responses = list(serve_jsonl(self._request_lines(path), session))
        assert [r.get("id") for r in responses] == ["a", "b", 4]
        cold = create("cc", epsilon=1.0).release(
            compact, np.random.default_rng(11)
        )
        assert responses[0]["value"] == cold.value
        assert "true_value" not in responses[0]
        assert responses[0]["fingerprint"] == compact.fingerprint()
        assert "unknown estimator" in responses[2]["error"]
        # One graph, served hot across the batch.
        assert len(session) == 1

    def test_default_graph_and_derived_seeds_reproduce(self, tmp_path, compact):
        session = ReleaseSession()
        lines = [json.dumps({"estimator": "cc", "epsilon": 1.0})] * 2
        first = list(serve_jsonl(lines, session, default_graph=compact))
        second = list(serve_jsonl(lines, session, default_graph=compact))
        # Same base_seed -> same spawned streams -> identical releases;
        # the two requests within a batch draw independently.
        assert [r["value"] for r in first] == [r["value"] for r in second]
        assert first[0]["value"] != first[1]["value"]

    def test_default_graph_survives_lru_eviction(self, tmp_path, compact):
        """Requests without a graph keep working even after a stream of
        other graphs pushed the default out of the LRU."""
        session = ReleaseSession(max_graphs=2)
        session.register(compact)
        lines = []
        for i, n in enumerate((5, 6, 7)):
            path = str(tmp_path / f"g{n}.edges")
            write_edge_list(path_graph_compact(n), path)
            lines.append(
                json.dumps({"estimator": "edge_dp", "epsilon": 1.0,
                            "graph": path, "seed": i})
            )
        lines.append(
            json.dumps({"estimator": "cc", "epsilon": 1.0, "seed": 9})
        )
        responses = list(serve_jsonl(lines, session, default_graph=compact))
        assert all("error" not in r for r in responses), responses
        cold = create("cc", epsilon=1.0).release(
            compact, np.random.default_rng(9)
        )
        assert responses[-1]["value"] == cold.value

    def test_responses_never_leak_pre_noise_values(self, tmp_path, compact):
        """Serving output must contain no noiseless function of the
        private input: true_value AND the exact pre-noise extension
        value are both stripped."""
        session = ReleaseSession()
        lines = [
            json.dumps({"estimator": "sf", "epsilon": 0.5, "seed": 1}),
            json.dumps({"estimator": "cc", "epsilon": 0.5, "seed": 2}),
        ]
        for response in serve_jsonl(lines, session, default_graph=compact):
            assert "true_value" not in response
            assert "extension_value" not in response["metadata"]
        # The experiment-facing serialization still carries both.
        release = session.query("sf", epsilon=0.5, graph=compact, seed=1)
        full = release.to_dict()
        assert full["metadata"]["extension_value"] == pytest.approx(
            release.metadata["extension_value"]
        )
        assert full["true_value"] is not None

    def test_hot_requests_count_one_lookup_each(self, compact):
        """The CLI-reported hit rate reflects one lookup per request,
        not a register+query double count."""
        session = ReleaseSession()
        lines = [
            json.dumps({"estimator": "edge_dp", "epsilon": 1.0, "seed": i})
            for i in range(5)
        ]
        list(serve_jsonl(lines, session, default_graph=compact))
        assert session.stats.graph_misses == 1
        assert session.stats.graph_hits == 4

    def test_named_graph_requests_count_one_lookup_each(
        self, tmp_path, compact
    ):
        """The named-graph path counts one stats event per request too:
        a miss on first load, a hit per hot request."""
        path = str(tmp_path / "g.edges")
        write_edge_list(compact, path)
        session = ReleaseSession()
        lines = [
            json.dumps({"estimator": "edge_dp", "epsilon": 1.0,
                        "graph": path, "seed": i})
            for i in range(3)
        ]
        list(serve_jsonl(lines, session))
        assert session.stats.graph_misses == 1
        assert session.stats.graph_hits == 2

    def test_object_default_graph_compacted_once(self, monkeypatch):
        """A string-labeled (object) default graph is converted to the
        compact representation once per batch, not once per request."""
        import repro.service.batch as batch_module

        calls = {"n": 0}
        original = batch_module.as_compact

        def counting(graph):
            calls["n"] += 1
            return original(graph)

        monkeypatch.setattr(batch_module, "as_compact", counting)
        session = ReleaseSession()
        lines = [
            json.dumps({"estimator": "edge_dp", "epsilon": 1.0, "seed": i})
            for i in range(4)
        ]
        list(serve_jsonl(lines, session, default_graph=grid_graph(3, 3)))
        assert calls["n"] == 1

    def test_missing_graph_errors(self):
        session = ReleaseSession()
        lines = [json.dumps({"estimator": "cc", "epsilon": 1.0})]
        (response,) = serve_jsonl(lines, session)
        assert "no default graph" in response["error"]

    def test_budget_exceeded_is_an_error_line_not_a_crash(
        self, tmp_path, compact
    ):
        path = str(tmp_path / "g.edges")
        write_edge_list(compact, path)
        session = ReleaseSession(total_epsilon=1.0)
        lines = [
            json.dumps({"estimator": "cc", "epsilon": 0.8, "graph": path,
                        "seed": 0}),
            json.dumps({"estimator": "cc", "epsilon": 0.8, "graph": path,
                        "seed": 1}),
        ]
        responses = list(serve_jsonl(lines, session))
        assert "value" in responses[0]
        assert "budget exceeded" in responses[1]["error"]

    def test_malformed_json_is_an_error_line(self):
        session = ReleaseSession()
        (response,) = serve_jsonl(["{not json"], session)
        assert "error" in response
        assert response["error_type"] == "JSONDecodeError"

    def test_batch_continues_past_bad_lines(self, compact):
        """Regression: one malformed line or unknown-estimator request
        must not abort the batch — every line gets its slot."""
        session = ReleaseSession()
        lines = [
            "{malformed",
            json.dumps({"estimator": "definitely_not_registered",
                        "epsilon": 1.0}),
            json.dumps([1, 2, 3]),
            json.dumps({"estimator": "cc", "epsilon": 1.0, "seed": 1}),
            json.dumps({"estimator": "cc", "epsilon": -3.0, "seed": 2}),
            json.dumps({"estimator": "cc", "epsilon": 1.0, "seed": 3}),
        ]
        responses = list(serve_jsonl(lines, session, default_graph=compact))
        assert len(responses) == len(lines)
        assert [("error" in r) for r in responses] == [
            True, True, True, False, True, False,
        ]
        assert all(
            "error_type" in r for r in responses if "error" in r
        )

    def test_estimator_crash_is_an_error_line_not_abort(
        self, compact, monkeypatch
    ):
        """Regression: an exception type nobody anticipated (estimator
        internals blowing up) becomes a structured per-line error, and
        later requests are still served."""
        import repro.service.session as session_module

        real_create = session_module.create

        class _Exploding:
            name = "cc"
            statistic = "cc"
            uses_extension = False

            def supports(self, graph):
                return True

            def release(self, graph, rng):
                raise RuntimeError("separation oracle exploded")

        calls = {"n": 0}

        def flaky_create(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return _Exploding()
            return real_create(*args, **kwargs)

        monkeypatch.setattr(session_module, "create", flaky_create)
        session = ReleaseSession()
        lines = [
            json.dumps({"estimator": "cc", "epsilon": 1.0, "seed": 0}),
            json.dumps({"estimator": "cc", "epsilon": 1.0, "seed": 1}),
        ]
        responses = list(serve_jsonl(lines, session, default_graph=compact))
        assert responses[0]["error_type"] == "RuntimeError"
        assert "exploded" in responses[0]["error"]
        assert "value" in responses[1]

    def test_responses_carry_no_wall_clock_timing(self, compact):
        """Serving output is a pure function of the request stream:
        the elapsed_seconds diagnostic stays out of it (determinism
        across reruns/worker counts + no timing side channel)."""
        session = ReleaseSession()
        lines = [json.dumps({"estimator": "cc", "epsilon": 1.0, "seed": 1})]
        (response,) = serve_jsonl(lines, session, default_graph=compact)
        assert "elapsed_seconds" not in response
        # The experiment-facing serialization still carries it.
        release = session.query("cc", epsilon=1.0, graph=compact, seed=1)
        assert "elapsed_seconds" in release.to_dict()


class TestSweepSessionReuse:
    def test_runner_worker_session_shares_extensions(
        self, tmp_path, monkeypatch
    ):
        """Grid cells sharing a graph seed reuse one extension table."""
        from repro.experiments.config import GraphGrid, SweepSpec
        from repro.experiments import runner as runner_module
        from repro.experiments.runner import run_sweep
        from repro.experiments.store import ResultStore

        # Fresh per-process session, and capture it across the
        # sweep-scoped teardown so we can inspect its stats.
        runner_module._session = None
        seen = []
        real_reset = runner_module._reset_shared_session

        def capturing_reset():
            if runner_module._session is not None:
                seen.append(runner_module._session)
            real_reset()

        monkeypatch.setattr(
            runner_module, "_reset_shared_session", capturing_reset
        )
        spec = SweepSpec(
            name="session-reuse",
            graphs=(GraphGrid(family="er", sizes=(40,)),),
            epsilons=(0.5, 1.0, 2.0),
            mechanisms=("private_cc",),
            n_trials=3,
        )
        result = run_sweep(spec, ResultStore(tmp_path / "store"))
        assert result.complete
        # The session existed during the sweep and was torn down after.
        assert runner_module._session is None
        (session,) = seen
        # Three epsilon cells, one shared sampled graph: one miss, the
        # rest hits (each trial-release touches the cache once).
        assert session.stats.graph_misses == 1
        assert session.stats.graph_hits >= 2

    def test_sweep_results_identical_with_and_without_session(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.config import GraphGrid, SweepSpec
        from repro.experiments import runner as runner_module
        from repro.experiments.runner import run_sweep
        from repro.experiments.store import ResultStore

        spec = SweepSpec(
            name="det",
            graphs=(GraphGrid(family="er", sizes=(30,)),),
            epsilons=(1.0, 2.0),
            mechanisms=("private_cc", "sf"),
            n_trials=2,
        )
        runner_module._session = None
        with_session = run_sweep(spec, ResultStore(tmp_path / "a"))
        errors_hot = [r.record["errors"] for r in with_session.results]

        # Cold leg: no shared session, so every cell rebuilds its
        # extension from scratch.
        monkeypatch.setattr(
            runner_module, "_shared_session", lambda *a, **k: None
        )
        cold = run_sweep(spec, ResultStore(tmp_path / "b"))
        errors_cold = [r.record["errors"] for r in cold.results]
        assert errors_hot == errors_cold
        runner_module._session = None


class TestHotPathCost:
    def test_warm_queries_skip_kernel_work(self):
        """After the first query, the per-query cost is GEM + Laplace:
        no fresh extension object is constructed."""
        calls = {"n": 0}
        import repro.service.session as session_module

        original = session_module.extension_for

        def counting(graph, **options):
            calls["n"] += 1
            return original(graph, **options)

        session_module.extension_for = counting
        try:
            session = ReleaseSession()
            g = erdos_renyi_compact(200, 0.01, np.random.default_rng(0))
            for seed in range(6):
                session.query("cc", epsilon=1.0, graph=g, seed=seed)
        finally:
            session_module.extension_for = original
        assert calls["n"] == 1
