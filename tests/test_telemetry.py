"""Tests for ``repro.telemetry``: metrics registry, tracing, event sink.

The two properties that make telemetry safe to leave wired into the
release pipeline:

* enabling it never changes a released value (spans read only
  ``perf_counter``; pinned here against a real release), and
* snapshots are deterministic and merge exactly (bucket-for-bucket),
  which is what the sharded serving path relies on.
"""

import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.estimators import create
from repro.graphs.generators import planted_components_compact
from repro.telemetry.metrics import MetricsRegistry, _format_value
from repro.telemetry.tracing import _NULL_SPAN


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_value_total(self, registry):
        c = registry.counter("hits_total", "hits", labels=("kind",))
        c.inc(kind="a")
        c.inc(2.5, kind="b")
        assert c.value(kind="a") == 1.0
        assert c.value(kind="b") == 2.5
        assert c.value(kind="never") == 0.0
        assert c.total() == 3.5

    def test_negative_rejected(self, registry):
        c = registry.counter("c_total")
        with pytest.raises(telemetry.MetricError, match="decrease"):
            c.inc(-1.0)

    def test_label_mismatch_rejected(self, registry):
        c = registry.counter("c_total", labels=("kind",))
        with pytest.raises(telemetry.MetricError, match="expected labels"):
            c.inc()
        with pytest.raises(telemetry.MetricError, match="expected labels"):
            c.inc(kind="a", extra="b")

    def test_get_or_create_returns_same_object(self, registry):
        a = registry.counter("c_total", "help", labels=("x",))
        b = registry.counter("c_total", labels=("x",))
        assert a is b

    def test_reregistration_conflicts_raise(self, registry):
        registry.counter("c_total", labels=("x",))
        with pytest.raises(telemetry.MetricError, match="already registered"):
            registry.counter("c_total", labels=("y",))
        with pytest.raises(telemetry.MetricError, match="already registered"):
            registry.histogram("c_total", labels=("x",))

    def test_bad_names_rejected(self, registry):
        with pytest.raises(telemetry.MetricError, match="metric name"):
            registry.counter("bad-name")
        with pytest.raises(telemetry.MetricError, match="label name"):
            registry.counter("ok_total", labels=("bad-label",))

    def test_thread_safety_exact_counts(self, registry):
        c = registry.counter("c_total")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.total() == 8000.0


class TestHistogram:
    def test_observe_count_sum_and_bucket_placement(self, registry):
        h = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 2.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(2.65)
        snap = registry.snapshot()["h_seconds"]
        ((_, state),) = snap["values"]
        # 0.05 and 0.1 land in le=0.1 (boundary inclusive), 0.5 in
        # le=1.0, 2.0 in the +Inf overflow slot.
        assert state["counts"] == [2, 1, 1]

    def test_bad_bounds_rejected(self, registry):
        with pytest.raises(telemetry.MetricError, match="bucket"):
            registry.histogram("h", buckets=())
        with pytest.raises(telemetry.MetricError, match="increasing"):
            registry.histogram("h2", buckets=(1.0, 0.5))
        with pytest.raises(telemetry.MetricError, match="increasing"):
            registry.histogram("h3", buckets=(1.0, 1.0))

    def test_trailing_inf_bound_is_folded(self, registry):
        h = registry.histogram("h_seconds", buckets=(0.5, float("inf")))
        assert h.buckets == (0.5,)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), max_size=60))
    def test_bucket_counts_sum_to_observation_count(self, values):
        registry = MetricsRegistry()
        h = registry.histogram(
            "h_seconds", buckets=(0.001, 0.1, 1.0, 10.0)
        )
        for v in values:
            h.observe(v)
        snap = registry.snapshot()["h_seconds"]
        if not values:
            assert snap["values"] == []
            return
        ((_, state),) = snap["values"]
        assert sum(state["counts"]) == len(values) == h.count()
        assert state["sum"] == pytest.approx(sum(values))
        # Rendered cumulative buckets are monotone and the +Inf bucket
        # equals _count.
        text = registry.render_prometheus()
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_seconds_bucket")
        ]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == len(values)


class TestRender:
    def test_prometheus_text_shape(self, registry):
        c = registry.counter("req_total", "requests served",
                             labels=("tenant",))
        c.inc(3, tenant="acme")
        h = registry.histogram("lat_seconds", "latency", buckets=(0.5,))
        h.observe(0.25)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP req_total requests served" in lines
        assert "# TYPE req_total counter" in lines
        assert 'req_total{tenant="acme"} 3' in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="0.5"} 1' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 1' in lines
        assert "lat_seconds_sum 0.25" in lines
        assert "lat_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_label_values_escaped(self, registry):
        c = registry.counter("c_total", labels=("path",))
        c.inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert 'c_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_value_formatting(self):
        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"
        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("nan")) == "NaN"

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_prometheus() == ""


class TestSnapshotMerge:
    def _worker_snapshot(self, hits, seconds):
        registry = MetricsRegistry()
        c = registry.counter("hits_total", labels=("kind",))
        for kind, n in hits.items():
            c.inc(n, kind=kind)
        h = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        for s in seconds:
            h.observe(s)
        return registry.snapshot()

    def test_counters_and_histograms_add(self):
        merged = telemetry.merge_snapshots([
            self._worker_snapshot({"a": 2}, [0.05, 0.5]),
            self._worker_snapshot({"a": 1, "b": 4}, [2.0]),
        ])
        assert telemetry.counter_value(merged, "hits_total", kind="a") == 3.0
        assert telemetry.counter_value(merged, "hits_total", kind="b") == 4.0
        assert telemetry.counter_value(merged, "hits_total") == 7.0
        ((_, state),) = merged["t_seconds"]["values"]
        assert state["counts"] == [1, 1, 1]
        assert state["sum"] == pytest.approx(2.55)

    def test_snapshot_is_json_safe_and_deterministic(self):
        snap = self._worker_snapshot({"b": 1, "a": 2}, [0.3])
        assert json.loads(json.dumps(snap)) == snap
        again = self._worker_snapshot({"a": 2, "b": 1}, [0.3])
        assert snap == again  # label walk order is sorted, not insertion

    def test_mismatched_buckets_refuse_merge(self):
        r1 = MetricsRegistry()
        r1.histogram("h", buckets=(0.1,)).observe(0.05)
        r2 = MetricsRegistry()
        r2.histogram("h", buckets=(0.1, 1.0)).observe(0.05)
        merged = MetricsRegistry()
        merged.merge_snapshot(r1.snapshot())
        with pytest.raises(telemetry.MetricError):
            merged.merge_snapshot(r2.snapshot())

    def test_counter_value_missing_reads_zero(self):
        assert telemetry.counter_value({}, "nope") == 0.0
        snap = self._worker_snapshot({"a": 1}, [])
        assert telemetry.counter_value(snap, "hits_total", kind="z") == 0.0

    def test_reset_zeroes_in_place(self, registry):
        c = registry.counter("c_total")
        c.inc(5)
        registry.reset()
        assert c.total() == 0.0
        c.inc()  # the held object keeps working after reset
        assert c.total() == 1.0


class TestChildRegistry:
    """A child counts its owner's events once and forwards each one to
    its parent, which keeps the total over every child."""

    def test_child_registers_in_parent_and_forwards(self, registry):
        first = MetricsRegistry(parent=registry)
        second = MetricsRegistry(parent=registry)
        a = first.counter("hits_total", "hits", labels=("kind",))
        b = second.counter("hits_total", "hits", labels=("kind",))
        a.inc(kind="x")
        a.inc(2, kind="y")
        b.inc(kind="x")
        assert first.value("hits_total", kind="x") == 1.0
        assert first.value("hits_total") == 3.0
        assert second.value("hits_total") == 1.0
        assert registry.value("hits_total", kind="x") == 2.0
        assert registry.value("hits_total") == 4.0
        parent = registry.snapshot()["hits_total"]
        assert (parent["help"], parent["labels"]) == ("hits", ["kind"])

    def test_parent_increments_stay_out_of_children(self, registry):
        child = MetricsRegistry(parent=registry)
        child.counter("c_total")
        registry.counter("c_total").inc(5)
        assert child.value("c_total") == 0.0

    def test_histogram_observations_forward(self, registry):
        child = MetricsRegistry(parent=registry)
        h = child.histogram("t_seconds", buckets=(0.1, 1.0), labels=("t",))
        h.observe(0.05, t="a")
        h.observe(2.0, t="a")
        assert child.snapshot() == registry.snapshot()

    def test_conflicting_child_registration_raises(self, registry):
        registry.counter("c_total", labels=("x",))
        with pytest.raises(telemetry.MetricError, match="already registered"):
            MetricsRegistry(parent=registry).counter("c_total")

    def test_parent_reset_keeps_child_counts(self, registry):
        child = MetricsRegistry(parent=registry)
        child.counter("c_total").inc(3)
        registry.reset()
        assert registry.value("c_total") == 0.0
        assert child.value("c_total") == 3.0


def test_readme_catalog_lists_every_registered_series():
    """README's metrics catalog has a row for every ``repro_*`` series
    that ``src/`` registers."""
    root = Path(__file__).resolve().parents[1]
    registered = set()
    for path in (root / "src").rglob("*.py"):
        registered.update(re.findall(
            r'(?:counter|histogram)\(\s*"(repro_\w+)"',
            path.read_text(encoding="utf-8"),
        ))
    readme = (root / "README.md").read_text(encoding="utf-8")
    catalog = set(re.findall(r"^\| `(repro_\w+)` \|", readme, re.MULTILINE))
    assert "repro_session_queries_total" in registered
    assert sorted(registered - catalog) == []


class TestTracing:
    def test_disabled_span_is_shared_null_object(self):
        assert not telemetry.enabled()
        s = telemetry.span("anything", attr=1)
        assert s is _NULL_SPAN
        with s as entered:
            assert entered.seconds is None

    def test_enabled_records_parenting_and_depth(self):
        with telemetry.tracing() as tracer:
            with telemetry.span("outer", tag="x"):
                with telemetry.span("inner"):
                    pass
                with telemetry.span("inner"):
                    pass
        assert not telemetry.enabled()
        by_name = {}
        for record in tracer.spans:
            by_name.setdefault(record.name, []).append(record)
        (outer,) = by_name["outer"]
        assert outer.parent is None and outer.depth == 0
        assert outer.attrs == {"tag": "x"}
        assert len(by_name["inner"]) == 2
        for inner in by_name["inner"]:
            assert inner.parent == outer.index and inner.depth == 1
            assert inner.seconds <= outer.seconds

    def test_tracing_restores_previous_tracer(self):
        outer_tracer = telemetry.enable()
        try:
            with telemetry.tracing() as nested:
                assert telemetry.span("x") is not _NULL_SPAN
            assert telemetry.enabled()
            with telemetry.span("after"):
                pass
            assert [s.name for s in outer_tracer.spans] == ["after"]
            assert nested is not outer_tracer
        finally:
            telemetry.disable()

    def test_span_cap_counts_dropped(self):
        tracer = telemetry.Tracer(max_spans=2)
        with telemetry.tracing(tracer):
            for _ in range(5):
                with telemetry.span("s"):
                    pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_sink_depth_filter(self):
        seen = []
        tracer = telemetry.Tracer(
            keep_spans=False, sink=seen.append, sink_max_depth=0
        )
        with telemetry.tracing(tracer):
            with telemetry.span("root"):
                with telemetry.span("child"):
                    pass
        assert [r.name for r in seen] == ["root"]
        assert tracer.spans == []

    def test_aggregate_self_time_partitions_root_total(self):
        with telemetry.tracing() as tracer:
            with telemetry.span("root"):
                for _ in range(3):
                    with telemetry.span("leaf"):
                        sum(range(1000))
        stages = telemetry.aggregate_stage_times(tracer.spans)
        assert stages["leaf"]["count"] == 3
        root_total = sum(
            s.seconds for s in tracer.spans if s.parent is None
        )
        self_total = sum(s["self_seconds"] for s in stages.values())
        assert self_total == pytest.approx(root_total, rel=1e-9)


class TestReleaseInvariance:
    def test_tracing_never_changes_released_value(self):
        graph = planted_components_compact(
            [12, 9, 7], 0.4, np.random.default_rng(3)
        )

        def run():
            estimator = create("cc", epsilon=1.0, graph=graph)
            return estimator.release(graph, np.random.default_rng(42))

        baseline = run().value
        with telemetry.tracing() as tracer:
            traced = run().value
        assert traced == baseline  # byte-identical, not approx
        assert {s.name for s in tracer.spans} >= {"release", "gem.select"}
        # And the RNG stream itself is untouched by an enabled tracer.
        rng = np.random.default_rng(7)
        with telemetry.tracing():
            with telemetry.span("noop"):
                pass
            draws = rng.random(3)
        assert draws == pytest.approx(np.random.default_rng(7).random(3))


class TestTelemetryLog:
    def test_span_and_metrics_events(self, tmp_path):
        from repro.storage import read_jsonl_records

        path = tmp_path / "telemetry.jsonl"
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        with telemetry.TelemetryLog(path) as log:
            tracer = telemetry.Tracer(
                keep_spans=False, sink=log.span_sink, sink_max_depth=0
            )
            with telemetry.tracing(tracer):
                with telemetry.span("release", estimator="cc"):
                    pass
            log.metrics_event(snapshot=registry.snapshot(), served=1)
        events = list(read_jsonl_records(path))
        assert [e["event"] for e in events] == ["span", "metrics"]
        span_event = events[0]
        assert span_event["name"] == "release"
        assert span_event["attrs"] == {"estimator": "cc"}
        assert span_event["seconds"] >= 0.0
        assert "ts" in span_event
        metrics_event = events[1]
        assert metrics_event["served"] == 1
        assert telemetry.counter_value(
            metrics_event["metrics"], "c_total"
        ) == 2.0

    def test_event_after_close_is_noop(self, tmp_path):
        log = telemetry.TelemetryLog(tmp_path / "t.jsonl")
        log.event("one")
        log.close()
        log.event("two")  # must not raise or write
        from repro.storage import read_jsonl_records

        assert [e["event"] for e in read_jsonl_records(tmp_path / "t.jsonl")] \
            == ["one"]
