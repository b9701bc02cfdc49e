"""``repro.telemetry`` — metrics registry, span tracing, event sink.

The observability layer threaded through the Algorithm-1 pipeline
(:mod:`repro.core`, :mod:`repro.lp`), the serving stack
(:mod:`repro.service`), and the release daemon:

* :mod:`repro.telemetry.metrics` — process-local counters and
  histograms with deterministic snapshots, worker-snapshot merging,
  and Prometheus text rendering (the daemon's ``GET /metrics``).
* :mod:`repro.telemetry.tracing` — ``with telemetry.span("lp.solve")``
  stage timing with a no-op fast path; drives ``repro profile``.
* :mod:`repro.telemetry.events` — durable JSONL event sink behind the
  ``--telemetry-log`` CLI flags.

Counters are always on (an increment costs a dict update); spans and
timing histograms only engage once :func:`enable` installs a tracer,
and never touch RNG state or released values either way.
"""

from .events import TelemetryLog
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
    count_field,
    counter,
    counter_value,
    default_registry,
    histogram,
    merge_snapshots,
    render_prometheus,
    reset_metrics,
    snapshot,
)
from .tracing import (
    SpanRecord,
    Tracer,
    aggregate_stage_times,
    disable,
    enable,
    enabled,
    span,
    tracing,
)

__all__ = [
    "TelemetryLog",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "count_field",
    "counter",
    "counter_value",
    "default_registry",
    "histogram",
    "merge_snapshots",
    "render_prometheus",
    "reset_metrics",
    "snapshot",
    "SpanRecord",
    "Tracer",
    "aggregate_stage_times",
    "disable",
    "enable",
    "enabled",
    "span",
    "tracing",
]
