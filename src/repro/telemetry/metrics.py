"""Process-local metrics registry: counters and histograms.

Design constraints, in order:

* **Deterministic snapshots.**  Histograms use *fixed* bucket bounds
  chosen at registration time, values are plain floats, and every
  snapshot/render walks label sets in sorted order — two processes that
  observe the same events produce identical snapshots, which is what
  lets the sharded serving path merge per-worker snapshots and still
  pin byte-stable summaries in tests.
* **Cheap on the hot path.**  An increment is a dict lookup and an add
  under the registry-wide lock of each registry it reaches (serving is
  I/O- and LP-bound; a lock is far below the noise floor and keeps
  cross-thread counts exact for the daemon's executor threads).
* **Get-or-create registration.**  ``registry.counter(name, ...)``
  returns the existing metric when one is already registered under
  ``name`` — module-level instrumentation can declare its metrics at
  import time without coordinating import order.  Re-registering with a
  different kind, label set, or bucket bounds raises
  :class:`MetricError` (silent divergence would corrupt merges).
* **Child registries count per owner.**  ``MetricsRegistry(parent=...)``
  registers each metric in the parent too and forwards every increment
  and observation, with its already-validated label key, to the
  parent's metric.  A session, a cache and a daemon each own a child of
  the process registry and read their own counts from it; the process
  registry behind ``/metrics``, the telemetry logs and the sharded
  merge keeps the totals.  :func:`reset_metrics` zeroes the process
  registry only; children keep their counts.

Rendering follows the Prometheus text exposition format, version
0.0.4: ``# HELP``/``# TYPE`` preamble, cumulative ``_bucket`` series
with an explicit ``+Inf`` bound, ``_sum``/``_count``, and label values
escaped per the spec.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "MetricError",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "default_registry",
    "counter",
    "histogram",
    "snapshot",
    "render_prometheus",
    "reset_metrics",
    "merge_snapshots",
    "counter_value",
    "count_field",
]

_INF = math.inf

#: Bounds (in seconds) for timing histograms.  Fixed here — not
#: configurable per call site — so snapshots from different workers
#: always merge bucket-for-bucket.
DEFAULT_TIME_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric declaration or use (bad name, label mismatch)."""


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integral floats print as integers
    (``releases_total 3``, not ``3.0``) so exposition lines are
    greppable; everything else uses ``repr`` (shortest round-trip)."""
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class _Metric:
    """Shared base: name/label validation and label-key encoding."""

    kind = "untyped"
    _parent = None  # a child's metric: the same metric in the parent

    def __init__(self, name: str, help: str, label_names: tuple[str, ...],
                 lock: threading.Lock) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name: {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name: {label!r}")
        if len(set(label_names)) != len(label_names):
            raise MetricError(f"duplicate label names: {label_names!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = lock

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels {sorted(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_suffix(self, key: tuple[str, ...],
                      extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.label_names, key)
        ]
        pairs.extend(f'{name}="{_escape_label_value(value)}"'
                     for name, value in extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter(_Metric):
    """Monotonically increasing sum.  ``inc`` rejects negative deltas."""

    kind = "counter"

    def __init__(self, name, help, label_names, lock):
        super().__init__(name, help, label_names, lock)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters cannot decrease")
        key, metric = self._key(labels), self
        while metric is not None:  # this metric, then its parent's chain
            with metric._lock:
                metric._values[key] = metric._values.get(key, 0.0) + amount
            metric = metric._parent

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination (0.0 when never incremented)."""
        with self._lock:
            return sum(self._values.values())

    def _reset(self) -> None:
        self._values.clear()

    def _snapshot_values(self):
        return [[list(key), value]
                for key, value in sorted(self._values.items())]

    def _load(self, values) -> None:
        for key, value in values:
            key = tuple(key)
            self._values[key] = self._values.get(key, 0.0) + value

    def _render(self, lines: list[str]) -> None:
        for key, value in sorted(self._values.items()):
            lines.append(
                f"{self.name}{self._label_suffix(key)} {_format_value(value)}"
            )


class Histogram(_Metric):
    """Fixed-bound histogram.

    Per label set it stores one count per bucket (plus the implicit
    ``+Inf`` overflow bucket) and the running sum.  Bucket counts are
    stored *non*-cumulatively — each observation lands in exactly one
    slot — and cumulated only at render time, which makes merging
    worker snapshots a plain element-wise add.
    """

    kind = "histogram"

    def __init__(self, name, help, label_names, lock,
                 buckets=DEFAULT_TIME_BUCKETS):
        super().__init__(name, help, label_names, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"{self.name}: histogram needs >= 1 bucket")
        if list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"{self.name}: bucket bounds must be strictly increasing"
            )
        if bounds[-1] == _INF:
            bounds = bounds[:-1]  # +Inf is always implicit
        self.buckets = bounds
        self._values: dict[tuple[str, ...], list] = {}

    def _state(self, key):
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = [[0] * (len(self.buckets) + 1), 0.0]
        return state

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        key, metric = self._key(labels), self
        while metric is not None:  # this metric, then its parent's chain
            slot = len(metric.buckets)  # +Inf unless a bound catches it
            for i, bound in enumerate(metric.buckets):
                if value <= bound:
                    slot = i
                    break
            with metric._lock:
                counts, total = metric._state(key)
                counts[slot] += 1
                metric._values[key][1] = total + value
            metric = metric._parent

    def count(self, **labels) -> int:
        with self._lock:
            state = self._values.get(self._key(labels))
            return sum(state[0]) if state else 0

    def sum(self, **labels) -> float:
        with self._lock:
            state = self._values.get(self._key(labels))
            return state[1] if state else 0.0

    def _reset(self) -> None:
        self._values.clear()

    def _snapshot_values(self):
        return [[list(key), {"counts": list(counts), "sum": total}]
                for key, (counts, total) in sorted(self._values.items())]

    def _load(self, values) -> None:
        for key, state in values:
            counts, total = self._state(tuple(key))
            incoming = state["counts"]
            if len(incoming) != len(counts):
                raise MetricError(
                    f"{self.name}: cannot merge snapshot with "
                    f"{len(incoming)} bucket slots into {len(counts)}"
                )
            for i, c in enumerate(incoming):
                counts[i] += c
            self._values[tuple(key)][1] = total + state["sum"]

    def _render(self, lines: list[str]) -> None:
        for key, (counts, total) in sorted(self._values.items()):
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                suffix = self._label_suffix(
                    key, extra=(("le", _format_value(bound)),)
                )
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            cumulative += counts[-1]
            suffix = self._label_suffix(key, extra=(("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            lines.append(
                f"{self.name}_sum{self._label_suffix(key)} "
                f"{_format_value(total)}"
            )
            lines.append(
                f"{self.name}_count{self._label_suffix(key)} {cumulative}"
            )


class MetricsRegistry:
    """A named family of metrics with get-or-create registration."""

    def __init__(self, parent: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._parent = parent

    def _register(self, cls, name, help, labels, **kwargs):
        labels = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != labels:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.label_names}"
                )
            if kwargs.get("buckets") is not None and tuple(
                float(b) for b in kwargs["buckets"]
            ) != existing.buckets:
                raise MetricError(
                    f"metric {name!r} already registered with different "
                    "bucket bounds"
                )
            return existing
        metric = cls(name, help, labels, self._lock, **{
            k: v for k, v in kwargs.items() if v is not None
        })
        if self._parent is not None:
            metric._parent = self._parent._register(
                cls, name, help, labels, **kwargs
            )
        with self._lock:
            # Lost registration race: keep the first one registered.
            return self._metrics.setdefault(name, metric)

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets=None) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def value(self, name: str, **labels) -> float:
        """Read one registered counter: the series ``labels`` name, or
        the sum over every label set when none are given."""
        with self._lock:
            metric = self._metrics[name]
        return metric.value(**labels) if labels else metric.total()

    def reset(self) -> None:
        """Zero every value **in place** — metric objects held by
        instrumentation modules stay valid."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric, deterministic ordering."""
        out = {}
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            with self._lock:
                values = metric._snapshot_values()
            entry = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
                "values": values,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[name] = entry
        return out

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into
        this registry, creating metrics as needed.  Counters and
        histogram buckets add."""
        for name, entry in sorted(snapshot.items()):
            kind = entry.get("kind")
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""),
                                      tuple(entry.get("labels", ())))
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""),
                    tuple(entry.get("labels", ())),
                    buckets=entry.get("buckets"),
                )
            else:
                raise MetricError(f"unknown metric kind in snapshot: {kind!r}")
            with self._lock:
                metric._load(entry.get("values", ()))

    def render_prometheus(self) -> str:
        """Text exposition (version 0.0.4); ends with a newline."""
        lines: list[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            with self._lock:
                metric._render(lines)
        return "\n".join(lines) + "\n" if lines else ""


def count_field(name: str, **labels) -> property:
    """A read-only ``int`` attribute of a per-owner view: counter
    ``name`` (see :meth:`MetricsRegistry.value`) in the view's
    ``metrics`` registry."""
    return property(lambda view: int(view.metrics.value(name, **labels)))


def merge_snapshots(snapshots) -> dict:
    """Merge an iterable of registry snapshots into one (fresh) snapshot."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge_snapshot(snap)
    return merged.snapshot()


def counter_value(snapshot: dict, name: str, **labels) -> float:
    """Read one counter series out of a snapshot; sums over every label
    set when no labels are given.  Missing metrics read as 0.0."""
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    if not labels:
        return float(sum(value for _, value in entry["values"]))
    want = [str(labels[label]) for label in entry["labels"]]
    for key, value in entry["values"]:
        if list(key) == want:
            return float(value)
    return 0.0


# ---------------------------------------------------------------------------
# Default (process-global) registry and convenience wrappers.

_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _DEFAULT


def counter(name: str, help: str = "",
            labels: tuple[str, ...] = ()) -> Counter:
    return _DEFAULT.counter(name, help, labels)


def histogram(name: str, help: str = "", labels: tuple[str, ...] = (),
              buckets=None) -> Histogram:
    return _DEFAULT.histogram(name, help, labels, buckets=buckets)


def snapshot() -> dict:
    return _DEFAULT.snapshot()


def render_prometheus() -> str:
    return _DEFAULT.render_prometheus()


def reset_metrics() -> None:
    _DEFAULT.reset()
