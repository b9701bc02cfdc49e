"""Layer timing from outside the program.

Each layer is timed by replacing the binding its caller looks up — a
module global such as ``repro.core.extension.solve_component`` (not the
``repro.lp.forest_core`` original) or a class attribute such as
``FlowNetwork.max_flow`` — with a wrapper that records one span per call.
Nothing under ``src/`` is edited, and an untraced run installs nothing.

Spans are kept in memory as ``[name, start, end, parent, value]`` lists
(``parent`` is the index of the enclosing wrapped call on the same
thread, or -1; ``value`` is an optional per-call observation such as the
LP certificate status) and written out once the run ends.  Per-call
wrappers on per-edge work such as ``FlowNetwork.add_edge`` (~120k calls
per n=100 release) are deliberately absent: they would time the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Callable, Iterable, NamedTuple, Optional


def _solve_status(args, result):
    return result.status


def _saved_bytes(args, result):
    store, account = args[0], args[1]
    return os.path.getsize(store.path_for(account.tenant))


class Target(NamedTuple):
    """One wrapped binding: ``attr`` is ``name`` or ``Class.name``
    inside ``module``; ``observe(args, result)`` optionally extracts a
    value to store on the span."""

    layer: str
    module: str
    attr: str
    observe: Optional[Callable] = None


TARGETS: tuple[Target, ...] = (
    Target("flow.max_flow", "repro.flow.maxflow", "FlowNetwork.max_flow"),
    Target("lp.separation", "repro.lp.forest_core", "violated_forest_sets"),
    Target("lp.highs", "repro.lp.forest_core", "linprog"),
    Target("lp.colgen", "repro.lp.forest_core", "column_generation_component"),
    Target("lp.solve", "repro.core.extension", "solve_component", _solve_status),
    Target(
        "extension.values_for_grid",
        "repro.core.extension",
        "_ComponentwiseExtension.values_for_grid",
    ),
    Target("extension.batched_trees", "repro.core.extension", "batched_tree_values"),
    Target(
        "extension.repair",
        "repro.core.extension",
        "_ComponentwiseExtension._attempt_repair",
    ),
    Target(
        "extension.export_tables",
        "repro.core.extension",
        "_ComponentwiseExtension.export_component_tables",
    ),
    Target(
        "extension.preload_tables",
        "repro.core.extension",
        "_ComponentwiseExtension.preload_component_tables",
    ),
    Target(
        "graphs.component_fingerprint", "repro.core.extension", "component_fingerprint"
    ),
    Target("graphs.apply_edits", "repro.graphs.compact", "CompactGraph.apply_edits"),
    Target("cache.key", "repro.service.session", "component_extension_key"),
    Target("cache.key", "repro.service.session", "extension_key"),
    Target("session.query", "repro.service.session", "ReleaseSession.query"),
    Target("estimators.create", "repro.service.session", "create"),
    Target(
        "mechanisms.gem", "repro.core.algorithm", "generalized_exponential_mechanism"
    ),
    Target("data.resolve", "repro.service.batch", "resolve_graph_ref"),
    Target(
        "batch.serve_request", "repro.service.batch", "_RequestServer.serve_request"
    ),
    Target(
        "daemon.audit_append", "repro.service.daemon.audit", "AuditLog.append_release"
    ),
    Target(
        "daemon.account_save",
        "repro.service.daemon.accounts",
        "AccountStore.save",
        _saved_bytes,
    ),
    Target("daemon.frame", "repro.service.daemon.app", "json_response_bytes"),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, func: Callable, observe: Optional[Callable] = None):
        """Return ``func`` wrapped so that each call records a span."""
        spans, lock, local = self.spans, self._lock, self._local
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                record[4] = observe(args, result)
            return result

        return wrapper

    def install(self, targets: Iterable[Target] = TARGETS) -> "Tracer":
        """Replace every target binding with its wrapper.

        The original is read from the owner's own ``__dict__``, so a
        target that moved or is only inherited fails loudly here
        instead of silently timing nothing.
        """
        for target in targets:
            owner = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(target.layer, original, target.observe))
        return self

    def remove(self) -> None:
        """Restore every original binding, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def dump(self, path: str) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans: list[list], path: str) -> None:
    """Write spans as JSON lines ``[name, start, end, parent, value]``."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")


def lp_memo_counts() -> tuple[float, float]:
    """Process-wide LP memo hits and misses from the telemetry registry."""
    from repro import telemetry

    snap = telemetry.snapshot()
    return (
        telemetry.counter_value(snap, "repro_lp_memo_total", result="hit"),
        telemetry.counter_value(snap, "repro_lp_memo_total", result="miss"),
    )


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class LayerStats(NamedTuple):
    calls: int
    busy_s: float
    self_s: float


def aggregate(spans: list[list], start: float, end: float) -> dict[str, LayerStats]:
    """Per-layer calls, busy time and self time of the finished spans
    lying inside ``[start, end]``.

    Busy time sums the spans of a layer that have no ancestor of the
    same layer (so recursion is not counted twice); self time is each
    span's duration minus the durations of its direct wrapped children.
    """
    chosen = {
        i
        for i, (_, s, e, _, _) in enumerate(spans)
        if e > 0.0 and s >= start and e <= end
    }
    child_time: dict[int, float] = {}
    for i in chosen:
        parent = spans[i][3]
        if parent in chosen:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i][2] - spans[i][1]
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for i in sorted(chosen):
        name, s, e, parent, _ = spans[i]
        duration = e - s
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - child_time.get(i, 0.0)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[name] = busy.get(name, 0.0) + duration
    return {
        name: LayerStats(calls[name], busy.get(name, 0.0), self_time[name])
        for name in calls
    }


def observed(spans: list[list], layer: str, start: float, end: float) -> list:
    """The observed values of ``layer``'s spans inside ``[start, end]``."""
    return [
        v
        for name, s, e, _, v in spans
        if name == layer and e > 0.0 and s >= start and e <= end
    ]
