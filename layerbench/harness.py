"""Measurement helpers shared by the workloads: percentiles that refuse
to report without support, round bookkeeping, process clocks and peak
RSS, and the result printer."""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

from layers import lp_memo_counts

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it; fewer would make it a statement about a handful of outliers."""

MIN_OPS = 100
"""Every run serves at least this many timed operations, so that
``MIN_BEYOND`` samples lie beyond p90."""


class PercentileSupportError(RuntimeError):
    """Raised when too few samples lie beyond a requested percentile."""


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> tuple[float, int]:
    """The ``q``-quantile (0 < q < 1) of ``samples`` by linear
    interpolation between order statistics, and the number of samples
    ranked strictly beyond it.

    Raises :class:`PercentileSupportError` when fewer than
    ``min_beyond`` samples lie beyond the quantile.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    position = q * (n - 1)
    low = math.floor(position + 1e-9)
    beyond = n - 1 - low
    if n == 0 or beyond < min_beyond:
        raise PercentileSupportError(
            f"p{q * 100:g} needs {min_beyond} samples beyond it; "
            f"{n} samples leave {max(beyond, 0)}"
        )
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, beyond


def rounds_for(seconds: float, nominal_round_s: float, round_ops: int) -> int:
    """Whole rounds that fill about ``seconds`` on the reference machine
    (2 cores), and at least :data:`MIN_OPS` operations.

    The count depends only on the arguments, never on measured time, so
    every run of a workload serves the same operations.
    """
    return max(round(seconds / nominal_round_s), math.ceil(MIN_OPS / round_ops), 1)


def since_process_start() -> float:
    """Seconds since this process was created (interpreter start
    included), from the kernel's process start time."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a live process in MiB (``ru_maxrss`` would inherit the
    parent's high-water mark across execve)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


@dataclass
class Pass:
    """Timed operations of one closed-loop pass over the workload."""

    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    round_rates: list[float] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    def record(self, kind: str, latency: float, ok: bool) -> None:
        if not ok:
            self.failed.add(len(self.latencies))
        self.latencies.append(latency)
        self.kinds.append(kind)

    def close_round(self, ops: int, seconds: float) -> None:
        self.round_rates.append(ops / seconds)

    def throughput(self) -> float:
        """Completed operations per second, averaged over rounds after
        dropping the fastest and the slowest round (when there are four
        or more): a round that draws a rare slow input cannot move it
        far, and the other rounds average out host speed changes."""
        rates = sorted(self.round_rates)
        if len(rates) >= 4:
            rates = rates[1:-1]
        return statistics.fmean(rates)


class InProcess:
    """Shared driver of the workloads served inside this process: one
    closed-loop client feeding ``self.events`` (``(kind, request)``
    pairs) to a serving generator over ``self.session``."""

    ROUND_OPS: int

    def closed_loop(self, serve, tracer=None, ok=lambda index, response: True) -> Pass:
        run = Pass()
        sent = [0.0]

        def feed():
            for _, event in self.events:
                sent[0] = time.perf_counter()
                yield json.dumps(event)

        self.responses: list[dict] = []
        self.stats_before = self.session.stats.to_dict()
        memo_before = lp_memo_counts()
        with tracer if tracer is not None else contextlib.nullcontext():
            run.start = round_start = time.perf_counter()
            for response in serve(feed()):
                now = time.perf_counter()
                index = len(self.responses)
                self.responses.append(response)
                good = "error" not in response and ok(index, response)
                run.record(self.events[index][0], now - sent[0], good)
                if len(self.responses) % self.ROUND_OPS == 0:
                    run.close_round(self.ROUND_OPS, now - round_start)
                    round_start = now
            run.end = time.perf_counter()
        self.memo = [a - b for a, b in zip(lp_memo_counts(), memo_before)]
        return run

    def peak_rss_pid(self) -> str:
        return "self"

    def layer_extras(self) -> dict:
        hits, misses = self.memo
        return {
            "session": counter_delta(self.session.stats.to_dict(), self.stats_before),
            "memo_hits": hits,
            "memo_misses": misses,
        }

    def traced_spans(self, tracer) -> list[list]:
        return tracer.spans

    def close(self) -> None:
        self.session = None


def counter_delta(after: dict, before: dict) -> dict:
    """Counters accumulated between two snapshots of the same dict."""
    return {key: after[key] - before.get(key, 0) for key in after}


def end_to_end(run: Pass, setup_s: float, rss_mb: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a pass plus their printable rows."""
    ms = [x * 1000.0 for x in run.latencies]
    p50, beyond50 = percentile(ms, 0.5)
    p90, beyond90 = percentile(ms, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (run.throughput(), "req/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    notes = {
        "setup_s": "median of repeated set-ups, imports once",
        "throughput_rps": "trimmed mean of rounds "
        + " ".join(f"{rate:.4g}" for rate in run.round_rates),
        "latency_p50_ms": f"n={len(ms)}, {beyond50} beyond",
        "latency_p90_ms": f"n={len(ms)}, {beyond90} beyond",
        "peak_rss_mb": "VmHWM of the serving process",
    }
    rows = [
        f"  {name:<16} {value:>12.4f} {unit:<6} {notes[name]}"
        for name, (value, unit) in metrics.items()
    ]
    by_kind: dict[str, list[float]] = {}
    for kind, x in zip(run.kinds, ms):
        by_kind.setdefault(kind, []).append(x)
    for kind, xs in sorted(by_kind.items()):
        rows.append(
            f"  {kind + ' ops':<16} {statistics.median(xs):>12.4f} ms     "
            f"median of {len(xs)}"
        )
    return metrics, rows


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the contract's result object as the last stdout line."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
