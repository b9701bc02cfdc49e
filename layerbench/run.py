"""Layered benchmark of the node-private component counter.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop workload (``giant-lp``, ``contact-edits`` or
``hot-daemon``, see their modules) in this fresh process, from the
program source under ``src/`` of the checkout it sits in.  ``--seconds``
fixes how many whole rounds of operations the run serves (about that
many seconds on a 2-core machine); the inputs depend only on
``--seed``.  Correctness checks run after the timed phase and every
mismatch counts as a failed operation.

``--trace 0`` prints the end-to-end metrics and installs nothing.
``--trace 1`` serves the workload twice, untraced and then with the
layer wrappers of ``layers.py`` installed, prints one row per layer and
reports the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

from harness import emit, end_to_end, peak_rss_mb, percentile, rounds_for, since_process_start
from layers import Tracer, aggregate, dump_spans, observed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = {
    "giant-lp": ("giant_lp", "GiantLP"),
    "contact-edits": ("contact_edits", "ContactEdits"),
    "hot-daemon": ("hot_daemon", "HotDaemon"),
}
SETUP_REPEATS = 3

# Per-layer metrics: "<layer>.calls|s|self_s" come from the spans; the
# rest are derived in ``per_layer_metrics``.
PER_LAYER = (
    ("flow.max_flow.calls", "count"),
    ("flow.max_flow.s", "s"),
    ("lp.separation.self_s", "s"),
    ("lp.highs.calls", "count"),
    ("lp.highs.s", "s"),
    ("lp.colgen.self_s", "s"),
    ("lp.solve.calls", "count"),
    ("lp.solve.s", "s"),
    ("lp.memo_hit_ratio", "ratio"),
    ("lp.status.exact", "count"),
    ("lp.status.snapped", "count"),
    ("lp.status.approx", "count"),
    ("lp.status.outer-bound", "count"),
    ("graphs.component_fingerprint.calls", "count"),
    ("graphs.component_fingerprint.s", "s"),
    ("graphs.apply_edits.s", "s"),
    ("extension.values_for_grid.self_s", "s"),
    ("extension.batched_trees.s", "s"),
    ("extension.repair.s", "s"),
    ("extension.export_tables.s", "s"),
    ("extension.preload_tables.s", "s"),
    ("cache.key.calls", "count"),
    ("cache.key.s", "s"),
    ("session.query.self_s", "s"),
    ("session.graph_misses", "count"),
    ("session.component_hits", "count"),
    ("session.component_misses", "count"),
    ("session.component_promotions", "count"),
    ("data.resolve.calls", "count"),
    ("data.resolve.s", "s"),
    ("mechanisms.gem.s", "s"),
    ("estimators.create.s", "s"),
    ("batch.serve_request.self_s", "s"),
    ("daemon.audit_append.s", "s"),
    ("daemon.account_save.s", "s"),
    ("daemon.account_bytes", "B"),
    ("daemon.busy_frac", "ratio"),
    ("daemon.wait_ms", "ms"),
    ("trace.overhead", "ratio"),
)
SPAN_FIELDS = {"calls": "calls", "s": "busy_s", "self_s": "self_s"}
LOCK_HELD = ("batch.serve_request", "daemon.audit_append", "daemon.account_save")


def per_layer_metrics(stats, spans, extras, run, base) -> dict:
    def busy(layer):
        return stats[layer].busy_s if layer in stats else 0.0

    wall = run.end - run.start
    hits, misses = extras["memo_hits"], extras["memo_misses"]
    statuses = observed(spans, "lp.solve", run.start, run.end)
    saves = observed(spans, "daemon.account_save", run.start, run.end)
    daemon = "daemon.audit_append" in stats
    releases = stats["batch.serve_request"].calls if daemon else 0
    derived = {
        "lp.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "daemon.account_bytes": statistics.fmean(saves) if saves else 0.0,
        "daemon.busy_frac": sum(map(busy, LOCK_HELD)) / wall if daemon else 0.0,
        "daemon.wait_ms": (
            percentile([x * 1000.0 for x in run.latencies], 0.5)[0]
            - 1000.0 * sum(map(busy, LOCK_HELD)) / releases
            if daemon
            else 0.0
        ),
        "trace.overhead": run.throughput() / base.throughput(),
    }
    for status in ("exact", "snapped", "approx", "outer-bound"):
        derived[f"lp.status.{status}"] = statuses.count(status)
    for key, value in extras["session"].items():
        derived[f"session.{key}"] = value
    metrics = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif layer in stats:
            value = getattr(stats[layer], SPAN_FIELDS[field])
        else:
            value = 0
        metrics[name] = (value, unit)
    return metrics


def layer_rows(stats, wall: float) -> list[str]:
    rows = [f"  {'layer':<30} {'calls':>8} {'busy s':>10} {'self s':>10} {'share':>7}"]
    for name in sorted(stats, key=lambda n: -stats[n].self_s):
        s = stats[name]
        rows.append(
            f"  {name:<30} {s.calls:>8} {s.busy_s:>10.4f} {s.self_s:>10.4f} "
            f"{s.self_s / wall:>7.1%}"
        )
    unwrapped = wall - sum(s.self_s for s in stats.values())
    rows.append(
        f"  {'(unwrapped)':<30} {'':>8} {'':>10} {unwrapped:>10.4f} {unwrapped / wall:>7.1%}"
    )
    rows.append(f"  {'(traced wall)':<30} {'':>8} {'':>10} {wall:>10.4f} {1:>7.1%}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the daemon it started (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"layerbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    import_s = since_process_start()
    rounds = rounds_for(args.seconds, workload_cls.NOMINAL_ROUND_S, workload_cls.ROUND_OPS)
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    workload = workload_cls(work, args.seed, rounds)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.prepare()
            setups.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(setups)
        base = None
        if args.trace:
            base = workload.timed_pass()
            workload.prepare(traced=True)
        tracer = Tracer() if args.trace else None
        run = workload.timed_pass(tracer)
        rss = peak_rss_mb(workload.peak_rss_pid())
        failed_checks = workload.check(run)
        if args.trace:
            extras = workload.layer_extras()
            spans = workload.traced_spans(tracer)
            trace_path = os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.jsonl")
            dump_spans(spans, trace_path)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    header = (
        f"layerbench {args.workload} seed={args.seed} rounds={rounds} "
        f"ops={len(run.latencies)} trace={args.trace}"
    )
    e2e, rows = end_to_end(run, setup_s, rss)
    failed = len(run.failed) + failed_checks
    print(header + (" (end-to-end figures of the traced pass)" if args.trace else ""))
    print("\n".join(rows))
    print(f"  attempted {len(run.latencies)}  failed {failed}")
    if args.trace:
        stats = aggregate(spans, run.start, run.end)
        print("\n".join(layer_rows(stats, run.end - run.start)))
        metrics = per_layer_metrics(stats, spans, extras, run, base)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {value:>14.6g} {unit}")
        print(f"  spans written to {trace_path}")
    else:
        metrics = e2e
    emit(failed == 0, len(run.latencies), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
