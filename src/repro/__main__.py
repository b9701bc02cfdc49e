"""Command-line interface.

Subcommands
-----------
``count``        Release a node-private estimate of the number of
                 connected components of a graph stored as an edge list.
``estimate``     Run any registered estimator on an edge list
                 (``--list-estimators`` enumerates the registry).
``serve-batch``  Answer JSONL release requests through an amortized
                 :class:`~repro.service.ReleaseSession` (JSONL out).
                 ``--cache-dir`` persists warm extension tables across
                 restarts; ``--workers N`` shards requests across
                 processes by graph fingerprint (byte-identical output
                 for any worker count).
``serve``        Long-lived multi-tenant HTTP release daemon: per-tenant
                 ε budgets, an fsync'd append-only audit log that is the
                 durable ledger of ε spent (one durable write per
                 release; accounts are rebuilt from it at startup, so
                 spent ε survives ``kill -9`` exactly), and structured
                 admission-control rejections.  ``serve-batch`` stays
                 the offline path.
``profile``      Run one release under span tracing and print a
                 per-stage time breakdown (extension build, LP solves,
                 GEM selection, noise).
``stats``        Print exact (non-private) structural statistics.
``datasets``     List the named dataset registry (``repro.data``) with
                 per-entry cache status and content fingerprints;
                 ``--fetch <name>`` runs the ingestion pipeline now.
``replay``       Expand a declarative workload-replay spec (Zipf graph
                 skew, mixed estimators and budgets, seeded) into the
                 JSONL ``serve-batch`` consumes; byte-deterministic.
``generate``     Sample a graph from a built-in family and write it out.
``sweep``        Run a config-driven experiment sweep into a resumable
                 on-disk result store.
``resume``       Continue an interrupted sweep (stored cells are reused).
``report``       Assemble report JSON / CSV from a store without
                 computing.

``count`` and ``stats`` load integer-labelled edge lists straight into
the array-backed :class:`~repro.graphs.compact.CompactGraph`, so the
statistics run through the vectorized kernels; string-labelled inputs
fall back to the reference object graph automatically.  Paths ending in
``.gz`` are read and written through gzip.

Examples
--------
    python -m repro generate --family geometric --n 200 --radius 0.08 \
        --seed 7 --output contacts.edges
    python -m repro count --input contacts.edges --epsilon 1.0 --seed 1
    python -m repro stats --input contacts.edges
    python -m repro generate --family er --n 100000 --p 2e-5 --seed 1 \
        --engine compact --output big.edges.gz
    python -m repro sweep --spec sweep.json --store results/store \
        --workers 4 --report results/report.json --csv results/table.csv
    python -m repro estimate contacts.edges --estimator sf --epsilon 0.5 \
        --seed 3
    python -m repro estimate --list-estimators
    python -m repro serve-batch --graph contacts.edges \
        --requests queries.jsonl --output releases.jsonl
    python -m repro serve-batch --requests queries.jsonl --workers 4 \
        --cache-dir ext-cache --output releases.jsonl
    python -m repro serve --port 8765 --state-dir daemon-state \
        --tenant-budget 4.0 --graph contacts.edges
    python -m repro profile contacts.edges --estimator cc --epsilon 1.0 \
        --seed 1
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time

import numpy as np

from . import telemetry
from .core.algorithm import PrivateConnectedComponents
from .data import DatasetError
from .estimators import create, get_spec, registry_specs
from .experiments import cli as experiments_cli
from .service import (
    ReleaseSession,
    serve_edit_stream,
    serve_jsonl,
    serve_jsonl_parallel,
)
from .graphs import generators
from .graphs.compact import as_compact
from .graphs.components import number_of_connected_components, spanning_forest_size
from .graphs.forests import approx_min_degree_spanning_forest
from .graphs.io import read_edge_list_auto, write_edge_list
from .graphs.stars import star_number_lower_bound, star_number_upper_bound

_GRAPH_REF_HELP = (
    "edge-list file (.gz ok), .npz store, or dataset:<name> from the "
    "dataset registry (see 'repro datasets')"
)


def _load_graph_ref(ref: str):
    """Load a CLI graph reference.

    ``dataset:<name>`` resolves through the :mod:`repro.data` registry
    and its content-addressed cache; anything else is a file path, read
    with the string-label object-graph fallback intact.
    """
    if isinstance(ref, str) and ref.startswith("dataset:"):
        from .data import resolve_graph_ref

        return resolve_graph_ref(ref)
    return read_edge_list_auto(ref)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Node-differentially private connected-component counts "
        "(PODS 2023 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    count = subparsers.add_parser(
        "count", help="node-private estimate of the number of components"
    )
    count.add_argument("--input", required=True, help=_GRAPH_REF_HELP)
    count.add_argument("--epsilon", type=float, default=1.0, help="privacy budget")
    count.add_argument("--seed", type=int, default=None, help="RNG seed")
    count.add_argument(
        "--show-true",
        action="store_true",
        help="also print the exact count (breaks privacy; debugging only)",
    )

    estimate = subparsers.add_parser(
        "estimate",
        help="run any registered estimator on an edge-list file",
    )
    estimate.add_argument("input", nargs="?", help=_GRAPH_REF_HELP)
    estimate.add_argument(
        "--estimator",
        default="cc",
        help="registry name or alias (see --list-estimators)",
    )
    estimate.add_argument(
        "--epsilon", type=float, default=1.0, help="privacy budget"
    )
    estimate.add_argument("--seed", type=int, default=None, help="RNG seed")
    estimate.add_argument(
        "--json",
        action="store_true",
        help="emit the release as one JSON line instead of text",
    )
    estimate.add_argument(
        "--show-true",
        action="store_true",
        help="also print the exact value (breaks privacy; debugging only)",
    )
    estimate.add_argument(
        "--list-estimators",
        action="store_true",
        help="enumerate the estimator registry and exit",
    )

    serve = subparsers.add_parser(
        "serve-batch",
        help="answer JSONL release requests via an amortized session",
    )
    serve.add_argument(
        "--requests",
        default="-",
        help="JSONL request file ('-' = stdin; one JSON object per line)",
    )
    serve.add_argument(
        "--output",
        default="-",
        help="where to write JSONL releases ('-' = stdout)",
    )
    serve.add_argument(
        "--graph",
        default=None,
        help="default graph served to requests that name no graph "
        f"({_GRAPH_REF_HELP})",
    )
    serve.add_argument(
        "--total-epsilon",
        type=float,
        default=None,
        help="shared privacy budget across the whole batch "
        "(requests beyond it get budget-exceeded error lines)",
    )
    serve.add_argument(
        "--max-graphs",
        type=int,
        default=8,
        help="how many hot graphs keep warm extension tables resident",
    )
    serve.add_argument(
        "--allow-non-private",
        action="store_true",
        help="let a budgeted batch (--total-epsilon) also serve the "
        "exact non_private estimator, which spends no budget",
    )
    serve.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help="root entropy for requests without an explicit seed",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent extension-cache directory: warm tables survive "
        "restarts (holds pre-noise state; permission it like the raw "
        "graph data)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; requests are sharded deterministically "
        "by graph fingerprint and output is byte-identical to "
        "--workers 1 (incompatible with --total-epsilon)",
    )
    serve.add_argument(
        "--telemetry-log",
        default=None,
        help="append JSONL telemetry events here (per-release root "
        "spans with --workers 1, plus a final metrics snapshot); "
        "never changes served output",
    )
    serve.add_argument(
        "--edits",
        default=None,
        help="serve an edit-stream JSONL instead of --requests: lines "
        "with an 'edits' field ([op, u, v] triples, op '+'/'-') "
        "advance the current graph version, every other line is a "
        "release request against it; requires --graph (version zero) "
        "and --workers 1",
    )
    serve.add_argument(
        "--edits-mode",
        choices=("incremental", "rebuild"),
        default="incremental",
        help="incremental: promote per-component extension tables so "
        "only components touched by an edit batch recompute; rebuild: "
        "disable promotion and pay a cold full rebuild per graph "
        "version (served output is byte-identical either way)",
    )

    daemon = subparsers.add_parser(
        "serve",
        help="long-lived multi-tenant HTTP release daemon with durable "
        "per-tenant privacy-budget accounts and an append-only audit log",
    )
    daemon.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    daemon.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 = pick a free port and print it)",
    )
    daemon.add_argument(
        "--state-dir",
        required=True,
        help="durable state root: per-tenant budgets "
        "(accounts/<tenant>.json, written once at provisioning) and the "
        "fsync'd audit log (audit.jsonl), which records every release "
        "and is the only ledger of epsilon spent (replayed at startup); "
        "holds privacy-critical accounting state — permission it "
        "accordingly",
    )
    daemon.add_argument(
        "--tenant-budget",
        type=float,
        default=None,
        help="auto-provision first-seen tenants with this total epsilon; "
        "omit to reject unknown tenants until provisioned via "
        "PUT /v1/tenants/<tenant>",
    )
    daemon.add_argument(
        "--graph",
        default=None,
        help="default graph served to requests that name no graph "
        f"({_GRAPH_REF_HELP})",
    )
    daemon.add_argument(
        "--max-graphs",
        type=int,
        default=8,
        help="how many hot graphs keep warm extension tables resident",
    )
    daemon.add_argument(
        "--cache-dir",
        default=None,
        help="persistent extension-cache directory shared with "
        "serve-batch (pre-noise state; permission it like the raw "
        "graph data)",
    )
    daemon.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help="root entropy for requests without an explicit seed "
        "(spawn-keyed by audit sequence number)",
    )
    daemon.add_argument(
        "--allow-non-private",
        action="store_true",
        help="also serve the exact non_private estimator, which spends "
        "no tenant budget",
    )
    daemon.add_argument(
        "--telemetry-log",
        default=None,
        help="append one JSONL telemetry event per served release here "
        "(tenant, estimator, epsilon, latency); never changes responses",
    )

    profile = subparsers.add_parser(
        "profile",
        help="run one release under span tracing and print a per-stage "
        "time breakdown",
    )
    profile.add_argument("input", help=_GRAPH_REF_HELP)
    profile.add_argument(
        "--estimator",
        default="cc",
        help="registry name or alias (see estimate --list-estimators)",
    )
    profile.add_argument(
        "--epsilon", type=float, default=1.0, help="privacy budget"
    )
    profile.add_argument("--seed", type=int, default=None, help="RNG seed")
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit the breakdown as one JSON object instead of a table",
    )

    stats = subparsers.add_parser("stats", help="exact, non-private statistics")
    stats.add_argument("--input", required=True, help=_GRAPH_REF_HELP)

    datasets = subparsers.add_parser(
        "datasets",
        help="list the dataset registry and its cache status",
    )
    datasets.add_argument(
        "--fetch",
        metavar="NAME",
        default=None,
        help="resolve NAME through the ingestion pipeline now "
        "(downloading if its source is remote) and print the cache entry",
    )
    datasets.add_argument(
        "--data-dir",
        default=None,
        help="dataset cache root (default: REPRO_DATA_DIR or "
        "~/.cache/repro/datasets)",
    )
    datasets.add_argument(
        "--json",
        action="store_true",
        help="emit the listing as one JSON array instead of text",
    )

    replay = subparsers.add_parser(
        "replay",
        help="expand a workload-replay spec into serve-batch JSONL "
        "requests (deterministic: same spec, same bytes)",
    )
    replay.add_argument(
        "--spec",
        required=True,
        help="replay spec JSON (name, requests, targets with estimator "
        "pools, epsilons, zipf_s, seed)",
    )
    replay.add_argument(
        "--output",
        default="-",
        help="where to write the JSONL workload ('-' = stdout, ready to "
        "pipe into repro serve-batch --requests -)",
    )
    replay.add_argument(
        "--requests",
        type=int,
        default=None,
        help="override the spec's request count",
    )

    generate = subparsers.add_parser("generate", help="sample a graph family")
    generate.add_argument(
        "--family",
        required=True,
        choices=[
            "er",
            "geometric",
            "tree",
            "forest",
            "grid",
            "star",
            "planted",
            "sbm",
            "ba",
        ],
    )
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--p", type=float, default=0.1, help="edge probability (er)")
    generate.add_argument("--radius", type=float, default=0.1, help="radius (geometric)")
    generate.add_argument("--trees", type=int, default=5, help="tree count (forest)")
    generate.add_argument(
        "--components", type=int, default=5, help="planted component count"
    )
    generate.add_argument(
        "--blocks", type=int, default=4, help="block count (sbm)"
    )
    generate.add_argument(
        "--p-in", type=float, default=0.05, help="within-block probability (sbm)"
    )
    generate.add_argument(
        "--p-out", type=float, default=0.001, help="cross-block probability (sbm)"
    )
    generate.add_argument(
        "--m", type=int, default=2, help="attachments per vertex (ba)"
    )
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument(
        "--engine",
        choices=["object", "compact"],
        default="object",
        help="compact = vectorized array sampling straight into the CSR "
        "kernel (er, grid, geometric, planted, sbm, ba); needed for "
        "n >= 1e5, where the object path's per-pair walk stalls",
    )
    generate.add_argument(
        "--output",
        required=True,
        help="output path (.gz ok; .npz writes the memmap-ready binary "
        "graph format directly, no edge-list text)",
    )

    experiments_cli.add_subparsers(subparsers)
    return parser


def _cmd_count(args: argparse.Namespace) -> int:
    try:
        graph = _load_graph_ref(args.input)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if graph.number_of_vertices() == 0:
        print("error: graph has no vertices", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    estimator = PrivateConnectedComponents(epsilon=args.epsilon)
    release = estimator.release(graph, rng)
    print(f"private estimate of connected components: {release.value:.2f}")
    print(f"  rounded:        {release.rounded_value}")
    print(f"  epsilon:        {args.epsilon}")
    print(f"  selected delta: {release.spanning_forest.delta_hat:g}")
    print(f"  noise scale:    {release.spanning_forest.noise_scale:.3f}")
    if args.show_true:
        print(f"  TRUE value (not private): {release.true_value}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.list_estimators:
        print("registered estimators (aliases in brackets):")
        for spec in registry_specs():
            aliases = f" [{', '.join(spec.aliases)}]" if spec.aliases else ""
            needs = "" if spec.requires_epsilon else " (no epsilon)"
            print(f"  {spec.name}{aliases}  ->  f_{spec.statistic}{needs}")
            print(f"      {spec.summary}")
            if spec.options:
                print(f"      options: {', '.join(spec.options)}")
        return 0
    if not args.input:
        print("error: estimate needs an edge-list file", file=sys.stderr)
        return 1
    try:
        spec = get_spec(args.estimator)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    try:
        graph = _load_graph_ref(args.input)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if graph.number_of_vertices() == 0:
        print("error: graph has no vertices", file=sys.stderr)
        return 1
    estimator = create(
        spec.name,
        epsilon=args.epsilon if spec.requires_epsilon else None,
        graph=graph,
    )
    if not estimator.supports(graph):
        print(
            f"error: estimator {spec.name!r} does not support this input "
            "as configured (size or degree restriction)",
            file=sys.stderr,
        )
        return 1
    release = estimator.release(graph, np.random.default_rng(args.seed))
    if args.json:
        print(release.to_json(include_true_value=args.show_true))
        return 0
    print(f"{spec.name} estimate of f_{release.statistic}: {release.value:.2f}")
    print(f"  epsilon:        {release.epsilon}")
    if release.delta_hat is not None:
        print(f"  selected delta: {release.delta_hat:g}")
    for label, amount in release.ledger:
        print(f"  ledger:         {label}: {amount:g}")
    print(f"  elapsed:        {release.elapsed_seconds * 1e3:.1f} ms")
    if args.show_true:
        print(f"  TRUE value (not private): {release.true_value:g}")
    return 0


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 1
    if args.workers > 1 and args.total_epsilon is not None:
        print(
            "error: --total-epsilon needs one shared accountant and is "
            "only supported with --workers 1 (a budget cannot be "
            "enforced across shards without serializing them)",
            file=sys.stderr,
        )
        return 1
    if args.edits is not None:
        if args.workers > 1:
            print(
                "error: --edits serves one evolving graph version chain "
                "and is only supported with --workers 1",
                file=sys.stderr,
            )
            return 1
        if args.requests != "-":
            print(
                "error: --edits replaces --requests (the edit stream "
                "carries the release requests)",
                file=sys.stderr,
            )
            return 1
        if args.graph is None:
            print(
                "error: --edits needs --graph as version zero of the "
                "evolving graph",
                file=sys.stderr,
            )
            return 1
    default_graph = None
    if args.graph is not None:
        try:
            default_graph = _load_graph_ref(args.graph)
        except DatasetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if default_graph.number_of_vertices() == 0:
            print("error: default graph has no vertices", file=sys.stderr)
            return 1

    source_path = args.edits if args.edits is not None else args.requests
    requests = (
        sys.stdin if source_path == "-" else open(source_path, "r")
    )
    output = sys.stdout if args.output == "-" else open(args.output, "w")
    telemetry_log = (
        None
        if args.telemetry_log is None
        else telemetry.TelemetryLog(args.telemetry_log)
    )
    tracer_installed = False
    served = errors = 0
    try:
        if args.workers == 1:
            session = ReleaseSession(
                max_graphs=args.max_graphs,
                total_epsilon=args.total_epsilon,
                allow_non_private=args.allow_non_private,
                cache_dir=args.cache_dir,
                component_promotion=(
                    args.edits is None or args.edits_mode == "incremental"
                ),
            )
            if telemetry_log is not None:
                # Stream root spans (one per release) to the log;
                # keep_spans=False bounds memory on long batches.
                telemetry.enable(
                    telemetry.Tracer(
                        keep_spans=False,
                        sink=telemetry_log.span_sink,
                        sink_max_depth=0,
                    )
                )
                tracer_installed = True
            if args.edits is not None:
                responses = serve_edit_stream(
                    requests,
                    session,
                    default_graph,
                    base_seed=args.base_seed,
                )
            else:
                responses = serve_jsonl(
                    requests,
                    session,
                    default_graph=default_graph,
                    base_seed=args.base_seed,
                )
            summary_stats = None
        else:
            result = serve_jsonl_parallel(
                requests,
                workers=args.workers,
                default_graph_path=args.graph,
                # The validation load above already fingerprinted the
                # default graph; don't make the router load it again.
                default_graph_fingerprint=(
                    None if default_graph is None
                    else as_compact(default_graph).fingerprint()
                ),
                base_seed=args.base_seed,
                max_graphs=args.max_graphs,
                allow_non_private=args.allow_non_private,
                cache_dir=args.cache_dir,
            )
            responses = result.responses
            summary_stats = result.worker_stats
        edits_applied = 0
        for response in responses:
            if "error" in response:
                errors += 1
            elif "applied" in response:
                edits_applied += 1
            else:
                served += 1
            output.write(json.dumps(response, sort_keys=True) + "\n")
        if args.workers == 1:
            session.persist_warm_extensions()
            cache_note = (
                "" if session.cache is None
                else f"; {session.stats.disk_warm_starts} disk warm starts"
            )
            print(
                f"served {served} releases ({errors} errors) on "
                f"{len(session)} cached graphs; graph-cache hit rate "
                f"{session.stats.hit_rate():.0%}{cache_note}",
                file=sys.stderr,
            )
            if args.edits is not None:
                stats = session.stats
                print(
                    f"applied {edits_applied} edit batches "
                    f"({args.edits_mode} mode); component-table lookups: "
                    f"{stats.component_hits} hits, "
                    f"{stats.component_misses} misses; "
                    f"{stats.component_promotions} tables promoted",
                    file=sys.stderr,
                )
        else:
            hits = sum(s["graph_hits"] for s in summary_stats)
            misses = sum(s["graph_misses"] for s in summary_stats)
            lookups = hits + misses
            warm = sum(s["disk_warm_starts"] for s in summary_stats)
            print(
                f"served {served} releases ({errors} errors) across "
                f"{args.workers} workers; graph-cache hit rate "
                f"{hits / lookups if lookups else 0.0:.0%}; "
                f"{warm} disk warm starts",
                file=sys.stderr,
            )
            # Worker registries merge into one snapshot; surface the
            # pipeline-level counters the per-worker stats don't carry.
            merged = result.metrics
            releases = telemetry.counter_value(merged, "repro_releases_total")
            memo_hits = telemetry.counter_value(
                merged, "repro_lp_memo_total", result="hit"
            )
            memo_total = memo_hits + telemetry.counter_value(
                merged, "repro_lp_memo_total", result="miss"
            )
            print(
                f"worker telemetry: {releases:.0f} pipeline releases; "
                f"lp memo hit rate "
                f"{memo_hits / memo_total if memo_total else 0.0:.0%} "
                f"({memo_hits:.0f}/{memo_total:.0f})",
                file=sys.stderr,
            )
        # Storage backends in play: the parent's own counters (it loads
        # the default graph) merged with the worker registries in the
        # parallel case.
        snap = telemetry.snapshot()
        if args.workers > 1:
            snap = telemetry.merge_snapshots([snap, result.metrics])
        memmap_loads = telemetry.counter_value(
            snap, "repro_graph_loads_total", backend="memmap"
        )
        ram_loads = telemetry.counter_value(
            snap, "repro_graph_loads_total", backend="ram"
        )
        print(
            f"graph loads: {memmap_loads:.0f} memmap, {ram_loads:.0f} ram",
            file=sys.stderr,
        )
        # Dataset-registry activity (requests naming dataset:<name>
        # refs); omitted when the batch touched no registry dataset.
        dataset_loads = {
            source: telemetry.counter_value(
                snap, "repro_dataset_loads_total", source=source
            )
            for source in ("snap", "synthetic", "local")
        }
        if sum(dataset_loads.values()):
            detail = ", ".join(
                f"{count:.0f} {source}"
                for source, count in dataset_loads.items()
                if count
            )
            cache_hits = telemetry.counter_value(
                snap, "repro_dataset_cache_total", result="hit"
            )
            cache_misses = telemetry.counter_value(
                snap, "repro_dataset_cache_total", result="miss"
            )
            print(
                f"dataset loads: {sum(dataset_loads.values()):.0f} "
                f"({detail}); dataset cache: {cache_hits:.0f} hits, "
                f"{cache_misses:.0f} misses (ingestions)",
                file=sys.stderr,
            )
        if telemetry_log is not None:
            telemetry_log.metrics_event(
                snapshot=None if args.workers == 1 else result.metrics,
                served=served,
                errors=errors,
            )
    finally:
        if tracer_installed:
            telemetry.disable()
        if telemetry_log is not None:
            telemetry_log.close()
        if requests is not sys.stdin:
            requests.close()
        if output is not sys.stdout:
            output.close()
    # One bad line never fails the batch; a batch where *nothing*
    # succeeded exits nonzero so operators notice.
    return 1 if errors and not (served or edits_applied) else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.daemon import ReleaseDaemon

    try:
        daemon = ReleaseDaemon(
            args.state_dir,
            default_tenant_budget=args.tenant_budget,
            default_graph_path=args.graph,
            max_graphs=args.max_graphs,
            extension_cache_dir=args.cache_dir,
            base_seed=args.base_seed,
            allow_non_private=args.allow_non_private,
            telemetry_log_path=args.telemetry_log,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    async def _run() -> int:
        ready = asyncio.Event()
        task = asyncio.ensure_future(
            daemon.serve(args.host, args.port, ready=ready)
        )
        await ready.wait()
        # The parseable "listening" line (stdout, flushed) is the
        # contract the smoke scripts use to learn a --port 0 choice.
        print(
            f"repro serve: listening on http://{args.host}:{daemon.port} "
            f"(state: {args.state_dir})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, task.cancel)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loop: Ctrl-C still raises below
        try:
            await task
        except asyncio.CancelledError:
            print("repro serve: shut down cleanly", file=sys.stderr)
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0
    except OSError as exc:
        print(
            f"error: cannot listen on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        spec = get_spec(args.estimator)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    try:
        graph = _load_graph_ref(args.input)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if graph.number_of_vertices() == 0:
        print("error: graph has no vertices", file=sys.stderr)
        return 1
    estimator = create(
        spec.name,
        epsilon=args.epsilon if spec.requires_epsilon else None,
        graph=graph,
    )
    if not estimator.supports(graph):
        print(
            f"error: estimator {spec.name!r} does not support this input "
            "as configured (size or degree restriction)",
            file=sys.stderr,
        )
        return 1
    rng = np.random.default_rng(args.seed)
    with telemetry.tracing() as tracer:
        wall_start = time.perf_counter()
        release = estimator.release(graph, rng)
        wall_seconds = time.perf_counter() - wall_start
    stages = telemetry.aggregate_stage_times(tracer.spans)
    stage_total = sum(s["self_seconds"] for s in stages.values())
    ordered = sorted(
        stages.items(), key=lambda item: item[1]["self_seconds"], reverse=True
    )
    if args.json:
        print(
            json.dumps(
                {
                    "estimator": spec.name,
                    "epsilon": release.epsilon,
                    "seed": args.seed,
                    "value": release.value,
                    "wall_seconds": wall_seconds,
                    "stage_total_seconds": stage_total,
                    "stages": {
                        name: dict(stage) for name, stage in ordered
                    },
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"profile of {spec.name} release on {args.input}")
    print(f"  value:   {release.value:.4f}")
    print(f"  wall:    {wall_seconds * 1e3:.2f} ms "
          f"({len(tracer.spans)} spans)")
    print(f"  {'stage':<28} {'calls':>6} {'self ms':>10} {'% wall':>7}")
    for name, stage in ordered:
        pct = 100.0 * stage["self_seconds"] / wall_seconds if wall_seconds else 0.0
        print(
            f"  {name:<28} {stage['count']:>6} "
            f"{stage['self_seconds'] * 1e3:>10.3f} {pct:>6.1f}%"
        )
    traced_pct = 100.0 * stage_total / wall_seconds if wall_seconds else 0.0
    print(
        f"  {'total traced':<28} {'':>6} "
        f"{stage_total * 1e3:>10.3f} {traced_pct:>6.1f}%"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        graph = _load_graph_ref(args.input)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _, delta_upper = approx_min_degree_spanning_forest(graph)
    print(f"vertices:                 {graph.number_of_vertices()}")
    print(f"edges:                    {graph.number_of_edges()}")
    print(f"max degree:               {graph.max_degree()}")
    print(f"connected components:     {number_of_connected_components(graph)}")
    print(f"spanning forest size:     {spanning_forest_size(graph)}")
    print(f"delta* upper bound:       {delta_upper}")
    print(f"star number lower bound:  {star_number_lower_bound(graph)}")
    print(f"star number upper bound:  {star_number_upper_bound(graph)}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .experiments import replay as replay_mod

    try:
        spec = replay_mod.load_spec(args.spec)
        if args.requests is not None:
            spec = replace(spec, requests=args.requests)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    output = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        count = replay_mod.write_jsonl(spec, output)
    finally:
        if output is not sys.stdout:
            output.close()
    print(
        f"replay {spec.name!r}: wrote {count} requests over "
        f"{len(spec.targets)} graphs (zipf_s={spec.zipf_s:g}, "
        f"seed={spec.seed})",
        file=sys.stderr,
    )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from . import data
    from .data.datasets import cache_entry

    if args.fetch is not None:
        try:
            spec = data.get_dataset(args.fetch)
            graph = data.resolve(spec, data_dir=args.data_dir, fetch=True)
        except data.DatasetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        npz_path, _ = cache_entry(spec, args.data_dir)
        print(
            f"{spec.name}: {graph.number_of_vertices()} vertices, "
            f"{graph.number_of_edges()} edges"
        )
        print(f"  cache:       {npz_path}")
        print(f"  fingerprint: {graph.fingerprint()}")
        return 0

    cache_root = (
        args.data_dir if args.data_dir is not None else data.dataset_cache_dir()
    )
    rows = []
    for spec in data.registry_datasets():
        npz_path, sidecar_path = cache_entry(spec, args.data_dir)
        entry: dict = {
            "name": spec.name,
            "kind": spec.kind,
            "cached": os.path.exists(npz_path),
            "summary": spec.summary,
            "spec_fingerprint": spec.spec_fingerprint(),
        }
        if entry["cached"] and os.path.exists(sidecar_path):
            with open(sidecar_path, encoding="utf-8") as handle:
                sidecar = json.load(handle)
            entry["fingerprint"] = sidecar.get("fingerprint")
            entry["vertices"] = sidecar.get("vertices")
            entry["edges"] = sidecar.get("edges")
            entry["normalization"] = sidecar.get("normalization")
        rows.append(entry)
    if args.json:
        print(json.dumps(rows, sort_keys=True))
        return 0
    print(f"registered datasets (cache root: {cache_root}):")
    for entry in rows:
        if entry["cached"] and "fingerprint" in entry:
            status = (
                f"cached: {entry['vertices']} vertices / "
                f"{entry['edges']} edges, "
                f"fingerprint {str(entry['fingerprint'])[:12]}"
            )
        elif entry["cached"]:
            status = "cached"
        else:
            status = "not cached (resolve with --fetch)"
        print(f"  {entry['name']} ({entry['kind']}) — {status}")
        print(f"      {entry['summary']}")
    return 0


_COMPACT_FAMILIES = (
    "er", "grid", "geometric", "planted", "sbm", "ba", "forest"
)


def _sbm_inputs(args: argparse.Namespace) -> tuple[list[int], list[list[float]]]:
    k = max(args.blocks, 1)
    sizes = [max(args.n // k, 1)] * k
    p_matrix = [
        [args.p_in if a == b else args.p_out for b in range(k)] for a in range(k)
    ]
    return sizes, p_matrix


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        return _cmd_generate_inner(args)
    except ValueError as exc:
        # Invalid family parameters (e.g. ba with n < m + 1) fail loudly
        # rather than writing a graph whose size does not match --n.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_generate_inner(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.engine == "compact":
        if args.family == "er":
            graph = generators.erdos_renyi_compact(args.n, args.p, rng)
        elif args.family == "grid":
            side = max(int(round(args.n**0.5)), 1)
            graph = generators.grid_graph_compact(side, side)
        elif args.family == "geometric":
            graph = generators.random_geometric_graph_compact(
                args.n, args.radius, rng
            )
        elif args.family == "planted":
            base = max(args.n // args.components, 1)
            graph = generators.planted_components_compact(
                [base] * args.components, 0.3, rng
            )
        elif args.family == "sbm":
            sizes, p_matrix = _sbm_inputs(args)
            graph = generators.stochastic_block_model_compact(
                sizes, p_matrix, rng
            )
        elif args.family == "ba":
            graph = generators.barabasi_albert_compact(args.n, args.m, rng)
        elif args.family == "forest":
            graph = generators.random_forest_compact(args.n, args.trees, rng)
        else:
            supported = ", ".join(_COMPACT_FAMILIES)
            print(
                f"error: --engine compact supports families {supported}; "
                f"{args.family!r} has no vectorized sampler yet — "
                "rerun with --engine object",
                file=sys.stderr,
            )
            return 1
    elif args.family == "er":
        graph = generators.erdos_renyi(args.n, args.p, rng)
    elif args.family == "geometric":
        graph = generators.random_geometric_graph(args.n, args.radius, rng)
    elif args.family == "tree":
        graph = generators.random_tree(args.n, rng)
    elif args.family == "forest":
        graph = generators.random_forest(args.n, args.trees, rng)
    elif args.family == "grid":
        side = max(int(round(args.n**0.5)), 1)
        graph = generators.grid_graph(side, side)
    elif args.family == "star":
        graph = generators.star_graph(max(args.n - 1, 1))
    elif args.family == "planted":
        base = max(args.n // args.components, 1)
        sizes = [base] * args.components
        graph = generators.planted_components(sizes, 0.3, rng)
    elif args.family == "sbm":
        sizes, p_matrix = _sbm_inputs(args)
        graph = generators.stochastic_block_model(sizes, p_matrix, rng)
    elif args.family == "ba":
        graph = generators.barabasi_albert(args.n, args.m, rng)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.family)
    write_edge_list(graph, args.output)
    print(
        f"wrote {graph.number_of_vertices()} vertices, "
        f"{graph.number_of_edges()} edges to {args.output}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "count":
        return _cmd_count(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "serve-batch":
        return _cmd_serve_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command in ("sweep", "resume"):
        return experiments_cli.cmd_sweep(args, resuming=args.command == "resume")
    if args.command == "report":
        return experiments_cli.cmd_report(args)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
