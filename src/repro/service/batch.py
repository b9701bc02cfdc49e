"""JSONL batch serving: requests in, private releases out.

The wire format used by ``repro serve-batch``.  Each request line is a
JSON object:

``{"estimator": "cc", "epsilon": 0.5, "seed": 7,
   "graph": "contacts.edges", "id": "q1", "options": {...}}``

* ``estimator`` — registry name or alias (required);
* ``epsilon`` — privacy budget (required unless the estimator is
  non-private);
* ``graph`` — a graph reference: an edge-list path (``.gz`` ok), an
  ``.npz`` store file, or ``dataset:<name>`` naming an entry in the
  :mod:`repro.data` registry (resolved through its content-addressed
  cache).  Optional when the server was started with a default graph.
  References are loaded once and then served from the session's
  fingerprint cache, so many requests against one hot graph amortize
  the extension work;
* ``seed`` — per-request RNG seed; requests without one draw from
  independent ``SeedSequence(base_seed, spawn_key=(index,))`` streams,
  so re-serving the same file reproduces the same releases;
* ``id`` — echoed back (defaults to the 0-based request index);
* ``options`` — estimator-specific keyword options.

Each response line carries the uniform release record (value, total ε,
per-step ledger, Δ̂, metadata) plus the graph fingerprint — and **no**
non-private bookkeeping fields, and no wall-clock timing (responses are
deterministic functions of the request stream, which keeps serving
output byte-identical across reruns and worker counts, and closes a
timing side channel on the pre-noise computation).

Failure semantics: one bad line never aborts the batch.  *Any* failing
request — malformed JSON, unknown estimator, unreadable graph path,
budget exhaustion, even an estimator crash — produces a structured
``{"id": ..., "error": <message>, "error_type": <ExceptionName>}``
record in its slot and serving continues.  The CLI exits nonzero only
when every request line failed.

Sharded parallel serving (:func:`serve_jsonl_parallel`) fans the same
protocol out over worker processes: requests are routed
**deterministically by graph fingerprint**, so each worker owns its
shard of graphs (and of the persistent extension cache — no two
workers ever build or write the same table), responses are re-emitted
in input order, and per-request seeding is identical to the serial
path — output is byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import queue as queue_module
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .. import telemetry
from ..data import resolve_graph_ref
from ..graphs.compact import as_compact
from ..mechanisms.accountant import BudgetExceededError
from .session import ReleaseSession

__all__ = ["serve_jsonl", "serve_jsonl_parallel", "ParallelServeResult"]


class _RequestServer:
    """Serves individual JSONL request lines through one session.

    The single implementation behind both the serial generator
    (:func:`serve_jsonl`) and the sharded workers — sharing it is what
    makes parallel output byte-identical to serial output.
    """

    def __init__(
        self,
        session: ReleaseSession,
        *,
        default_graph=None,
        default_graph_path: Optional[str] = None,
        base_seed: int = 0,
    ) -> None:
        self._session = session
        # Compact once up front: serving it again after an LRU eviction
        # is then a memoized-fingerprint touch, not an O(n+m) conversion.
        self._default_graph = (
            as_compact(default_graph) if default_graph is not None else None
        )
        self._default_graph_path = default_graph_path
        self._base_seed = base_seed
        self._path_cache: dict[str, str] = {}

    def set_default_graph(self, graph) -> None:
        """Swap the graph served to requests naming no ``graph`` field.

        The edit-stream server (:mod:`repro.service.streaming`) advances
        the current graph version this way after every applied edit
        batch; subsequent releases target the new version while earlier
        versions stay resident in the session LRU.
        """
        self._default_graph = (
            as_compact(graph) if graph is not None else None
        )

    def serve_line(self, index: int, raw: str) -> Optional[dict]:
        """Serve one raw request line; ``None`` for blanks/comments.

        Never raises for a per-request failure: every exception becomes
        a structured error record in the request's slot, so one bad
        line cannot abort the batch.
        """
        line = raw.strip()
        if not line or line.startswith("#"):
            return None
        request_id: object = index
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id", index)
            response = self.serve_request(request, index)
            response["id"] = request_id
            return response
        except BudgetExceededError as exc:
            return self._error(request_id, f"budget exceeded: {exc}", exc)
        except KeyError as exc:
            # KeyError's str() wraps the message in quotes; unwrap it.
            message = exc.args[0] if exc.args else exc
            return self._error(request_id, str(message), exc)
        except Exception as exc:  # noqa: BLE001 - per-line isolation
            return self._error(request_id, str(exc), exc)

    @staticmethod
    def _error(request_id: object, message: str, exc: Exception) -> dict:
        return {
            "id": request_id,
            "error": message,
            "error_type": type(exc).__name__,
        }

    def serve_request(self, request: dict, index: int) -> dict:
        """Serve one already-decoded request dict; raises on failure.

        The exception-raising core behind :meth:`serve_line` — also
        called directly by the HTTP daemon
        (:mod:`repro.service.daemon.app`), which maps the raised
        exceptions onto structured admission-control responses instead
        of JSONL error records.  ``index`` doubles as the entropy index
        for requests without an explicit seed.
        """
        estimator = request.get("estimator")
        if not estimator:
            raise ValueError("request needs an 'estimator' field")
        epsilon = request.get("epsilon")
        options = request.get("options", {})
        if not isinstance(options, dict):
            raise ValueError("'options' must be an object")

        # Each request performs exactly one counted session lookup (so
        # the reported cache hit rate is one event per request): a
        # fresh or evicted graph is queried by value
        # (register-on-first-sight counts the miss), a hot one by its
        # cached fingerprint (counts the hit).
        path = request.get("graph")
        if path is not None:
            fingerprint = self._path_cache.get(path)
            if (
                fingerprint is None
                or fingerprint not in self._session.fingerprints()
            ):
                # First sight of this path, or the LRU evicted it:
                # (re)load.
                loaded = resolve_graph_ref(path)
                fingerprint = loaded.fingerprint()
                self._path_cache[path] = fingerprint
                target = {"graph": loaded}
            else:
                target = {"fingerprint": fingerprint}
        else:
            default = self._resolve_default_graph()
            if default is None:
                raise ValueError(
                    "request names no 'graph' and the server has no "
                    "default graph"
                )
            fingerprint = default.fingerprint()
            target = {"graph": default}

        seed = request.get("seed")
        if seed is not None:
            rng = np.random.default_rng(int(seed))
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(self._base_seed, spawn_key=(index,))
            )

        release = self._session.query(
            estimator,
            epsilon=None if epsilon is None else float(epsilon),
            rng=rng,
            **target,
            **options,
        )
        response = release.to_dict(include_true_value=False)
        # Wall-clock timing is the one nondeterministic response field:
        # drop it so serving output is a pure function of the requests
        # (byte-identical reruns, serial == sharded) and leaks no
        # timing information about the pre-noise computation.
        response.pop("elapsed_seconds", None)
        response["fingerprint"] = fingerprint
        return response

    def _resolve_default_graph(self):
        if self._default_graph is None and self._default_graph_path is not None:
            self._default_graph = resolve_graph_ref(self._default_graph_path)
        return self._default_graph


def serve_jsonl(
    lines: Iterable[str],
    session: ReleaseSession,
    *,
    default_graph=None,
    base_seed: int = 0,
) -> Iterator[dict]:
    """Serve a stream of JSONL request lines through a session.

    Parameters
    ----------
    lines:
        Request lines (blank lines and ``#`` comments are skipped).
    session:
        The :class:`ReleaseSession` holding the graph cache, the
        optional shared budget, and the optional persistent extension
        cache.
    default_graph:
        Graph served to requests that name no ``graph`` of their own.
        Re-registered per use (a cache touch when hot, a reload when
        the LRU evicted it), so it stays servable for the whole batch.
    base_seed:
        Root entropy for requests without an explicit ``seed``.

    Yields
    ------
    dict
        One JSON-safe response per request, in request order.  Failing
        requests yield ``{"id", "error", "error_type"}`` records; the
        batch always runs to completion.
    """
    server = _RequestServer(
        session, default_graph=default_graph, base_seed=base_seed
    )
    for index, raw in enumerate(lines):
        response = server.serve_line(index, raw)
        if response is not None:
            yield response


# ----------------------------------------------------------------------
# Sharded parallel serving
# ----------------------------------------------------------------------
class ParallelServeResult(NamedTuple):
    """Outcome of one :func:`serve_jsonl_parallel` run.

    ``worker_stats`` holds one session-stats dict per worker that
    reported; a worker that crashed after completing some work still
    contributes its last piggybacked snapshot, marked
    ``"crashed": True``.  ``metrics`` is the surviving workers' merged
    telemetry-registry snapshot (see
    :func:`repro.telemetry.merge_snapshots`)."""

    responses: list[dict]
    worker_stats: list[dict]
    metrics: dict = {}


def _shard_of(fingerprint: str, workers: int) -> int:
    """Deterministic worker shard of a graph fingerprint."""
    return int(fingerprint[:16], 16) % workers


def _content_shard(token: str, workers: int) -> int:
    """Content-stable shard for lines without a resolvable fingerprint.

    Hashing the *content* (the graph path, or the raw line) instead of
    falling back to ``index % workers`` keeps routing a pure function
    of what a request says, never where it sits in the input file: all
    requests naming the same unresolvable path still land on one
    worker (preserving single-owner cache semantics even when only the
    workers can load the graph), and reordering unknown-graph lines
    can never flip which worker's cache shard warms.
    """
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return int(digest[:16], 16) % workers


class _FingerprintRouter:
    """Routes request lines to worker shards by graph fingerprint.

    Each distinct graph path is loaded once (in the parent, for routing
    only) to resolve its content fingerprint; content-identical graphs
    — and every request touching them — therefore land on one worker,
    which consequently owns that graph's slice of the persistent
    extension cache outright: no two workers ever compute or write the
    same table, without any cross-process locking.  Lines the parent
    cannot attribute to a fingerprint are still routed by *content*
    (:func:`_content_shard` of the named path, or of the raw line when
    there is no usable path), never by input position: a path the
    parent cannot read routes all of its requests to one worker — so
    if that worker turns out to be able to load it (e.g. the file
    appeared between routing and serving), cache-shard ownership still
    holds — and the worker produces the same structured error record
    the serial path would when it cannot.
    """

    def __init__(
        self,
        workers: int,
        default_graph_path: Optional[str] = None,
        known_fingerprints: Optional[dict[str, str]] = None,
    ) -> None:
        self._workers = workers
        self._default_graph_path = default_graph_path
        self._fp_by_path: dict[str, Optional[str]] = dict(
            known_fingerprints or {}
        )

    def shard_for_line(self, index: int, raw: str) -> int:
        try:
            request = json.loads(raw)
        except ValueError:
            return _content_shard(raw, self._workers)
        path = request.get("graph") if isinstance(request, dict) else None
        if path is None:
            path = self._default_graph_path
        if not isinstance(path, str):
            # No graph, or a non-string 'graph' value: the owning
            # worker produces the same error record the serial path
            # would; routing just has to be content-deterministic.
            return _content_shard(raw, self._workers)
        fingerprint = self._fingerprint_of(path)
        if fingerprint is None:
            # Unreadable (to the parent) path: all requests naming it
            # share one worker, chosen by the path itself.
            return _content_shard(path, self._workers)
        return _shard_of(fingerprint, self._workers)

    def _fingerprint_of(self, path: str) -> Optional[str]:
        if path not in self._fp_by_path:
            try:
                graph = resolve_graph_ref(path)
            except Exception:  # noqa: BLE001 - worker reports the error
                self._fp_by_path[path] = None
            else:
                self._fp_by_path[path] = graph.fingerprint()
        return self._fp_by_path[path]


def _worker_main(
    worker_id: int, in_queue, out_queue, config: dict
) -> None:
    """One sharded serving worker: its own session, cache, and graphs."""
    session = ReleaseSession(
        max_graphs=config["max_graphs"],
        allow_non_private=config["allow_non_private"],
        cache_dir=config["cache_dir"],
    )
    server = _RequestServer(
        session,
        default_graph_path=config["default_graph_path"],
        base_seed=config["base_seed"],
    )
    kill_at_index = config.get("kill_at_index")
    while True:
        item = in_queue.get()
        if item is None:
            break
        index, raw = item
        if kill_at_index is not None and index == kill_at_index:
            # Test seam: simulate a hard worker death (OOM-kill, power
            # loss) exactly at this request — SIGKILL leaves no chance
            # for cleanup, which is the point.  Flush the out-queue's
            # feeder thread first so already-*delivered* responses are
            # not retroactively lost with the process (the death is at
            # this request, not at some earlier one).
            import os
            import signal

            out_queue.close()
            out_queue.join_thread()
            os.kill(os.getpid(), signal.SIGKILL)
        # The current stats snapshot rides along with every response —
        # atomically, in the same queue message — so the parent always
        # knows how much work this worker had completed *as of its last
        # delivered response*.  If the worker dies later, the merged
        # summary still counts that work instead of writing it off
        # (there is no separate stats message to race the crash).
        out_queue.put((
            "response",
            index,
            (server.serve_line(index, raw), worker_id,
             session.stats.to_dict()),
        ))
    session.persist_warm_extensions()
    out_queue.put(
        ("done", worker_id, (session.stats.to_dict(), telemetry.snapshot()))
    )


def _worker_crash_record(raw: str, index: int, worker: int, exitcode) -> dict:
    """The structured error record emitted in place of every response a
    dead worker never delivered — same ``{"id","error","error_type"}``
    shape as any other per-request failure, so downstream consumers
    need no new parsing."""
    request_id: object = index
    try:
        request = json.loads(raw)
        if isinstance(request, dict):
            request_id = request.get("id", index)
    except ValueError:
        pass
    return {
        "id": request_id,
        "error": (
            f"serve-batch worker {worker} died (exit code {exitcode}) "
            "before answering this request"
        ),
        "error_type": "WorkerCrashed",
    }


def serve_jsonl_parallel(
    lines: Iterable[str],
    *,
    workers: int,
    default_graph_path: Optional[str] = None,
    default_graph_fingerprint: Optional[str] = None,
    base_seed: int = 0,
    max_graphs: int = 8,
    allow_non_private: bool = False,
    cache_dir: Optional[str] = None,
    _kill_at_index: Optional[int] = None,
) -> ParallelServeResult:
    """Serve a JSONL request stream across ``workers`` processes.

    Requests are routed deterministically by graph fingerprint (see
    :class:`_FingerprintRouter`), each worker serves its shard through
    its own :class:`ReleaseSession` (sharing ``cache_dir`` safely —
    routing partitions the key space), and responses come back in input
    order.  Per-request seeding uses the global request index exactly
    like :func:`serve_jsonl`, so for any fixed request stream the
    response list is byte-identical to the serial path and to any other
    worker count.

    ``default_graph_fingerprint`` optionally hands the router the
    already-known fingerprint of ``default_graph_path`` (callers that
    loaded the default graph for validation anyway), sparing the parent
    a second full load of the same file.

    A session-wide privacy budget is **not** supported here: a shared
    accountant cannot be enforced across shards without cross-process
    coordination that would serialize the hot path.  Use the serial
    path for budgeted batches.

    Worker death (SIGKILL, OOM, segfault) does not hang or abort the
    batch: the parent notices the dead process promptly, synthesizes a
    structured ``{"id", "error", "error_type": "WorkerCrashed"}``
    record for every request dispatched to it but never answered, and
    the surviving workers' responses come back untouched.  Because each
    response carries the worker's stats snapshot, a dead worker that
    finished any work still contributes an entry (marked
    ``"crashed": True`` with the counts as of its last delivered
    response); a worker killed before answering anything contributes
    none.  (``_kill_at_index`` is the test seam simulating exactly this
    — the owning worker SIGKILLs itself on that request index.)

    The full response list is materialized in memory (ordering requires
    holding out-of-order arrivals anyway); the request stream itself is
    consumed incrementally.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    context = multiprocessing.get_context("spawn")
    in_queues = [context.Queue() for _ in range(workers)]
    out_queue = context.Queue()
    config = {
        "max_graphs": max_graphs,
        "allow_non_private": allow_non_private,
        "cache_dir": cache_dir,
        "default_graph_path": default_graph_path,
        "base_seed": base_seed,
        "kill_at_index": _kill_at_index,
    }
    processes = [
        context.Process(
            target=_worker_main,
            args=(worker_id, in_queues[worker_id], out_queue, config),
            daemon=True,
        )
        for worker_id in range(workers)
    ]
    for process in processes:
        process.start()

    known = (
        {default_graph_path: default_graph_fingerprint}
        if default_graph_path is not None
        and default_graph_fingerprint is not None
        else None
    )
    router = _FingerprintRouter(workers, default_graph_path, known)
    dispatched: list[int] = []
    dispatched_to: dict[int, list[int]] = {w: [] for w in range(workers)}
    raw_by_index: dict[int, str] = {}
    try:
        for index, raw in enumerate(lines):
            if not raw.strip() or raw.strip().startswith("#"):
                continue  # same skip rule as the serial path
            shard = router.shard_for_line(index, raw)
            in_queues[shard].put((index, raw))
            dispatched.append(index)
            dispatched_to[shard].append(index)
            raw_by_index[index] = raw
        for in_queue in in_queues:
            in_queue.put(None)

        responses: dict[int, dict] = {}
        worker_stats: list[dict] = []
        worker_metrics: list[dict] = []
        latest_stats: dict[int, dict] = {}
        pending = set(dispatched)
        done_pending = set(range(workers))
        crashed: set[int] = set()
        idle_after_exit = 0
        while pending or done_pending:
            # Reap crashed workers *every* pass, not only when the
            # result queue runs dry: a worker killed mid-batch is
            # surfaced promptly even while surviving workers are still
            # streaming responses.  Every request dispatched to the
            # dead worker and not yet answered becomes a structured
            # error record in its slot; its final stats-and-metrics
            # message is written off, but the stats piggybacked on its
            # last delivered response still count the work it finished.
            for w, process in enumerate(processes):
                if (
                    w not in crashed
                    and not process.is_alive()
                    and process.exitcode not in (0, None)
                ):
                    crashed.add(w)
                    done_pending.discard(w)
                    if w in latest_stats:
                        worker_stats.append(
                            {"worker": w, "crashed": True,
                             **latest_stats[w]}
                        )
                    for index in dispatched_to[w]:
                        if index in pending:
                            responses[index] = _worker_crash_record(
                                raw_by_index.pop(index), index,
                                w, process.exitcode,
                            )
                            pending.discard(index)
            if not pending and not done_pending:
                break
            try:
                kind, tag, payload = out_queue.get(timeout=0.25)
            except queue_module.Empty:
                if not any(process.is_alive() for process in processes):
                    # All workers exited (the crashed ones were already
                    # written off above); allow a few grace polls for
                    # queue-feeder flushes, then give up.
                    idle_after_exit += 1
                    if idle_after_exit > 20:
                        raise RuntimeError(
                            "serve-batch workers exited without "
                            "delivering every response"
                        )
                continue
            if kind == "response":
                # A response that raced the crash bookkeeping (already
                # flushed to the pipe before the worker died) wins over
                # the synthesized error record: real data beats an
                # apology.
                response, from_worker, stats_snapshot = payload
                responses[tag] = response
                latest_stats[from_worker] = stats_snapshot
                pending.discard(tag)
                raw_by_index.pop(tag, None)
            else:  # "done": final stats and registry snapshot
                stats, snapshot = payload
                worker_stats.append({"worker": tag, **stats})
                worker_metrics.append(snapshot)
                done_pending.discard(tag)
                latest_stats.pop(tag, None)
    finally:
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()

    worker_stats.sort(key=lambda stats: stats["worker"])
    return ParallelServeResult(
        responses=[responses[index] for index in dispatched],
        worker_stats=worker_stats,
        metrics=telemetry.merge_snapshots(worker_metrics),
    )
