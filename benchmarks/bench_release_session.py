"""E11 — Amortized release-session serving: hot-graph query speedup.

Acceptance benchmark for the PR-4 tentpole: a
:class:`~repro.service.ReleaseSession` answering 32 mixed
``(estimator, epsilon)`` queries on one hot ``n = 10^5`` compact graph
must be at least 5× faster than the same 32 queries released cold
(fresh estimator + fresh extension per query, shared LP memo cleared),
while

* releasing **bit-identical** values for identical per-query RNG
  streams (extension values are deterministic, so sharing the warm
  table cannot change any released float), and
* performing **zero** compact→object coercions on the warm path
  (hard-guarded via ``forbid_object_coercion``).

The workload alternates Algorithm-1 ``cc`` and ``sf`` queries over a
small epsilon menu — the mixed-tenant shape a serving layer sees.  The
amortization win is structural: the cold path re-runs the component
decomposition and the whole-grid extension pass per query; the session
pays them once, so the k-th hot query costs only GEM selection plus one
Laplace draw.

The table also reports what that one miss costs: the median over
``_MISS_REPEATS`` fresh sessions of the first query's time, divided by
the median time of a plain cold release of the same query (reported,
not gated; the target is at most 1.2x).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.estimators import create
from repro.graphs.compact import forbid_object_coercion, object_coercion_count
from repro.graphs.generators import erdos_renyi_compact
from repro.lp.forest_core import clear_solve_cache
from repro.service import ReleaseSession

from ._util import emit_table, reset_results

_N = int(os.environ.get("REPRO_BENCH_SESSION_N", "100000"))
_C = 0.35
_N_QUERIES = 32
_BASE_SEED = 20230413
# Local acceptance bar is 5x; CI sets REPRO_BENCH_MIN_SESSION_SPEEDUP
# lower because shared runners add wall-clock jitter.
_REQUIRED_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SESSION_SPEEDUP", "5.0")
)

_MISS_REPEATS = 5

# 32 mixed (estimator, epsilon) queries: both Algorithm-1 statistics
# across a small epsilon menu, interleaved.
_QUERIES = [
    (("cc", "sf")[i % 2], (0.25, 0.5, 1.0, 2.0)[(i // 2) % 4])
    for i in range(_N_QUERIES)
]


def _query_rng(i: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(_BASE_SEED, spawn_key=(i,))
    )


def _miss_cost_ratio(graph) -> float:
    """Median first-query time of a fresh session over the median time
    of a plain cold release of the same query."""
    name, epsilon = _QUERIES[0]
    cold, first = [], []
    for _ in range(_MISS_REPEATS):
        clear_solve_cache()
        start = time.perf_counter()
        create(name, epsilon=epsilon).release(graph, _query_rng(0))
        cold.append(time.perf_counter() - start)
        clear_solve_cache()
        session = ReleaseSession()
        start = time.perf_counter()
        session.query(name, epsilon=epsilon, graph=graph, rng=_query_rng(0))
        first.append(time.perf_counter() - start)
    return statistics.median(first) / statistics.median(cold)


def _run_experiment(rng):
    reset_results("E11")

    graph = erdos_renyi_compact(_N, _C / _N, rng)

    # Cold leg: every query builds a fresh estimator and extension; the
    # process-wide LP memo is cleared per query so no kernel work leaks
    # between queries.
    cold_values = []
    clear_solve_cache()
    cold_start = time.perf_counter()
    for i, (name, epsilon) in enumerate(_QUERIES):
        clear_solve_cache()
        release = create(name, epsilon=epsilon).release(graph, _query_rng(i))
        cold_values.append(release.value)
    cold_time = time.perf_counter() - cold_start

    # Warm leg: one session, same queries, same RNG streams — guarded
    # against any object-graph fallback.
    session = ReleaseSession()
    warm_values = []
    clear_solve_cache()
    coercions_before = object_coercion_count()
    with forbid_object_coercion():
        warm_start = time.perf_counter()
        for i, (name, epsilon) in enumerate(_QUERIES):
            release = session.query(
                name, epsilon=epsilon, graph=graph, rng=_query_rng(i)
            )
            warm_values.append(release.value)
        warm_time = time.perf_counter() - warm_start
    assert object_coercion_count() == coercions_before, (
        "session serving performed an object-graph coercion"
    )

    # Bit-identity: the warm table changes nothing about the values.
    assert warm_values == cold_values, (
        "session releases diverged from cold releases"
    )
    assert session.stats.graph_misses == 1
    assert session.stats.graph_hits == _N_QUERIES - 1

    speedup = cold_time / warm_time
    miss_ratio = _miss_cost_ratio(graph)
    rows = [
        [
            _N,
            graph.number_of_edges(),
            _N_QUERIES,
            cold_time,
            warm_time,
            cold_time / _N_QUERIES,
            warm_time / _N_QUERIES,
            speedup,
            miss_ratio,
        ]
    ]
    emit_table(
        "E11",
        [
            "n",
            "m",
            "queries",
            "cold s",
            "session s",
            "cold s/q",
            "session s/q",
            "speedup",
            "miss/cold",
        ],
        rows,
        f"32 mixed (estimator, eps) queries on one hot G(n, {_C:g}/n): "
        f"cold releases vs ReleaseSession "
        f"(required speedup >= {_REQUIRED_SPEEDUP:g}x); miss/cold = a "
        f"fresh session's first query over a cold release (median of "
        f"{_MISS_REPEATS}, target <= 1.2x)",
    )

    assert speedup >= _REQUIRED_SPEEDUP, (
        f"session speedup {speedup:.1f}x below the "
        f"{_REQUIRED_SPEEDUP:g}x acceptance bar"
    )
    return rows


def test_release_session_speedup(benchmark, rng):
    benchmark.pedantic(_run_experiment, args=(rng,), rounds=1, iterations=1)
