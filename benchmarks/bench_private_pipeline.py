"""E10 — Compact-native private pipeline: end-to-end release.

Runs the full Algorithm-1 pipeline (``PrivateConnectedComponents`` — GEM
over the whole Δ-grid, Lipschitz-extension evaluation, Laplace release)
on an ``erdos_renyi_compact`` input at ``n = 10^5`` and checks that it
performs **zero** compact→object coercions (hard-guarded via
:func:`repro.graphs.compact.forbid_object_coercion`), and that the same
release on the object-graph copy of the input — which is converted to a
``CompactGraph`` once and then runs the same code — is *bit-identical*
for the same seed.

The sparse regime ``np = c`` with ``c < 1`` matches the paper's
``Õ(log n / ε)`` analysis and keeps every component small.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.algorithm import PrivateConnectedComponents
from repro.graphs.compact import forbid_object_coercion, object_coercion_count
from repro.graphs.generators import erdos_renyi_compact
from repro.lp.forest_core import clear_solve_cache

from ._util import emit_table, reset_results

_N = int(os.environ.get("REPRO_BENCH_PIPELINE_N", "100000"))
_C = 0.35
_EPSILON = 1.0
_RELEASE_SEED = 20230413


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _run_experiment(rng):
    reset_results("E10")

    generate_time, compact = _timed(lambda: erdos_renyi_compact(_N, _C / _N, rng))
    reference = compact.to_graph()

    # Compact-native release: hard-guarded against any object coercion.
    # The shared LP-core memo is cleared before each leg so both runs
    # are genuinely cold — neither input may ride on component solves
    # populated by the other.
    clear_solve_cache()
    coercions_before = object_coercion_count()
    with forbid_object_coercion():
        compact_time, compact_release = _timed(
            lambda: PrivateConnectedComponents(epsilon=_EPSILON).release(
                compact, np.random.default_rng(_RELEASE_SEED)
            )
        )
    assert object_coercion_count() == coercions_before, (
        "compact pipeline performed an object-graph coercion"
    )

    clear_solve_cache()
    object_release = PrivateConnectedComponents(epsilon=_EPSILON).release(
        reference, np.random.default_rng(_RELEASE_SEED)
    )

    # Differential agreement at scale: same seed, same released floats.
    assert compact_release.value == object_release.value, (
        compact_release.value,
        object_release.value,
    )
    assert (
        compact_release.spanning_forest.delta_hat
        == object_release.spanning_forest.delta_hat
    )

    rows = [
        [
            _N,
            compact.number_of_edges(),
            compact_release.true_value,
            f"{compact_release.value:.2f}",
            generate_time,
            compact_time,
        ]
    ]
    emit_table(
        "E10",
        ["n", "m", "f_cc", "release", "generate s", "release s"],
        rows,
        f"G(n, {_C:g}/n) end-to-end PrivateConnectedComponents on the "
        "compact-native pipeline (cold extension)",
    )
    return rows


def test_private_pipeline(benchmark, rng):
    benchmark.pedantic(_run_experiment, args=(rng,), rounds=1, iterations=1)
