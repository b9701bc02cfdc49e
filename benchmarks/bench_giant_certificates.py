"""E18 — Lemma 3.3(4): certified f_Δ on supercritical giant components.

Evaluates the extension over the power-of-two grid (Algorithm 1's
candidates for Δmax = n) on ER(n, 3/n) for n ∈ {500, 1000, 2000} and on
BA(n, 2) for n ∈ {500, 1000}, seed 0.  Each giant component has a
spanning 4-tree, so from Δ = 4 on every grid value must be ``f_sf``,
settled by the certificate step (counting test, Algorithm-3 repair,
spanning-tree kernel) instead of the LP.  The benchmark fails if any
component LP result counted in ``repro_lp_certificates_total`` during
an evaluation is not ``exact``; it prints each evaluation's time and
has no time gate.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.core.extension import extension_for
from repro.graphs.generators import barabasi_albert_compact, erdos_renyi_compact
from repro.lp import forest_core
from repro.mechanisms.gem import power_of_two_grid

from ._util import emit_table, reset_results

_CORPUS = (
    ("ER(n, 3/n)", 500),
    ("ER(n, 3/n)", 1000),
    ("ER(n, 3/n)", 2000),
    ("BA(n, 2)", 500),
    ("BA(n, 2)", 1000),
)


def _graph(family: str, n: int):
    rng = np.random.default_rng(0)
    if family.startswith("ER"):
        return erdos_renyi_compact(n, 3.0 / n, rng)
    return barabasi_albert_compact(n, 2, rng)


def _certificates() -> dict[str, float]:
    snap = telemetry.snapshot()
    return {
        status: telemetry.counter_value(
            snap, "repro_lp_certificates_total", status=status
        )
        for status in forest_core.CERTIFICATE_STATUSES
    }


def test_giant_component_grids_are_certified():
    reset_results("E18")
    rows, uncertified = [], []
    for family, n in _CORPUS:
        graph = _graph(family, n)
        grid = power_of_two_grid(n)
        forest_core.clear_solve_cache()
        before = _certificates()
        started = time.perf_counter()
        values = extension_for(graph).values_for_grid(grid)
        seconds = time.perf_counter() - started
        counts = {
            status: int(count - before[status])
            for status, count in _certificates().items()
        }
        fsf = graph.spanning_forest_size()
        rows.append(
            [family, n, f"{seconds:.3f}", counts["exact"],
             sum(counts.values()) - counts["exact"], values[2], fsf]
        )
        if sum(counts.values()) != counts["exact"]:
            uncertified.append((family, n, counts))
        assert values[2:].tolist() == [float(fsf)] * (len(grid) - 2), (family, n)
    emit_table(
        "E18",
        ["graph", "n", "grid s", "exact LPs", "other LPs", "f_4", "f_sf"],
        rows,
        "power-of-two grid evaluations, seed 0",
    )
    assert uncertified == [], uncertified
