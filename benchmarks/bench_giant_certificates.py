"""E18 — Lemma 3.3(4): certified f_Δ on supercritical giant components.

Evaluates the extension over the power-of-two grid (Algorithm 1's
candidates for Δmax = n) on ER(n, 3/n) for n ∈ {500, 1000, 2000} and on
BA(n, 2) for n ∈ {500, 1000}, seed 0, and on the 16 planted 50-vertex
communities of layerbench contact-edits' base graphs for seeds 1, 2, 3
and 17.  Each graph has a spanning 4-tree, so from Δ = 4 on every grid
value must be ``f_sf``, settled by the certificate step (counting
tests, spanning-tree kernel, Algorithm-3 repair where the kernel
declines) instead of the LP.  The benchmark fails if any component LP
result counted in ``repro_lp_certificates_total`` during an evaluation
is not ``exact``, if the separation oracle's float fallback
(:meth:`repro.flow.maxflow.FlowNetwork.max_flow`, pure Python and
orders of magnitude slower than the batched integer cut) runs, or if
any separation point it meets gives another list through the pinned
cuts (``forest_core._pinned_forest_sets``) than the oracle returned.
It prints each evaluation's time, its Δ = 2 cutting-plane solves, the
Hamiltonian paths that settled f_2 = n − 1 before the LP, its
separation calls, how many of them the half-integral path settled
with no flow, and how many peeled an all-ones support component
instead of running a flow, and has no time gate.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from repro import kernels, telemetry
from repro.core.extension import extension_for
from repro.flow.maxflow import FlowNetwork
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import (
    barabasi_albert_compact,
    erdos_renyi_compact,
    planted_components_compact,
)
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


_CONTACT_SEEDS = (1, 2, 3, 17)


def _graphs():
    """``(label, n, graph)`` of every evaluation, in table order."""
    for family, n in _CORPUS:
        rng = np.random.default_rng(0)
        if family.startswith("ER"):
            yield family, n, erdos_renyi_compact(n, 3.0 / n, rng)
        else:
            yield family, n, barabasi_albert_compact(n, 2, rng)
    for seed in _CONTACT_SEEDS:
        # The communities of ContactEdits._base_graph (same rng stream).
        planted = planted_components_compact(
            [50] * 4, 3 / 50, np.random.default_rng([seed, 2])
        )
        u, v = planted.edge_arrays()
        for block in range(4):
            inside = u // 50 == block
            yield f"contact-edits {seed}.{block}", 50, CompactGraph.from_edge_arrays(
                50, u[inside] - 50 * block, v[inside] - 50 * block
            )


def _certificates() -> dict[str, float]:
    snap = telemetry.snapshot()
    return {
        status: telemetry.counter_value(
            snap, "repro_lp_certificates_total", status=status
        )
        for status in forest_core.CERTIFICATE_STATUSES
    }


class _SeparationCounts:
    """While entered: Δ = 2 cutting-plane solves, cap-2 path
    certificates, separation oracle calls, the calls the half-integral
    path settled, the calls that peeled at least one support component,
    and float fallback cuts.  Every call's arguments and list are kept
    for :meth:`pinned_mismatches`."""

    def __enter__(self):
        self.calls = self.half_integral = self.peeled = self.float_cuts = 0
        self.planes_2 = self.paths = 0
        self.points = []
        separate = forest_core.violated_forest_sets
        half = forest_core._half_integral_sets
        peel = forest_core._peeled_sets
        max_flow = FlowNetwork.max_flow
        plane = forest_core.cutting_plane_component
        kernel = kernels.capped_spanning_tree
        peels = [0]

        def counted_plane(n, u, v, delta, *args):
            self.planes_2 += delta == 2
            return plane(n, u, v, delta, *args)

        def counted_kernel(n, u, v, cap):
            tree = kernel(n, u, v, cap)
            self.paths += cap == 2 and tree is not None
            return tree

        def counted_separation(*args, **kwargs):
            before = peels[0]
            result = separate(*args, **kwargs)
            self.calls += 1
            self.peeled += peels[0] > before
            self.points.append((args, kwargs, result))
            return result

        def counted_half(*args):
            sets = half(*args)
            self.half_integral += sets is not None
            return sets

        def counted_peel(*args):
            peels[0] += 1
            return peel(*args)

        def counted_max_flow(network, *args):
            self.float_cuts += 1
            return max_flow(network, *args)

        self._patches = [
            mock.patch.object(forest_core, "violated_forest_sets", counted_separation),
            mock.patch.object(forest_core, "_half_integral_sets", counted_half),
            mock.patch.object(forest_core, "_peeled_sets", counted_peel),
            mock.patch.object(FlowNetwork, "max_flow", counted_max_flow),
            mock.patch.object(forest_core, "cutting_plane_component", counted_plane),
            mock.patch.object(kernels, "capped_spanning_tree", counted_kernel),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.stop()

    def pinned_mismatches(self) -> int:
        """The kept points whose pinned-cut list differs from the
        oracle's (run after exit, so nothing above counts them)."""
        return sum(
            forest_core._pinned_forest_sets(*args, **kwargs) != result
            for args, kwargs, result in self.points
        )


def test_giant_component_grids_are_certified():
    reset_results("E18")
    rows, uncertified, float_cuts, mismatched = [], [], [], []
    for family, n, graph in _graphs():
        grid = power_of_two_grid(n)
        forest_core.clear_solve_cache()
        before = _certificates()
        with _SeparationCounts() as separation:
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
             sum(counts.values()) - counts["exact"], separation.planes_2,
             separation.paths, separation.calls, separation.half_integral,
             separation.peeled, separation.float_cuts, values[1], values[2], fsf]
        )
        if sum(counts.values()) != counts["exact"]:
            uncertified.append((family, n, counts))
        if separation.float_cuts:
            float_cuts.append((family, n, separation.float_cuts))
        mismatches = separation.pinned_mismatches()
        if mismatches:
            mismatched.append((family, n, mismatches))
        assert values[2:].tolist() == [float(fsf)] * (len(grid) - 2), (family, n)
    emit_table(
        "E18",
        ["graph", "n", "grid s", "exact LPs", "other LPs", "Δ=2 planes",
         "cap-2 paths", "separations", "half-integral", "peeled", "float cuts",
         "f_2", "f_4", "f_sf"],
        rows,
        "power-of-two grid evaluations, seed 0",
    )
    assert uncertified == [], uncertified
    assert float_cuts == [], float_cuts
    assert mismatched == [], mismatched
