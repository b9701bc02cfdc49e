"""E11 — Lemma 3.3(2): polynomial-time evaluability of f_Δ.

Uses pytest-benchmark's actual timing machinery (several rounds) to
measure the evaluator across sizes, the three LP solvers of
:mod:`repro.lp.forest_core`, and the fast-path ablation (the extension's
integral shortcuts vs forcing every component through the LP).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels, telemetry
from repro.core.extension import evaluate_lipschitz_extension, extension_for
from repro.graphs.compact import CompactGraph, as_compact
from repro.graphs.generators import erdos_renyi, grid_graph, random_geometric_graph
from repro.lp import forest_core

from ._util import emit_table, reset_results

_SOLVERS = {
    "auto": lambda n, u, v: forest_core.solve_component(
        n, u, v, 2, use_fast_paths=False
    ),
    "cutting_plane": lambda n, u, v: _certified(
        forest_core.cutting_plane_component(n, u, v, 2, 1e-7, 200)
    ),
    "column_generation": lambda n, u, v: forest_core.column_generation_component(
        n, u, v, 2
    ),
}


def _certified(result):
    """``result``, once the cutting plane has certified it."""
    assert result.status == "exact", result.status
    return result


def _components(graph):
    """Canonical ``(n, u, v)`` arrays of each edge-bearing component."""
    compact = as_compact(graph)
    labels = compact.component_labels()
    u, v = compact.edge_arrays()
    for root in np.unique(labels[u]).tolist():
        verts = np.nonzero(labels == root)[0]
        inside = labels[u] == root
        yield (
            int(verts.size),
            np.searchsorted(verts, u[inside]),
            np.searchsorted(verts, v[inside]),
        )


def _repair_attempts() -> float:
    snap = telemetry.snapshot()
    return sum(
        telemetry.counter_value(
            snap, "repro_extension_repairs_total", outcome=outcome
        )
        for outcome in ("success", "failure")
    )


@pytest.mark.parametrize("n", [30, 60, 120])
def test_er_scaling(benchmark, n):
    """Evaluation time vs n on sparse ER graphs (Δ = 2)."""
    graph = erdos_renyi(n, 2.0 / n, np.random.default_rng(n))
    value = benchmark(lambda: evaluate_lipschitz_extension(graph, 2))
    assert value >= 0


@pytest.mark.parametrize("method", sorted(_SOLVERS))
def test_method_comparison(benchmark, method):
    """The three solvers on one moderate instance (they agree; timing
    differs)."""
    graph = erdos_renyi(24, 0.12, np.random.default_rng(3))
    solve = _SOLVERS[method]
    value = benchmark(
        lambda: sum(
            min(max(solve(n, u, v).value, 0.0), n - 1.0)
            for n, u, v in _components(graph)
        )
    )
    reference = evaluate_lipschitz_extension(graph, 2)
    assert value == pytest.approx(reference, abs=1e-4)


def test_fast_path_ablation(benchmark, monkeypatch):
    """Fast paths vs forced LP on a grid where the spanning-tree kernel
    certifies Δ = 3."""
    graph = grid_graph(8, 8)
    value = benchmark(lambda: extension_for(graph).value(3))
    trees = []
    kernel = kernels.capped_spanning_tree

    def spy(*args):
        trees.append(kernel(*args))
        return trees[-1]

    monkeypatch.setattr(kernels, "capped_spanning_tree", spy)
    before = _repair_attempts()
    assert extension_for(graph).value(3) == value
    # The single component is certified by the kernel's spanning
    # 3-tree, so Algorithm 3, which would also certify it, never runs.
    assert len(trees) == 1 and trees[0] is not None
    assert _repair_attempts() == before
    assert as_compact(graph).repair_spanning_forest(3).forest is not None
    slow = extension_for(graph, use_fast_paths=False).value(3)
    assert slow == pytest.approx(value, abs=1e-4)


def _summary(graph, delta):
    """``f_Δ`` with its certified gap, LP rounds and component statuses:
    a component is settled by the integral fast paths (Δ ≥ max degree or
    an Algorithm-3 spanning ⌊Δ⌋-forest) or else by the LP core."""
    value, gap, rounds, statuses = 0.0, 0.0, 0, []
    for n, u, v in _components(graph):
        component = CompactGraph.from_edge_arrays(n, u, v)
        if (
            delta >= component.max_degree()
            or component.repair_spanning_forest(int(delta)).forest is not None
        ):
            value += n - 1
            statuses.append("fast-path")
            continue
        core = forest_core.solve_component(n, u, v, delta)
        value += core.value
        gap += core.gap
        rounds += core.lp_rounds
        statuses.append(core.status)
    return value, gap, rounds, ",".join(statuses)


def test_geometric_summary_table(benchmark, rng):
    """One summary table for the record: values, gaps, statuses across Δ
    on a mid-size geometric graph."""
    reset_results("E11")
    graph = random_geometric_graph(150, 0.08, rng)

    def run():
        rows = []
        for delta in (1, 2, 4, 8, 16):
            value, gap, rounds, status = _summary(graph, delta)
            rows.append([delta, value, gap, rounds, status[:40]])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_table(
        "E11",
        ["Δ", "f_Δ", "certified gap", "solver rounds", "status"],
        rows,
        "evaluator summary on RGG(150, 0.08)",
    )
    values = [row[1] for row in rows]
    gaps = [row[2] for row in rows]
    # Monotone in delta up to certified gaps.
    for (a, ga), (b, _gb) in zip(zip(values, gaps), list(zip(values, gaps))[1:]):
        assert a <= b + ga + 1e-6
