"""E1 — Theorem 1.3: instance-based accuracy of the main algorithm.

Reproduces the paper's headline guarantee: on an n-vertex graph the
private spanning-forest estimate errs by at most ``Δ*·Õ(ln ln n / ε)``.
We sweep structured families whose Δ* we control, several ε, and report
measured error quantiles next to the explicit Theorem 1.3 reference
curve.  A budget-split ablation (GEM vs. noise fraction) covers the
paper's even ε_select = ε_noise split (Algorithm 1, Step 3).
"""

from __future__ import annotations

import numpy as np

from repro.core.algorithm import PrivateSpanningForestSize
from repro.core.bounds import theorem_1_3_bound
from repro.graphs.components import spanning_forest_size
from repro.graphs.forests import approx_min_degree_spanning_forest
from repro.graphs.generators import (
    caterpillar_graph,
    grid_graph,
    random_forest,
    random_geometric_graph,
    star_plus_isolated,
)

from ._util import emit_table, reset_results

_TRIALS = 20


def _families(rng):
    return [
        ("grid 8x8", grid_graph(8, 8)),
        ("forest n=120 t=30", random_forest(120, 30, rng)),
        ("geometric n=150 r=.1", random_geometric_graph(150, 0.1, rng)),
        ("caterpillar 20x4", caterpillar_graph(20, 4)),
        ("star25+isolated75", star_plus_isolated(25, 75)),
    ]


def _run_experiment(rng):
    reset_results("E1")
    rows = []
    for name, graph in _families(rng):
        n = graph.number_of_vertices()
        truth = spanning_forest_size(graph)
        _, delta_star_ub = approx_min_degree_spanning_forest(graph)
        for epsilon in (0.5, 1.0, 2.0):
            estimator = PrivateSpanningForestSize(epsilon=epsilon)
            errors = np.abs(
                [estimator.release(graph, rng).value - truth for _ in range(_TRIALS)]
            )
            bound = theorem_1_3_bound(n, epsilon, delta_star_ub)
            rows.append(
                [
                    name,
                    n,
                    epsilon,
                    delta_star_ub,
                    float(np.median(errors)),
                    float(np.quantile(errors, 0.9)),
                    bound,
                    bool(np.median(errors) <= bound),
                ]
            )
    emit_table(
        "E1",
        ["family", "n", "eps", "Δ* (ub)", "median|err|", "q90|err|",
         "thm1.3 bound", "within"],
        rows,
        "Theorem 1.3: measured error vs instance-based bound "
        f"({_TRIALS} trials)",
    )
    return rows


def test_theorem_1_3_accuracy(benchmark, rng):
    rows = benchmark.pedantic(_run_experiment, args=(rng,), rounds=1, iterations=1)
    # Shape assertions: every family/epsilon combination stays within the
    # explicit Theorem 1.3 envelope (constants are generous).
    assert all(row[-1] for row in rows)
    # Error decreases as epsilon grows, per family (allowing noise slack
    # by comparing eps=0.5 against eps=2.0 medians).
    by_family: dict[str, dict[float, float]] = {}
    for name, _n, eps, _d, median, *_rest in rows:
        by_family.setdefault(name, {})[eps] = median
    looser = sum(
        1 for name, vals in by_family.items() if vals[0.5] >= vals[2.0] * 0.8
    )
    assert looser >= len(by_family) - 1


def _run_budget_ablation(rng):
    graph = grid_graph(8, 8)
    truth = spanning_forest_size(graph)
    rows = []
    for fraction in (0.25, 0.5, 0.75):
        estimator = PrivateSpanningForestSize(epsilon=1.0, select_fraction=fraction)
        errors = np.abs(
            [estimator.release(graph, rng).value - truth for _ in range(_TRIALS)]
        )
        rows.append([fraction, float(np.median(errors)), float(errors.mean())])
    emit_table(
        "E1",
        ["GEM fraction", "median|err|", "mean|err|"],
        rows,
        "ablation: budget split between selection and noise (grid 8x8, eps=1)",
    )
    return rows


def test_budget_split_ablation(benchmark, rng):
    rows = benchmark.pedantic(_run_budget_ablation, args=(rng,), rounds=1, iterations=1)
    assert len(rows) == 3
    # All splits should be serviceable; none catastrophically worse than 10x.
    medians = [row[1] for row in rows]
    assert max(medians) <= 10 * max(min(medians), 1.0)
