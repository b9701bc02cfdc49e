"""Workload ``giant-lp``: every request is a session miss on a distinct
supercritical graph, so nearly all time goes to the forest-polytope LP.

One closed-loop client sends JSONL requests through ``serve_jsonl`` and
one ``ReleaseSession``.  A round is 25 graphs, one of each size
n = 40..64, each a uniform random graph with m = 3n/2 edges (mean degree
exactly 3, so a giant component) stored as an ``.npz`` archive; requests
alternate cc/sf and cycle through three ε values.  Fixing m instead of
drawing it keeps the per-seed cost spread small.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.estimators import create
from repro.graphs.compact import CompactGraph
from repro.graphs.store import open_npz, save_npz
from repro.lp.forest_core import clear_solve_cache
from repro.service import ReleaseSession
from repro.service.batch import serve_jsonl

from harness import InProcess, Pass

SIZES = range(40, 65)
EPSILONS = (0.5, 1.0, 2.0)
CHECK_SAMPLES = 8


def random_graph(n: int, m: int, rng: np.random.Generator) -> CompactGraph:
    """Uniform G(n, m): ``m`` distinct vertex pairs drawn without replacement."""
    u, v = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(u.size, size=m, replace=False))
    return CompactGraph.from_edge_arrays(n, u[pick].astype(np.int64), v[pick].astype(np.int64))


class GiantLP(InProcess):
    ROUND_OPS = len(SIZES)
    NOMINAL_ROUND_S = 4.7

    def __init__(self, work: str, seed: int, rounds: int) -> None:
        self.work = work
        self.seed = seed
        self.rounds = rounds

    def prepare(self, traced: bool = False) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.events: list[tuple[str, dict]] = []
        self.fingerprints: list[str] = []
        for i in range(self.rounds * self.ROUND_OPS):
            n = SIZES[i % len(SIZES)]
            graph = random_graph(n, 3 * n // 2, rng)
            path = os.path.join(self.work, f"g{i:04d}.npz")
            save_npz(graph, path)
            self.fingerprints.append(graph.fingerprint())
            estimator = "cc" if i % 2 == 0 else "sf"
            request = {
                "id": i,
                "graph": path,
                "estimator": estimator,
                "epsilon": EPSILONS[i % len(EPSILONS)],
                "seed": int(rng.integers(2**31)),
            }
            self.events.append((estimator, request))
        # Warm the code paths (lazy scipy imports, first HiGHS call) on
        # graphs outside the corpus, then forget every memoized solve so
        # the timed requests all pay their LP.
        warm = []
        for n in (40, 52):
            path = os.path.join(self.work, f"warm{n}.npz")
            save_npz(random_graph(n, 3 * n // 2, rng), path)
            warm.append(json.dumps({"graph": path, "estimator": "cc", "epsilon": 1.0, "seed": n}))
        for response in serve_jsonl(warm, ReleaseSession()):
            if "error" in response:
                raise RuntimeError(f"warm-up failed: {response}")
        clear_solve_cache()
        self.session = ReleaseSession()

    def timed_pass(self, tracer=None) -> Pass:
        return self.closed_loop(
            lambda lines: serve_jsonl(lines, self.session),
            tracer,
            ok=lambda i, response: response["fingerprint"] == self.fingerprints[i],
        )

    def check(self, run: Pass) -> int:
        """Re-release a fixed sample cold, with the LP memo cleared, and
        compare value and Δ̂ bit for bit."""
        clear_solve_cache()
        step = len(self.events) // CHECK_SAMPLES
        for index in range(0, step * CHECK_SAMPLES, step):
            request, response = self.events[index][1], self.responses[index]
            release = create(request["estimator"], epsilon=request["epsilon"]).release(
                open_npz(request["graph"]), np.random.default_rng(request["seed"])
            )
            if "error" in response or (release.value, release.delta_hat) != (
                response["value"],
                response["delta_hat"],
            ):
                run.failed.add(index)
        return 0
