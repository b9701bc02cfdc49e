"""Workload ``contact-edits``: an edit stream over one n=1e5 contact
graph, where each version miss pays component promotion bookkeeping.

The graph is Erdős–Rényi dust at mean degree 0.35 plus four planted
50-vertex communities at mean degree 3.  One closed-loop client drives
``serve_edit_stream`` with the default incremental session.  Each edit
batch (three dust inserts, one dust delete) is followed by four
releases: the first is a version miss, the other three are hits, so
60% of operations are hits, 20% edits and 20% misses and p50 falls in
the hit mode, p90 in the miss mode.  The first batch of every round of
five also inserts an edge inside a community, which makes that miss
re-solve the community's LP; the other four misses are dominated by
promotion, which keeps p90 on them.
"""

from __future__ import annotations

import json

import numpy as np

from repro.graphs.compact import CompactGraph
from repro.graphs.generators import erdos_renyi_compact, planted_components_compact
from repro.service import ReleaseSession
from repro.service.streaming import serve_edit_stream

from harness import InProcess, Pass

N = 100_000
COMMUNITIES = 4
COMMUNITY_SIZE = 50
DUST_DEGREE = 0.35
COMMUNITY_DEGREE = 3.0
BATCHES_PER_ROUND = 5
RELEASES_PER_BATCH = 4
EPSILONS = (0.5, 1.0, 2.0, 0.25)


class ContactEdits(InProcess):
    ROUND_OPS = BATCHES_PER_ROUND * (1 + RELEASES_PER_BATCH)
    NOMINAL_ROUND_S = 5.0

    def __init__(self, work: str, seed: int, rounds: int) -> None:
        self.seed = seed
        self.rounds = rounds

    def _base_graph(self, rng: np.random.Generator) -> CompactGraph:
        core = planted_components_compact(
            [COMMUNITY_SIZE] * COMMUNITIES, COMMUNITY_DEGREE / COMMUNITY_SIZE, rng
        )
        offset = COMMUNITIES * COMMUNITY_SIZE
        dust = erdos_renyi_compact(N - offset, DUST_DEGREE / (N - offset), rng)
        cu, cv = core.edge_arrays()
        du, dv = dust.edge_arrays()
        return CompactGraph.from_edge_arrays(
            N, np.concatenate([cu, du + offset]), np.concatenate([cv, dv + offset])
        )

    def _events(self, graph: CompactGraph, rng: np.random.Generator) -> None:
        """Build the event stream: ``self.events`` holds ``(kind, dict)``."""
        offset = COMMUNITIES * COMMUNITY_SIZE
        u, v = graph.edge_arrays()
        edges = set(zip(u.tolist(), v.tolist()))

        def fresh_pair(low: int, high: int) -> tuple[int, int]:
            while True:
                a, b = sorted((low + rng.choice(high - low, size=2, replace=False)).tolist())
                if (a, b) not in edges:
                    return a, b

        self.events: list[tuple[str, dict]] = []
        for batch in range(self.rounds * BATCHES_PER_ROUND):
            inserts = [fresh_pair(offset, N) for _ in range(3)]
            if batch % BATCHES_PER_ROUND == 0:
                base = (batch // BATCHES_PER_ROUND) % COMMUNITIES * COMMUNITY_SIZE
                inserts.append(fresh_pair(base, base + COMMUNITY_SIZE))
            dust = sorted(e for e in edges if e[0] >= offset)
            deletes = [dust[int(rng.integers(len(dust)))]]
            edges.difference_update(deletes)
            edges.update(inserts)
            rows = [["+", a, b] for a, b in inserts] + [["-", a, b] for a, b in deletes]
            self.events.append(("edit", {"id": f"e{batch}", "edits": rows}))
            for j in range(RELEASES_PER_BATCH):
                request = {
                    "id": f"r{batch}.{j}",
                    "estimator": "cc" if j % 2 == 0 else "sf",
                    "epsilon": EPSILONS[j],
                    "seed": int(rng.integers(2**31)),
                }
                self.events.append(("miss" if j == 0 else "hit", request))

    def prepare(self, traced: bool = False) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.base = self._base_graph(rng)
        self._events(self.base, rng)
        # Version zero is served once before timing, as a long-running
        # stream server would have: its tables are built and promoted.
        self.session = ReleaseSession()
        warm = [
            json.dumps({"id": "w0", "estimator": "cc", "epsilon": 1.0, "seed": 0}),
            json.dumps({"id": "w1", "estimator": "sf", "epsilon": 1.0, "seed": 1}),
        ]
        for response in serve_edit_stream(warm, self.session, self.base):
            if "error" in response:
                raise RuntimeError(f"warm-up failed: {response}")

    def timed_pass(self, tracer=None) -> Pass:
        return self.closed_loop(
            lambda lines: serve_edit_stream(lines, self.session, self.base), tracer
        )

    def check(self, run: Pass) -> int:
        """Replay every edit batch in process and compare each
        acknowledgement; re-serve a sample of versions through a fresh
        session with no cache and no promotion, and compare the records
        byte for byte."""
        per_batch = 1 + RELEASES_PER_BATCH
        batches = len(self.events) // per_batch
        checked = {BATCHES_PER_ROUND, batches - 1} if batches > 1 else {0}
        graph = self.base
        for batch in range(batches):
            first = batch * per_batch
            edit = self.events[first][1]
            inserts = [(a, b) for op, a, b in edit["edits"] if op == "+"]
            deletes = [(a, b) for op, a, b in edit["edits"] if op == "-"]
            if batch in checked:
                lines = [json.dumps(e) for _, e in self.events[first : first + per_batch]]
                cold = ReleaseSession(component_promotion=False)
                served = list(serve_edit_stream(lines, cold, graph))
                for offset, record in enumerate(served):
                    if json.dumps(record, sort_keys=True) != json.dumps(
                        self.responses[first + offset], sort_keys=True
                    ):
                        run.failed.add(first + offset)
            result = graph.apply_edits(inserts=inserts, deletes=deletes)
            graph = result.graph
            ack = self.responses[first]
            if ack.get("fingerprint") != graph.fingerprint() or ack.get("applied") != {
                "inserted": result.inserted,
                "deleted": result.deleted,
            }:
                run.failed.add(first)
        return 0
