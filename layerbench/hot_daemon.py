"""Workload ``hot-daemon``: warm releases through ``repro serve`` over
HTTP, where time goes to the serving lock, the fsync'd audit append, the
account rewrite, GEM and JSON framing; the extension and LP do nothing.

The daemon runs as a subprocess with a fresh state directory.  One
client process holds two keep-alive connections and drives each in a
closed loop for its own tenant.  A round sends 600 cc/sf releases per
tenant over a Zipf mix of three sparse graphs that were warmed during
set-up; every round uses new tenants, so each round rewrites ledgers of
the same sizes.  ε values are dyadic, so the client's own ε sum is
exact and must equal the daemon's.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.graphs.generators import erdos_renyi_compact
from repro.graphs.store import open_npz, save_npz
from repro.service import ReleaseSession

from harness import Pass, counter_delta
from layers import load_spans

GRAPHS = ((2000, 0.5), (1000, 0.6), (500, 0.5))
ZIPF_EXPONENT = 1.2
CONNECTIONS = 2
PER_TENANT = 600
EPSILONS = (0.25, 0.5, 1.0)
TENANT_BUDGET = 1e6
CHECK_SAMPLES = 16
START_TIMEOUT_S = 60.0


class Client:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body=None) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode()
        self.conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = response.read()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(payload)
        return response.status, {"text": payload.decode()}

    def close(self) -> None:
        self.conn.close()


def zipf_counts(total: int, k: int, exponent: float) -> list[int]:
    """Split ``total`` over ``k`` ranks in proportion to 1/rank^exponent
    (largest remainder), so every run has the same mix."""
    weights = 1.0 / np.arange(1, k + 1) ** exponent
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    for i in np.argsort(-(exact - counts))[: total - counts.sum()]:
        counts[i] += 1
    return counts.tolist()


def memo_counts(client: Client) -> tuple[float, float]:
    """LP memo hits and misses from the daemon's ``/metrics``."""
    _, body = client.call("GET", "/metrics")
    found = {"hit": 0.0, "miss": 0.0}
    for line in body["text"].splitlines():
        for result in found:
            if line.startswith(f'repro_lp_memo_total{{result="{result}"}}'):
                found[result] = float(line.rsplit(" ", 1)[1])
    return found["hit"], found["miss"]


class HotDaemon:
    ROUND_OPS = CONNECTIONS * PER_TENANT
    NOMINAL_ROUND_S = 5.0

    def __init__(self, work: str, seed: int, rounds: int) -> None:
        self.work = work
        self.seed = seed
        self.rounds = rounds
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.proc: subprocess.Popen | None = None
        self.clients: list[Client] = []
        self.pool = ThreadPoolExecutor(CONNECTIONS)
        self.starts = 0

    # -- server lifecycle ------------------------------------------------
    def _start(self, traced: bool) -> None:
        self.starts += 1
        state = os.path.join(self.work, f"state{self.starts}")
        serve = ["serve", "--state-dir", state, "--host", "127.0.0.1", "--port", "0"]
        if traced:
            self.spans_path = os.path.join(self.work, "server-spans.jsonl")
            launcher = os.path.join(self.root, "layerbench", "serve_traced.py")
            argv = [sys.executable, launcher, "--spans", self.spans_path, *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        log = open(os.path.join(self.work, f"server{self.starts}.log"), "wb")
        with log:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        line = b""
        while b"listening on" not in line:
            timeout = max(deadline - time.monotonic(), 0.0)
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            line = self.proc.stdout.readline() if ready else b""
            if not ready or (not line and self.proc.poll() is not None):
                self._stop()
                raise RuntimeError("daemon did not report listening")
        port = int(re.search(rb"http://[^:/]+:(\d+)", line).group(1))
        self.clients = [Client(port) for _ in range(CONNECTIONS)]

    def _stop(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    # -- workload ----------------------------------------------------------
    def prepare(self, traced: bool = False) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.graph_paths = []
        for k, (n, c) in enumerate(GRAPHS):
            path = os.path.join(self.work, f"hot{k}.npz")
            save_npz(erdos_renyi_compact(n, c / n, rng), path)
            self.graph_paths.append(path)
        counts = zipf_counts(PER_TENANT, len(GRAPHS), ZIPF_EXPONENT)
        order = np.repeat(np.arange(len(GRAPHS)), counts)
        self.plan: list[list[list[dict]]] = []
        for r in range(self.rounds):
            per_round = []
            for c in range(CONNECTIONS):
                tenant = f"r{r}-c{c}"
                graphs = rng.permutation(order)
                per_round.append(
                    [
                        {
                            "tenant": tenant,
                            "id": i,
                            "graph": self.graph_paths[int(graphs[i])],
                            "estimator": "cc" if i % 2 == 0 else "sf",
                            "epsilon": EPSILONS[i % len(EPSILONS)],
                            "seed": int(rng.integers(2**31)),
                        }
                        for i in range(PER_TENANT)
                    ]
                )
            self.plan.append(per_round)
        self._stop()
        self._start(traced)
        admin = self.clients[0]
        for per_round in self.plan:
            for requests in per_round:
                status, body = admin.call(
                    "PUT", f"/v1/tenants/{requests[0]['tenant']}", {"total_epsilon": TENANT_BUDGET}
                )
                if status != 201:
                    raise RuntimeError(f"tenant provisioning failed: {body}")
        # Build each graph's extension (and warm the request path) on a
        # tenant outside the timed plan.
        admin.call("PUT", "/v1/tenants/warm", {"total_epsilon": TENANT_BUDGET})
        for i in range(4 * len(GRAPHS)):
            status, body = admin.call(
                "POST",
                "/v1/release",
                {
                    "tenant": "warm",
                    "graph": self.graph_paths[i % len(GRAPHS)],
                    "estimator": "cc" if i % 2 == 0 else "sf",
                    "epsilon": 0.5,
                    "seed": i,
                },
            )
            if status != 200:
                raise RuntimeError(f"warm-up failed: {body}")

    @staticmethod
    def _drive(client: Client, requests: list[dict]) -> list[tuple[float, float, int, dict]]:
        out = []
        for request in requests:
            started = time.perf_counter()
            status, body = client.call("POST", "/v1/release", request)
            out.append((started, time.perf_counter(), status, body))
        return out

    def timed_pass(self, tracer=None) -> Pass:
        run = Pass()
        self.memo_before = memo_counts(self.clients[0])
        self.stats_before = self.clients[0].call("GET", "/v1/stats")[1]["session"]
        self.responses: list[tuple[dict, int, dict]] = []
        run.start = time.perf_counter()
        for per_round in self.plan:
            started = time.perf_counter()
            futures = [
                self.pool.submit(self._drive, client, requests)
                for client, requests in zip(self.clients, per_round)
            ]
            results = [future.result() for future in futures]
            run.close_round(self.ROUND_OPS, time.perf_counter() - started)
            for requests, served in zip(per_round, results):
                for request, (sent, end, status, body) in zip(requests, served):
                    run.record(request["estimator"], end - sent, status == 200)
                    self.responses.append((request, status, body))
        run.end = time.perf_counter()
        return run

    def check(self, run: Pass) -> int:
        """ε spent per tenant and in the audit summary must equal the
        client's own sum; a sample of values must equal an in-process
        session's release for the same seed."""
        admin = self.clients[0]
        expected: dict[str, tuple[float, int]] = {}
        for request, status, _ in self.responses:
            if status == 200:
                spent, count = expected.get(request["tenant"], (0.0, 0))
                expected[request["tenant"]] = (spent + request["epsilon"], count + 1)
        failed = 0
        _, audit = admin.call("GET", "/v1/audit/summary")
        for tenant, (spent, count) in expected.items():
            _, account = admin.call("GET", f"/v1/tenants/{tenant}")
            logged = audit["tenants"].get(tenant, {})
            if (account.get("spent"), account.get("releases")) != (spent, count):
                failed += 1
            if (logged.get("epsilon"), logged.get("releases")) != (spent, count):
                failed += 1
        session = ReleaseSession()
        graphs = {path: open_npz(path) for path in self.graph_paths}
        step = len(self.responses) // CHECK_SAMPLES
        for index in range(0, step * CHECK_SAMPLES, step):
            request, status, body = self.responses[index]
            release = session.query(
                request["estimator"],
                epsilon=request["epsilon"],
                graph=graphs[request["graph"]],
                seed=request["seed"],
            )
            if status != 200 or (release.value, release.delta_hat) != (
                body["value"],
                body["delta_hat"],
            ):
                run.failed.add(index)
        return failed

    def peak_rss_pid(self):
        return self.proc.pid

    def layer_extras(self) -> dict:
        client = self.clients[0]
        _, stats = client.call("GET", "/v1/stats")
        hits, misses = (a - b for a, b in zip(memo_counts(client), self.memo_before))
        return {
            "session": counter_delta(stats["session"], self.stats_before),
            "memo_hits": hits,
            "memo_misses": misses,
        }

    def traced_spans(self, tracer) -> list[list]:
        """Stop the traced daemon and return the spans it wrote."""
        self._stop()
        return load_spans(self.spans_path)

    def close(self) -> None:
        self._stop()
        self.pool.shutdown()
