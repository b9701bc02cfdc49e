"""Tests for the durable multi-tenant release daemon (``repro serve``).

Covers the three durable layers (accounts, audit log, daemon app) plus
the acceptance criterion end-to-end: ``kill -9`` mid-stream, restart,
per-tenant ε preserved exactly, over-budget requests rejected with a
structured error, and audit-replay totals matching every account's
ledger.
"""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.graphs.generators import planted_components_compact
from repro.graphs.io import write_edge_list
from repro.service.daemon import (
    AccountExistsError,
    AccountStore,
    AuditLog,
    InvalidTenantError,
    ReleaseDaemon,
    replay_audit,
)
from repro.service.daemon.accounts import validate_tenant
from repro.service.batch import _RequestServer
from repro.service.daemon.audit import AuditRecordError, release_label

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_components_compact(
        [10, 8], 0.4, np.random.default_rng(5)
    )
    path = str(tmp_path / "graph.edges")
    write_edge_list(graph, path)
    return path


def _http(method, url, body=None, timeout=30.0):
    """Tiny JSON-over-HTTP client: returns ``(status, decoded_body)``
    for success *and* error responses alike."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestTenantValidation:
    def test_safe_names_accepted(self):
        for name in ("acme", "a", "T-1", "org.unit_7", "0leading-digit"):
            assert validate_tenant(name) == name

    def test_unsafe_names_rejected(self):
        bad = ["", ".hidden", "../escape", "a/b", "a\\b", "a b",
               "x" * 65, None, 7, "-dash-first"]
        for name in bad:
            with pytest.raises(InvalidTenantError):
                validate_tenant(name)


class TestAccountStore:
    def test_create_get_and_durability(self, tmp_path):
        store = AccountStore(tmp_path / "accounts")
        account = store.create("acme", 2.0)
        # A brand-new store over the same directory (fresh process
        # after a restart) sees the budget exactly.
        reopened = AccountStore(tmp_path / "accounts")
        loaded = reopened.get("acme")
        assert loaded is not None
        assert loaded.accountant.total_epsilon == 2.0
        assert loaded.created_at == account.created_at
        assert loaded.accountant.ledger() == []
        assert reopened.tenants() == ["acme"]
        # Spends survive through the audit log, which restore charges.
        log = AuditLog(tmp_path / "audit.jsonl")
        log.append_release(
            tenant="acme", request_id="r0", estimator="cc",
            epsilon=0.5, fingerprint="f" * 64, seq=0,
        )
        log.close()
        account.accountant.spend(0.5, release_label("cc", "f" * 64, 0))
        log = AuditLog(tmp_path / "audit.jsonl")
        restarted = AccountStore(tmp_path / "accounts")
        restarted.restore(log.startup_ledgers)
        log.close()
        rebuilt = restarted.get("acme").accountant
        assert rebuilt.spent() == account.accountant.spent()
        assert rebuilt.ledger() == account.accountant.ledger()

    def test_create_twice_refused(self, tmp_path):
        store = AccountStore(tmp_path)
        store.create("acme", 1.0)
        with pytest.raises(AccountExistsError):
            store.create("acme", 5.0)

    def test_get_or_create_respects_default(self, tmp_path):
        store = AccountStore(tmp_path)
        assert store.get_or_create("ghost", None) is None
        account = store.get_or_create("auto", 3.0)
        assert account is not None
        assert account.accountant.total_epsilon == 3.0
        # Second sighting returns the same account, not a reset one.
        account.accountant.spend(1.0)
        store.save(account)
        again = store.get_or_create("auto", 3.0)
        assert again.accountant.spent() == pytest.approx(1.0)


class TestAuditLog:
    def test_append_replay_and_seq_continuation(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        assert log.next_seq == 0
        for i, (tenant, eps) in enumerate(
            [("a", 0.5), ("b", 1.0), ("a", 0.25)]
        ):
            seq = log.allocate_seq()
            assert seq == i
            log.append_release(
                tenant=tenant, request_id=f"r{i}", estimator="cc",
                epsilon=eps, fingerprint="f" * 64, seq=seq,
            )
        log.close()

        summary = replay_audit(path)
        assert summary.records == 3
        assert summary.last_seq == 2
        assert summary.epsilon_by_tenant["a"] == pytest.approx(0.75)
        assert summary.releases_by_tenant == {"a": 2, "b": 1}

        # Reopening continues the sequence where it left off.
        reopened = AuditLog(path)
        assert reopened.next_seq == 3
        reopened.close()

    def test_allocate_does_not_advance(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        assert log.allocate_seq() == log.allocate_seq() == 0
        log.close()

    def test_out_of_order_seq_refused(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        with pytest.raises(ValueError, match="out of order"):
            log.append_release(
                tenant="a", request_id=0, estimator="cc",
                epsilon=0.5, fingerprint=None, seq=7,
            )
        log.close()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        log.append_release(
            tenant="a", request_id=0, estimator="cc",
            epsilon=0.5, fingerprint=None, seq=0,
        )
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "release", "seq": 1, "ten')  # kill -9
        summary = replay_audit(path)
        assert summary.records == 1
        assert summary.epsilon_by_tenant == {"a": pytest.approx(0.5)}
        # And the log stays appendable: the next writer truncates the
        # torn fragment and continues from the last *complete* record.
        reopened = AuditLog(path)
        assert reopened.next_seq == 1
        reopened.append_release(
            tenant="a", request_id=1, estimator="cc",
            epsilon=0.25, fingerprint=None, seq=1,
        )
        reopened.close()
        summary = replay_audit(path)
        assert summary.records == 2
        assert summary.epsilon_by_tenant == {"a": pytest.approx(0.75)}

    def test_interior_damage_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"torn interior\n{"kind": "release", "seq": 0, '
                        '"tenant": "a", "epsilon": 0.5, '
                        '"estimator": "cc"}\n')
        with pytest.raises(ValueError):
            replay_audit(path)

    def test_malformed_record_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"kind": "release", "seq": 0, "tenant": "a", '
                        '"epsilon": -2.0, "estimator": "cc"}\n')
        with pytest.raises(AuditRecordError):
            replay_audit(path)

    def test_missing_file_is_empty_history(self, tmp_path):
        summary = replay_audit(tmp_path / "never-written.jsonl")
        assert summary.records == 0
        assert summary.last_seq == -1

    def test_failed_append_does_not_consume_seq(self, tmp_path, io_fault):
        """An append whose fsync fails leaves the log unchanged, so the
        next release reuses the seq without logging it twice."""
        from repro.storage import read_jsonl_records

        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)

        def append(epsilon):
            log.append_release(
                tenant="a", request_id=None, estimator="cc",
                epsilon=epsilon, fingerprint=None, seq=log.allocate_seq(),
            )

        append(0.5)
        before = path.read_bytes()
        io_fault("fsync_eio")
        with pytest.raises(OSError):
            append(0.25)
        assert path.read_bytes() == before
        assert log.next_seq == 1
        append(0.125)
        log.close()
        assert [r["seq"] for r in read_jsonl_records(path)] == [0, 1]
        assert replay_audit(path).epsilon_by_tenant == {"a": 0.625}

    def test_failed_undo_degrades_probe(self, tmp_path, io_fault):
        log = AuditLog(tmp_path / "audit.jsonl")
        assert log.probe() is None
        io_fault("fsync_eio", undo_fails=True)
        with pytest.raises(OSError):
            log.append_release(
                tenant="a", request_id=0, estimator="cc",
                epsilon=0.5, fingerprint=None, seq=0,
            )
        assert "closed" in log.probe()
        log.close()

    def test_replay_sums_each_tenant_once(self, tmp_path, monkeypatch):
        """Regression: replay re-ran ``math.fsum`` over all of a
        tenant's amounts on every record, quadratic in the log length.
        The totals are fsum over the same list, so unchanged."""
        from types import SimpleNamespace

        import repro.service.daemon.audit as audit_module

        amounts = [(0.1, 0.25, 0.7)[i % 3] for i in range(10_000)]
        path = tmp_path / "audit.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for seq, epsilon in enumerate(amounts):
                handle.write(json.dumps({
                    "kind": "release", "seq": seq, "tenant": "solo",
                    "estimator": "cc", "epsilon": epsilon,
                }) + "\n")
        calls = []

        def counting_fsum(values):
            calls.append(1)
            return math.fsum(values)

        monkeypatch.setattr(
            audit_module, "math", SimpleNamespace(fsum=counting_fsum)
        )
        summary = replay_audit(path)
        assert len(calls) == 1
        assert summary.epsilon_by_tenant == {"solo": math.fsum(amounts)}
        assert summary.releases_by_tenant == {"solo": 10_000}
        assert (summary.records, summary.last_seq) == (10_000, 9_999)


class TestDaemonHttp:
    """End-to-end over a real socket via ``start_in_background``."""

    def test_health_estimators_and_stats(self, tmp_path):
        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, body = _http("GET", f"{base}/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = _http("GET", f"{base}/v1/estimators")
            assert status == 200
            names = {spec["name"] for spec in body["estimators"]}
            assert {"cc", "sf", "edge_dp"} <= names
            status, body = _http("GET", f"{base}/v1/stats")
            assert status == 200
            assert body["releases_served"] == 0
            status, body = _http("GET", f"{base}/nope")
            assert status == 404 and body["error"]["code"] == "not_found"

    def test_tenant_provisioning(self, tmp_path):
        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, body = _http(
                "PUT", f"{base}/v1/tenants/acme", {"total_epsilon": 2.0}
            )
            assert status == 201
            assert body["total_epsilon"] == 2.0 and body["spent"] == 0.0
            status, body = _http(
                "PUT", f"{base}/v1/tenants/acme", {"total_epsilon": 9.0}
            )
            assert status == 409
            assert body["error"]["code"] == "account_exists"
            status, body = _http("GET", f"{base}/v1/tenants/acme")
            assert status == 200 and body["remaining"] == 2.0
            status, body = _http("GET", f"{base}/v1/tenants/ghost")
            assert status == 404
            assert body["error"]["code"] == "unknown_tenant"
            status, body = _http(
                "PUT", f"{base}/v1/tenants/..escape",
                {"total_epsilon": 1.0},
            )
            assert status == 400
            assert body["error"]["code"] == "invalid_tenant"
            status, body = _http(
                "PUT", f"{base}/v1/tenants/bad", {"total_epsilon": -1}
            )
            assert status == 400
            assert body["error"]["code"] == "malformed_request"

    def test_only_error_statuses_count_as_rejections(
        self, tmp_path, graph_file
    ):
        """A provisioning PUT answers 201 Created: a success, not a
        rejection.  The malformed release counts, and so does a request
        the HTTP framing refuses."""
        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, _ = _http(
                "PUT", f"{base}/v1/tenants/acme", {"total_epsilon": 2.0}
            )
            assert status == 201
            status, _ = _http("POST", f"{base}/v1/release", {
                "tenant": "acme", "estimator": "cc", "graph": graph_file,
            })  # no epsilon
            assert status == 400
            status, _ = _http("POST", f"{base}/v1/release", {
                "tenant": "acme", "estimator": "cc", "epsilon": 1.0,
                "graph": graph_file, "seed": 1,
            })
            assert status == 200
            status, stats = _http("GET", f"{base}/v1/stats")
            assert status == 200
            assert stats["releases_served"] == 1
            assert stats["requests_rejected"] == 1
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30.0
            ) as raw:
                raw.sendall(b"GARBAGE\r\n\r\n")
                assert raw.recv(4096).startswith(b"HTTP/1.1 400")
            status, stats = _http("GET", f"{base}/v1/stats")
            assert stats["requests_rejected"] == 2

    def test_release_admission_and_budget_flow(self, tmp_path, graph_file):
        daemon = ReleaseDaemon(
            tmp_path / "state", default_tenant_budget=2.0
        )
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            release = {"tenant": "acme", "estimator": "cc",
                       "epsilon": 1.0, "graph": graph_file, "seed": 1}
            status, first = _http("POST", f"{base}/v1/release", release)
            assert status == 200
            assert first["tenant"] == "acme" and first["seq"] == 0
            assert "value" in first
            assert first["budget"]["remaining"] == pytest.approx(1.0)

            status, second = _http("POST", f"{base}/v1/release", release)
            assert status == 200
            assert second["budget"]["remaining"] == pytest.approx(0.0)

            # Third request: structured over-budget rejection, no crash.
            status, rejected = _http("POST", f"{base}/v1/release", release)
            assert status == 429
            assert rejected["error"]["code"] == "over_budget"
            assert rejected["budget"]["spent"] == pytest.approx(2.0)

            # The daemon is still healthy and the audit matches.
            status, audit = _http("GET", f"{base}/v1/audit/summary")
            assert status == 200
            assert audit["tenants"]["acme"] == {
                "epsilon": pytest.approx(2.0), "releases": 2,
            }

    def test_structured_rejections(self, tmp_path, graph_file):
        daemon = ReleaseDaemon(
            tmp_path / "state", default_tenant_budget=1.0
        )
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            url = f"{base}/v1/release"
            cases = [
                ({"estimator": "cc", "epsilon": 1.0},
                 400, "invalid_tenant"),          # missing tenant
                ({"tenant": "t", "epsilon": 1.0},
                 400, "malformed_request"),       # missing estimator
                ({"tenant": "t", "estimator": "nope", "epsilon": 1.0},
                 404, "unknown_estimator"),
                ({"tenant": "t", "estimator": "cc"},
                 400, "malformed_request"),       # missing epsilon
                ({"tenant": "t", "estimator": "cc", "epsilon": -3},
                 400, "malformed_request"),
                ({"tenant": "t", "estimator": "non_private",
                  "graph": graph_file},
                 403, "non_private_refused"),
                ({"tenant": "t", "estimator": "cc", "epsilon": 0.5,
                  "graph": str(graph_file) + ".missing"},
                 400, "invalid_request"),
            ]
            for body, want_status, want_code in cases:
                status, response = _http("POST", url, body)
                assert (status, response["error"]["code"]) == (
                    want_status, want_code
                ), body
            # Undecodable body: structured 400, connection survives.
            request = urllib.request.Request(
                url, data=b"{not json", method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=30.0) as resp:
                    status, body = resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                status, body = exc.code, json.loads(exc.read())
            assert status == 400
            assert body["error"]["code"] == "malformed_request"
            status, body = _http("GET", f"{base}/healthz")
            assert status == 200

    def test_unknown_tenant_without_default_budget(
        self, tmp_path, graph_file
    ):
        daemon = ReleaseDaemon(tmp_path / "state")  # no default budget
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, body = _http("POST", f"{base}/v1/release", {
                "tenant": "drifter", "estimator": "cc",
                "epsilon": 0.5, "graph": graph_file,
            })
            assert status == 404
            assert body["error"]["code"] == "unknown_tenant"
            assert "PUT /v1/tenants/drifter" in body["error"]["message"]

    def test_restart_preserves_budgets_exactly(self, tmp_path, graph_file):
        state = tmp_path / "state"
        release = {"tenant": "acme", "estimator": "sf",
                   "epsilon": 0.75, "graph": graph_file, "seed": 9}
        daemon = ReleaseDaemon(state, default_tenant_budget=2.0)
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, first = _http("POST", f"{base}/v1/release", release)
            assert status == 200
            status, before = _http("GET", f"{base}/v1/tenants/acme")
            assert status == 200

        # Fresh daemon over the same state dir — a restart.
        daemon2 = ReleaseDaemon(state, default_tenant_budget=2.0)
        with daemon2.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, after = _http("GET", f"{base}/v1/tenants/acme")
            assert status == 200
            assert after["spent"] == before["spent"]  # bit-exact
            assert after["remaining"] == before["remaining"]
            # Audit sequence continues, no renumbering.
            status, reply = _http("POST", f"{base}/v1/release", release)
            assert status == 200
            assert reply["seq"] == 1
            assert reply["budget"]["spent"] == pytest.approx(1.5)

    def test_audited_release_counted_at_restart(self, tmp_path, graph_file):
        """An audited release nobody spent live (kill -9 right after the
        audit fsync) is counted at restart, under its live label."""
        state = tmp_path / "state"
        daemon = ReleaseDaemon(state, default_tenant_budget=2.0)
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, first = _http("POST", f"{base}/v1/release", {
                "tenant": "acme", "estimator": "cc", "epsilon": 0.5,
                "graph": graph_file, "seed": 1,
            })
            assert status == 200
        fingerprint = first["fingerprint"]
        live = daemon.accounts.get("acme").accountant.ledger()
        assert live == [(f"cc@{fingerprint[:12]}#0", 0.5)]

        log = AuditLog(state / "audit.jsonl")
        log.append_release(
            tenant="acme", request_id="lost", estimator="sf",
            epsilon=0.25, fingerprint=fingerprint, seq=log.allocate_seq(),
        )
        log.close()

        daemon2 = ReleaseDaemon(state, default_tenant_budget=2.0)
        rebuilt = daemon2.accounts.get("acme").accountant
        assert rebuilt.ledger() == live + [
            (f"sf@{fingerprint[:12]}#1", 0.25)
        ]
        assert rebuilt.spent() == 0.75
        daemon2.close()


def _legacy_record(account):
    """An account file in the format that also stored the ledger."""
    return {
        "tenant": account.tenant,
        "account": account.accountant.to_dict(),
        "created_at": account.created_at,
        "updated_at": account.created_at,
    }


class TestAuditLedger:
    """The audit log is the only durable ε ledger: one fsync per
    release, accounts rebuilt from it at startup."""

    def test_one_durable_write_per_release(
        self, tmp_path, graph_file, monkeypatch
    ):
        releases = 6
        fsyncs, saves = [], []
        real_fsync, real_save = os.fsync, AccountStore.save

        def counting_fsync(fd):
            fsyncs.append(fd)
            return real_fsync(fd)

        def counting_save(store, account):
            saves.append(account.tenant)
            return real_save(store, account)

        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, _ = _http(
                "PUT", f"{base}/v1/tenants/acme", {"total_epsilon": 10.0}
            )
            assert status == 201
            monkeypatch.setattr(os, "fsync", counting_fsync)
            monkeypatch.setattr(AccountStore, "save", counting_save)
            for i in range(releases):
                status, _ = _http("POST", f"{base}/v1/release", {
                    "tenant": "acme", "estimator": ("cc", "sf")[i % 2],
                    "epsilon": 0.5, "graph": graph_file, "seed": i,
                })
                assert status == 200
            assert (len(saves), len(fsyncs)) == (0, releases)

    def test_restart_rebuilds_identical_accounts(self, tmp_path, graph_file):
        """A seeded mixed stream — cc/sf/edge_dp, several ε, over-budget
        and invalid requests, a non-private release — then a fresh
        daemon on the same directory: every account matches exactly."""
        state = tmp_path / "state"
        budgets = {"t0": 3.0, "t1": 2.5, "t2": 1.75}
        rng = np.random.default_rng(17)
        statuses = []
        daemon = ReleaseDaemon(state, allow_non_private=True)
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            for tenant, budget in budgets.items():
                status, _ = _http(
                    "PUT", f"{base}/v1/tenants/{tenant}",
                    {"total_epsilon": budget},
                )
                assert status == 201
            stream = [
                {
                    "tenant": str(rng.choice(list(budgets))),
                    "estimator": str(rng.choice(["cc", "sf", "edge_dp"])),
                    "epsilon": float(rng.choice([0.1, 0.25, 0.3, 0.7])),
                    "graph": graph_file,
                    "seed": int(rng.integers(2**31)),
                }
                for _ in range(24)
            ]
            stream[5]["graph"] = graph_file + ".missing"
            stream[9] = {"tenant": "t1", "estimator": "non_private",
                         "graph": graph_file}
            stream[14]["epsilon"] = 50.0
            for request in stream:
                status, body = _http("POST", f"{base}/v1/release", request)
                statuses.append(status)
        assert statuses[5] == 400 and statuses[9] == 200
        assert statuses[14] == 429
        served = {r["estimator"] for r, st in zip(stream, statuses)
                  if st == 200}
        assert served == {"cc", "sf", "edge_dp", "non_private"}
        assert statuses.count(200) >= 12

        restarted = ReleaseDaemon(state, allow_non_private=True)
        for tenant in budgets:
            live = daemon.accounts.get(tenant)
            rebuilt = restarted.accounts.get(tenant)
            assert rebuilt.accountant.ledger() == live.accountant.ledger()
            assert rebuilt.accountant.spent() == live.accountant.spent()
            assert (
                rebuilt.accountant.remaining()
                == live.accountant.remaining()
            )
            assert rebuilt.summary()["releases"] == live.summary()["releases"]
        restarted.close()

    def _serve_two_tenants(self, state, graph_file):
        daemon = ReleaseDaemon(state, default_tenant_budget=4.0)
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            for i, (tenant, epsilon) in enumerate(
                [("acme", 0.1), ("beta", 0.7), ("acme", 0.3), ("beta", 0.2)]
            ):
                status, _ = _http("POST", f"{base}/v1/release", {
                    "tenant": tenant, "estimator": "cc",
                    "epsilon": epsilon, "graph": graph_file, "seed": i,
                })
                assert status == 200
        return {t: daemon.accounts.get(t) for t in ("acme", "beta")}

    def test_legacy_state_directory(self, tmp_path, graph_file):
        """Account files that still carry their ledger (the earlier
        format) restart with identical spent ε and ledger; one whose
        ledger lags the audit log takes the audit's."""
        state = tmp_path / "state"
        live = self._serve_two_tenants(state, graph_file)
        for account in live.values():
            record = _legacy_record(account)
            if account.tenant == "beta":
                record["account"]["ledger"].pop()  # crash before write
            with open(state / "accounts" / f"{account.tenant}.json",
                      "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
        restarted = ReleaseDaemon(state)
        for tenant, account in live.items():
            rebuilt = restarted.accounts.get(tenant).accountant
            assert rebuilt.total_epsilon == 4.0
            assert rebuilt.ledger() == account.accountant.ledger()
            assert rebuilt.spent() == account.accountant.spent()
        restarted.close()

    def test_legacy_ledger_above_audit_fails_startup(
        self, tmp_path, graph_file
    ):
        state = tmp_path / "state"
        live = self._serve_two_tenants(state, graph_file)
        record = _legacy_record(live["beta"])
        record["account"]["ledger"].append({"label": "x", "epsilon": 0.5})
        with open(state / "accounts" / "beta.json", "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle)
        with pytest.raises(ValueError, match="'beta'"):
            ReleaseDaemon(state)

    def test_audited_tenant_without_account_fails_startup(
        self, tmp_path, graph_file
    ):
        state = tmp_path / "state"
        self._serve_two_tenants(state, graph_file)
        os.unlink(state / "accounts" / "acme.json")
        with pytest.raises(ValueError, match="'acme'"):
            ReleaseDaemon(state)

    def test_failed_audit_append_charges_nothing(
        self, tmp_path, graph_file, io_fault, capsys
    ):
        from repro.storage import read_jsonl_records

        state = tmp_path / "state"
        audit_path = state / "audit.jsonl"
        release = {"tenant": "acme", "estimator": "cc", "epsilon": 0.5,
                   "graph": graph_file}
        daemon = ReleaseDaemon(state, default_tenant_budget=2.0)
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, _ = _http("POST", f"{base}/v1/release",
                              {**release, "seed": 1})
            assert status == 200
            before = audit_path.read_bytes()
            io_fault("fsync_eio")
            status, body = _http("POST", f"{base}/v1/release",
                                 {**release, "seed": 2})
            assert status == 500
            assert body["error"]["code"] == "internal_error"
            assert audit_path.read_bytes() == before
            status, account = _http("GET", f"{base}/v1/tenants/acme")
            assert (account["spent"], account["releases"]) == (0.5, 1)
            status, _ = _http("GET", f"{base}/healthz")
            assert status == 200
            status, ok = _http("POST", f"{base}/v1/release",
                               {**release, "seed": 3})
            assert status == 200
            assert (ok["seq"], ok["budget"]["spent"]) == (1, 1.0)
        assert "OSError: [Errno 5] injected EIO" in capsys.readouterr().err
        live = daemon.accounts.get("acme").accountant
        assert [r["seq"] for r in read_jsonl_records(audit_path)] == [0, 1]
        restarted = ReleaseDaemon(state, default_tenant_budget=2.0)
        rebuilt = restarted.accounts.get("acme").accountant
        assert rebuilt.ledger() == live.ledger()
        assert rebuilt.spent() == live.spent() == 1.0
        restarted.close()

    def test_internal_error_prints_traceback(
        self, tmp_path, graph_file, monkeypatch, capsys
    ):
        class EstimatorCrash(Exception):
            pass

        def crash(server, request, index):
            raise EstimatorCrash("boom")

        monkeypatch.setattr(_RequestServer, "serve_request", crash)
        daemon = ReleaseDaemon(tmp_path / "state", default_tenant_budget=1.0)
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, body = _http("POST", f"{base}/v1/release", {
                "tenant": "acme", "estimator": "cc", "epsilon": 0.5,
                "graph": graph_file, "seed": 1,
            })
        assert status == 500
        assert body["error"]["code"] == "internal_error"
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "EstimatorCrash: boom" in err
        assert daemon.accounts.get("acme").accountant.spent() == 0.0


@pytest.mark.slow
class TestKillNineAcceptance:
    """The ISSUE acceptance criterion, against the real CLI process."""

    def _start(self, state, graph_file, tmp_path):
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            _SRC if not existing else _SRC + os.pathsep + existing
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state), "--port", "0",
             "--tenant-budget", "2.0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True, cwd=str(tmp_path),
        )
        # The CLI prints one parseable line once the socket listens.
        deadline = time.time() + 60.0
        line = ""
        while time.time() < deadline:
            line = process.stdout.readline()
            if "listening on" in line:
                break
        else:
            process.kill()
            pytest.fail(f"daemon never announced a port: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        port = int(address.rsplit(":", 1)[1].strip("/"))
        return process, f"http://127.0.0.1:{port}"

    def test_kill_nine_midstream_preserves_epsilon(
        self, tmp_path, graph_file
    ):
        state = tmp_path / "state"
        process, base = self._start(state, graph_file, tmp_path)
        try:
            release = {"tenant": "acme", "estimator": "cc",
                       "epsilon": 0.5, "graph": graph_file}
            for seed in (1, 2):
                status, body = _http(
                    "POST", f"{base}/v1/release",
                    {**release, "seed": seed},
                )
                assert status == 200, body
            status, account = _http("GET", f"{base}/v1/tenants/acme")
            assert status == 200
            assert account["spent"] == pytest.approx(1.0)
        finally:
            # kill -9 mid-stream: no atexit, no flush, no goodbye.
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30.0)

        # Restart over the same state dir.
        process, base = self._start(state, graph_file, tmp_path)
        try:
            # Per-tenant ε preserved exactly.
            status, account = _http("GET", f"{base}/v1/tenants/acme")
            assert status == 200
            assert account["spent"] == pytest.approx(1.0)
            assert account["remaining"] == pytest.approx(1.0)
            assert account["releases"] == 2

            # Audit replay: one record per successful release, totals
            # matching the account ledger.
            status, audit = _http("GET", f"{base}/v1/audit/summary")
            assert status == 200
            assert audit["records"] == 2
            assert audit["tenants"]["acme"]["releases"] == 2
            assert audit["tenants"]["acme"]["epsilon"] == pytest.approx(
                account["spent"]
            )

            # Next over-budget request: structured rejection, not a
            # crash.
            status, rejected = _http("POST", f"{base}/v1/release", {
                "tenant": "acme", "estimator": "cc", "epsilon": 1.5,
                "graph": graph_file, "seed": 3,
            })
            assert status == 429
            assert rejected["error"]["code"] == "over_budget"

            # An in-budget request still succeeds after the restart.
            status, ok = _http("POST", f"{base}/v1/release", {
                "tenant": "acme", "estimator": "cc", "epsilon": 1.0,
                "graph": graph_file, "seed": 4,
            })
            assert status == 200
            assert ok["budget"]["remaining"] == pytest.approx(0.0)
            assert ok["seq"] == 2  # sequence resumed, not reset

            # Cross-check: the on-disk audit fsum equals the restarted
            # daemon's compensated spend for every tenant.
            summary = replay_audit(state / "audit.jsonl")
            for tenant, total in summary.epsilon_by_tenant.items():
                status, live = _http("GET", f"{base}/v1/tenants/{tenant}")
                assert status == 200
                assert live["spent"] == pytest.approx(total, rel=1e-12)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30.0)


class TestDaemonTelemetry:
    """``GET /metrics`` + ``GET /healthz`` probes + monotonic uptime."""

    def _http_text(self, url):
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )

    def test_metrics_exposition_after_release(self, tmp_path, graph_file):
        daemon = ReleaseDaemon(
            tmp_path / "state", default_tenant_budget=5.0
        )
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            for seed in (1, 2):
                status, _ = _http("POST", f"{base}/v1/release", {
                    "tenant": "tel-acme", "estimator": "cc",
                    "epsilon": 0.5, "graph": graph_file, "seed": seed,
                })
                assert status == 200
            status, content_type, text = self._http_text(f"{base}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        lines = text.splitlines()
        # Per-tenant release counter and epsilon spend (tenant name is
        # unique to this test, so exact values hold even though the
        # registry is process-global).
        assert 'repro_daemon_releases_total{tenant="tel-acme"} 2' in lines
        assert 'repro_daemon_requests_total{tenant="tel-acme"} 2' in lines
        assert 'repro_daemon_epsilon_spent_total{tenant="tel-acme"} 1' \
            in lines
        # Latency histogram: cumulative buckets ending at +Inf == count.
        assert 'repro_daemon_request_seconds_bucket' \
            '{tenant="tel-acme",le="+Inf"} 2' in lines
        assert 'repro_daemon_request_seconds_count{tenant="tel-acme"} 2' \
            in lines
        assert "# TYPE repro_daemon_request_seconds histogram" in lines
        assert "# TYPE repro_daemon_releases_total counter" in lines

    def test_two_daemons_report_their_own_stats(self, tmp_path, graph_file):
        """``/v1/stats`` reads each daemon's own counts; ``/metrics``
        renders the process registry, which sums both daemons."""

        def process_total(text, series):
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith((series + " ", series + "{"))
            )

        series = ("repro_daemon_releases_total", "repro_daemon_errors_total",
                  "repro_session_queries_total")
        first = ReleaseDaemon(tmp_path / "first", default_tenant_budget=5.0)
        second = ReleaseDaemon(tmp_path / "second", default_tenant_budget=5.0)
        with first.start_in_background() as one, \
                second.start_in_background() as two:
            bases = [f"http://127.0.0.1:{h.port}" for h in (one, two)]
            _, _, text = self._http_text(f"{bases[0]}/metrics")
            before = [process_total(text, name) for name in series]
            release = {"tenant": "pair", "estimator": "cc", "epsilon": 0.5,
                       "graph": graph_file}
            for base, seed in ((bases[0], 1), (bases[0], 2), (bases[1], 3)):
                status, _ = _http(
                    "POST", f"{base}/v1/release", {**release, "seed": seed}
                )
                assert status == 200
            assert _http("GET", f"{bases[1]}/nope")[0] == 404
            stats = [_http("GET", f"{base}/v1/stats")[1] for base in bases]
            _, _, text = self._http_text(f"{bases[0]}/metrics")
        assert [
            (s["releases_served"], s["requests_rejected"],
             s["session"]["queries"])
            for s in stats
        ] == [(2, 0, 2), (1, 1, 1)]
        after = [process_total(text, name) for name in series]
        assert [b - a for a, b in zip(before, after)] == [3.0, 1.0, 3.0]

    def test_metrics_rejects_non_get(self, tmp_path):
        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, body = _http("POST", f"{base}/metrics", {})
            assert status == 405
            assert body["error"]["code"] == "method_not_allowed"

    def test_error_code_counters(self, tmp_path):
        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            before = _http("GET", f"{base}/nope")  # not_found
            assert before[0] == 404
            _, _, text = self._http_text(f"{base}/metrics")
        for line in text.splitlines():
            if line.startswith('repro_daemon_errors_total{code="not_found"}'):
                assert int(line.rsplit(" ", 1)[1]) >= 1
                break
        else:
            raise AssertionError("not_found error counter missing")

    def test_healthz_reports_probe_checks(self, tmp_path):
        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, body = _http("GET", f"{base}/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["checks"] == {
                "audit_log": "ok", "account_store": "ok",
            }
            assert body["uptime_seconds"] >= 0.0

    def test_healthz_degrades_when_audit_log_unwritable(self, tmp_path):
        daemon = ReleaseDaemon(tmp_path / "state")
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            # Simulate a wedged audit log (e.g. disk pulled out from
            # under the daemon): the writer can no longer append.
            daemon.audit._writer.close()
            status, body = _http("GET", f"{base}/healthz")
            assert status == 503
            assert body["status"] == "degraded"
            assert "closed" in body["checks"]["audit_log"]
            assert body["checks"]["account_store"] == "ok"
            # A degraded probe reports status; it rejects no request.
            status, stats = _http("GET", f"{base}/v1/stats")
            assert status == 200
            assert stats["requests_rejected"] == 0

    def test_uptime_uses_monotonic_clock(self, tmp_path, monkeypatch):
        """Regression: uptime was ``time.time() - started_at``, so an
        NTP step made it jump or go negative.  It must track the
        monotonic clock only."""
        from types import SimpleNamespace

        import repro.service.daemon.app as app_module

        clock = {"mono": 500.0, "wall": 1_700_000_000.0}
        monkeypatch.setattr(app_module, "time", SimpleNamespace(
            monotonic=lambda: clock["mono"],
            time=lambda: clock["wall"],
            perf_counter=time.perf_counter,
        ))
        daemon = ReleaseDaemon(tmp_path / "state")
        clock["mono"] += 7.5
        clock["wall"] -= 3600.0  # wall clock steps an hour backward
        assert daemon.uptime() == pytest.approx(7.5)

    def test_telemetry_log_records_releases(self, tmp_path, graph_file):
        from repro.storage import read_jsonl_records

        log_path = tmp_path / "telemetry.jsonl"
        daemon = ReleaseDaemon(
            tmp_path / "state", default_tenant_budget=5.0,
            telemetry_log_path=str(log_path),
        )
        with daemon.start_in_background() as handle:
            base = f"http://127.0.0.1:{handle.port}"
            status, body = _http("POST", f"{base}/v1/release", {
                "tenant": "acme", "estimator": "cc", "epsilon": 0.5,
                "graph": graph_file, "seed": 1,
            })
            assert status == 200
        events = list(read_jsonl_records(log_path))
        kinds = [e["event"] for e in events]
        assert "release" in kinds
        release = next(e for e in events if e["event"] == "release")
        assert release["tenant"] == "acme"
        assert release["estimator"] == "cc"
        assert release["epsilon"] == 0.5
        assert release["seconds"] > 0.0
        assert release["seq"] == body["seq"]
        # Shutdown flushes a final metrics snapshot.
        assert kinds[-1] == "metrics"
