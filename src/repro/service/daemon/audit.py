"""Append-only audit log of every release the daemon serves — and the
daemon's only durable record of ε spent.

One fsync'd JSONL record per **successful** release (admission
rejections and estimator failures release nothing, so they are not
audit events).  The append is the one durable step of a release: the
tenant's in-memory :class:`~repro.mechanisms.accountant.PrivacyAccountant`
is charged only after it returns, and opening the log replays every
private record into :attr:`AuditLog.startup_ledgers`, from which the
daemon rebuilds each tenant's accountant under the labels
:func:`release_label` gives, the same ones the live spend uses.  A
release is therefore counted after a restart exactly when its record is
in the log, and a failed append leaves no record behind (see
:class:`~repro.storage.JsonlLogWriter`).

Record shape (one JSON line, sorted keys)::

    {"kind": "release", "seq": 7, "ts": 1722945600.123,
     "tenant": "acme", "request_id": "q-42", "estimator": "cc",
     "epsilon": 0.5, "fingerprint": "ab12…"}

A non-private release (``--allow-non-private``) is recorded with
``epsilon`` 0.0 and charges nothing.

``seq`` is a strictly increasing release sequence number, continued
across restarts (the writer replays the log on open), so the log
doubles as the daemon's deterministic per-request entropy index:
requests without an explicit seed draw from
``SeedSequence(base_seed, spawn_key=(seq,))``.

Durability: :class:`~repro.storage.JsonlLogWriter` fsyncs every append,
so ``kill -9`` loses at most the in-flight record — and only as a torn
*final* line, which replay tolerates.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ...storage import JsonlLogWriter, read_jsonl_records

__all__ = [
    "AuditRecordError",
    "AuditSummary",
    "AuditLog",
    "release_label",
    "replay_audit",
]


class AuditRecordError(ValueError):
    """A decoded audit line is not a well-formed release record."""


def release_label(estimator: str, fingerprint: object, seq: int) -> str:
    """The ledger label a release's ε is charged under, e.g.
    ``cc@ab12cd34ef56#7``; live spends and the startup replay both use
    it, so a rebuilt ledger equals the live one."""
    return f"{estimator}@{str(fingerprint)[:12]}#{seq}"


@dataclass
class AuditSummary:
    """Replay of an audit log: per-tenant composition totals.

    ``epsilon_by_tenant`` totals are ``math.fsum`` over each tenant's
    amounts, so they match the accountant's compensated ledger sums to
    ~1 ulp.
    """

    records: int = 0
    last_seq: int = -1
    epsilon_by_tenant: dict[str, float] = field(default_factory=dict)
    releases_by_tenant: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON shape served by ``GET /v1/audit/summary``."""
        return {
            "records": self.records,
            "last_seq": self.last_seq,
            "tenants": {
                tenant: {
                    "epsilon": self.epsilon_by_tenant[tenant],
                    "releases": self.releases_by_tenant[tenant],
                }
                for tenant in sorted(self.epsilon_by_tenant)
            },
        }


def _validate_record(record: object) -> dict:
    if (
        not isinstance(record, dict)
        or record.get("kind") != "release"
        or not isinstance(record.get("tenant"), str)
        or not isinstance(record.get("seq"), int)
        or not isinstance(record.get("epsilon"), (int, float))
        or record["epsilon"] < 0
        or not isinstance(record.get("estimator"), str)
    ):
        raise AuditRecordError(f"malformed audit record: {record!r}")
    return record


def _read_audit(path: str | os.PathLike) -> Iterator[dict]:
    """The validated records of the log at ``path``, oldest first.

    A missing file is an empty history; a torn final line (crash
    mid-append) is tolerated by the storage layer; any other damage
    raises.
    """
    for record in read_jsonl_records(path):
        yield _validate_record(record)


def replay_audit(path: str | os.PathLike) -> AuditSummary:
    """Replay the log at ``path`` into per-tenant totals, summing each
    tenant's amounts once, after the pass."""
    amounts: dict[str, list[float]] = {}
    last_seq = -1
    for record in _read_audit(path):
        amounts.setdefault(record["tenant"], []).append(
            float(record["epsilon"])
        )
        last_seq = max(last_seq, record["seq"])
    return AuditSummary(
        records=sum(map(len, amounts.values())),
        last_seq=last_seq,
        epsilon_by_tenant={
            tenant: math.fsum(spent) for tenant, spent in amounts.items()
        },
        releases_by_tenant={
            tenant: len(spent) for tenant, spent in amounts.items()
        },
    )


class AuditLog:
    """The daemon's exclusive handle on its append-only release log.

    Opening replays the existing log once — yielding
    :attr:`startup_ledgers` and the next sequence number — then holds
    the file open in append mode for the process lifetime (one fsync
    per release, no per-record ``open``).

    ``startup_ledgers`` maps each tenant to the ``(label, ε)`` of its
    private releases, in log order (which is ``seq`` order): the spends
    :meth:`~repro.service.daemon.accounts.AccountStore.restore` charges
    to rebuild the tenant's accountant.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self.startup_ledgers: dict[str, list[tuple[str, float]]] = {}
        last_seq = -1
        for record in _read_audit(self.path):
            seq = record["seq"]
            last_seq = max(last_seq, seq)
            if record["epsilon"] > 0:
                label = release_label(
                    record["estimator"], record.get("fingerprint"), seq
                )
                self.startup_ledgers.setdefault(record["tenant"], []).append(
                    (label, float(record["epsilon"]))
                )
        self._next_seq = last_seq + 1
        self._writer = JsonlLogWriter(self.path)

    @property
    def next_seq(self) -> int:
        """Sequence number the next release will be recorded under."""
        return self._next_seq

    def append_release(
        self,
        *,
        tenant: str,
        request_id: object,
        estimator: str,
        epsilon: float,
        fingerprint: Optional[str],
        seq: int,
        timestamp: Optional[float] = None,
    ) -> dict:
        """Durably append one release record; returns it.

        If the append raises, the log is left as it was and the
        sequence number is not consumed.
        """
        if seq != self._next_seq:
            raise ValueError(
                f"audit seq {seq} out of order (expected {self._next_seq})"
            )
        record = {
            "kind": "release",
            "seq": seq,
            "ts": time.time() if timestamp is None else timestamp,
            "tenant": tenant,
            "request_id": request_id,
            "estimator": estimator,
            "epsilon": float(epsilon),
            "fingerprint": fingerprint,
        }
        self._writer.append(record)
        self._next_seq = seq + 1
        return record

    def allocate_seq(self) -> int:
        """The sequence number for a release about to be computed.

        Allocation does not advance the counter — only a successful
        :meth:`append_release` does — so a failed release leaves no gap
        in the log.
        """
        return self._next_seq

    def replay(self) -> AuditSummary:
        """Fresh replay of the log as it stands on disk now."""
        return replay_audit(self.path)

    def probe(self) -> Optional[str]:
        """Health check: ``None`` when the log can take appends, else a
        human-readable failure description (``/healthz`` surfaces it)."""
        if self._writer.closed:
            return "audit log writer is closed"
        directory = os.path.dirname(self.path) or "."
        if not os.access(directory, os.W_OK | os.X_OK):
            return f"audit directory {directory!r} is not writable"
        if os.path.exists(self.path) and not os.access(self.path, os.W_OK):
            return f"audit log {self.path!r} is not writable"
        return None

    def close(self) -> None:
        self._writer.close()
