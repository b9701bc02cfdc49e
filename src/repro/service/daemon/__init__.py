"""Durable multi-tenant release daemon (``repro serve``).

Promotes the privacy accountant from in-process batch state to a
first-class durable object behind a long-lived asyncio HTTP server:

* :mod:`.accounts` — per-tenant ε budgets, one file each written once
  at provisioning with the :mod:`repro.storage` atomic-write
  discipline, and the in-memory accountants charged per release;
* :mod:`.audit` — fsync'd append-only JSONL log of every release: the
  one durable write of a release and the only durable ledger of ε
  spent.  Startup replays it into every tenant's accountant, so spent
  ε survives ``kill -9`` exactly;
* :mod:`.http` — minimal stdlib HTTP/1.1 framing;
* :mod:`.app` — :class:`ReleaseDaemon`: routing, admission control
  (structured machine-readable rejections), and the serving hot path
  reused from :class:`~repro.service.session.ReleaseSession`.
"""

from .accounts import (
    AccountExistsError,
    AccountStore,
    BudgetAccount,
    InvalidTenantError,
    TENANT_NAME_PATTERN,
)
from .app import ERROR_CODES, BackgroundDaemon, ReleaseDaemon
from .audit import AuditLog, AuditSummary, replay_audit

__all__ = [
    "AccountExistsError",
    "AccountStore",
    "AuditLog",
    "AuditSummary",
    "BackgroundDaemon",
    "BudgetAccount",
    "ERROR_CODES",
    "InvalidTenantError",
    "ReleaseDaemon",
    "TENANT_NAME_PATTERN",
    "replay_audit",
]
