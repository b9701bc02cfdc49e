"""Per-tenant privacy budgets.

The serving daemon's answer to the ``--total-epsilon`` serial-only
limitation: instead of one in-process accountant that dies with the
batch, every tenant owns a :class:`BudgetAccount` — a
:class:`~repro.mechanisms.accountant.PrivacyAccountant` plus identity
metadata.  The account file holds the **budget only**, written once at
provisioning through :func:`repro.storage.atomic_write_json` (a
``kill -9`` leaves no file or the whole file, never a torn one).  The ε
a tenant has spent lives in the daemon's audit log
(:mod:`repro.service.daemon.audit`): at startup
:meth:`AccountStore.restore` loads every account and charges it with
the tenant's audited releases, so ε spent **survives restarts
exactly** without any per-release account write.

Layout::

    <state-dir>/accounts/<tenant>.json
        {"tenant": ..., "total_epsilon": ..., "created_at": ...}

A legacy account file that still carries its ledger
(``{"tenant", "account": <PrivacyAccountant.to_dict()>, "created_at",
"updated_at"}``) is read for its budget only.  Its ledger is checked,
never charged: if it records more ε than the tenant's audit records,
:meth:`AccountStore.restore` refuses to start rather than under-count.

Tenant names are restricted to a filesystem-safe alphabet
(:data:`TENANT_NAME_PATTERN`) so a tenant id can never escape the
accounts directory or collide with another's file.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ...mechanisms.accountant import PrivacyAccountant
from ...storage import atomic_write_json, read_json_or_none

__all__ = [
    "TENANT_NAME_PATTERN",
    "InvalidTenantError",
    "AccountExistsError",
    "BudgetAccount",
    "AccountStore",
]

# Filesystem-safe tenant ids: must start with an alphanumeric, then
# alphanumerics plus ``_ . -``, at most 64 chars.  No path separators,
# no leading dot (hidden files / ``..`` traversal).
TENANT_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Relative tolerance when comparing a legacy account file's ledger
# against the tenant's audit total: both are sums of the same amounts
# (compensated on both sides), so any true excess is a whole ε step,
# orders of magnitude above this.
_LEGACY_RTOL = 1e-9


class InvalidTenantError(ValueError):
    """Tenant id fails :data:`TENANT_NAME_PATTERN`."""


class AccountExistsError(RuntimeError):
    """Explicit provision of a tenant that already has an account."""


@dataclass
class BudgetAccount:
    """One tenant's budget and its in-memory ε ledger."""

    tenant: str
    accountant: PrivacyAccountant
    created_at: float

    def to_record(self) -> dict:
        """The on-disk JSON shape: the budget, no ledger."""
        return {
            "tenant": self.tenant,
            "total_epsilon": self.accountant.total_epsilon,
            "created_at": self.created_at,
        }

    @classmethod
    def from_record(cls, record: dict) -> "BudgetAccount":
        """Rebuild from :meth:`to_record` output, or from a legacy
        record's budget, with nothing spent; raises ``ValueError`` on a
        malformed record."""
        if not isinstance(record, dict) or not isinstance(
            record.get("tenant"), str
        ):
            raise ValueError(f"malformed account record: {record!r}")
        if "account" in record:  # legacy file: budget inside its ledger
            total = PrivacyAccountant.from_dict(record["account"]).total_epsilon
        else:
            try:
                total = float(record["total_epsilon"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed account record: {record!r}"
                ) from exc
        return cls(
            tenant=record["tenant"],
            accountant=PrivacyAccountant(total),
            created_at=float(record.get("created_at", 0.0)),
        )

    def summary(self) -> dict:
        """The JSON shape served by ``GET /v1/tenants/<tenant>``."""
        acct = self.accountant
        return {
            "tenant": self.tenant,
            "total_epsilon": acct.total_epsilon,
            "spent": acct.spent(),
            "remaining": acct.remaining(),
            "releases": len(acct.ledger()),
            "created_at": self.created_at,
        }


def validate_tenant(tenant: object) -> str:
    """Return ``tenant`` if it is a safe tenant id, else raise
    :class:`InvalidTenantError`."""
    if not isinstance(tenant, str) or not TENANT_NAME_PATTERN.match(tenant):
        raise InvalidTenantError(
            "tenant id must match "
            f"{TENANT_NAME_PATTERN.pattern!r}, got {tenant!r}"
        )
    return tenant


class AccountStore:
    """Directory of per-tenant budget files plus the in-memory accounts.

    The daemon is the single writer (accounts are mutated only under
    its serving lock).  A file is written once, when its tenant is
    provisioned; spends only touch the in-memory accountant, whose
    durable record is the audit log.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._loaded: dict[str, BudgetAccount] = {}

    def path_for(self, tenant: str) -> str:
        return os.path.join(self.root, f"{validate_tenant(tenant)}.json")

    def probe(self) -> Optional[str]:
        """Health check: ``None`` when account writes can land, else a
        human-readable failure description (``/healthz`` surfaces it)."""
        if not os.path.isdir(self.root):
            return f"account directory {self.root!r} is missing"
        if not os.access(self.root, os.W_OK | os.X_OK):
            return f"account directory {self.root!r} is not writable"
        return None

    def tenants(self) -> list[str]:
        """Every tenant with an account on disk, sorted."""
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def get(self, tenant: str) -> Optional[BudgetAccount]:
        """The tenant's account, or ``None`` if never provisioned."""
        tenant = validate_tenant(tenant)
        account = self._loaded.get(tenant)
        if account is not None:
            return account
        record = read_json_or_none(self.path_for(tenant))
        if record is None:
            return None
        account = BudgetAccount.from_record(record)
        self._loaded[tenant] = account
        return account

    def restore(
        self, ledgers: Mapping[str, Sequence[tuple[str, float]]]
    ) -> None:
        """Load every account and charge it with its audited spends.

        Called once, on a fresh store, at daemon startup.  ``ledgers``
        maps a tenant to the ``(label, ε)`` of its audited private
        releases in ``seq`` order
        (:attr:`~repro.service.daemon.audit.AuditLog.startup_ledgers`).
        Each is spent with ``force=True`` — the replay reproduces
        history, it does not re-adjudicate it — so ``spent()`` and
        ``ledger()`` equal those of the accountant that served them.

        Raises ``ValueError`` naming the tenant when the audit log
        charges a tenant that has no account, or when a legacy account
        file's ledger records more ε than the tenant's audit records:
        starting would under-count ε.
        """
        for tenant in self.tenants():
            record = read_json_or_none(self.path_for(tenant))
            if record is None:
                continue
            account = BudgetAccount.from_record(record)
            acct = account.accountant
            for label, amount in ledgers.get(tenant, ()):
                acct.spend(amount, label, force=True)
            if "account" in record:
                recorded = PrivacyAccountant.from_dict(
                    record["account"]
                ).spent()
                if recorded - acct.spent() > _LEGACY_RTOL * max(
                    acct.total_epsilon, 1.0
                ):
                    raise ValueError(
                        f"tenant {tenant!r}: legacy account file records "
                        f"{recorded} ε spent but the audit log only "
                        f"{acct.spent()}; refusing to under-count ε"
                    )
            self._loaded[tenant] = account
        for tenant in ledgers:
            if tenant not in self._loaded:
                raise ValueError(
                    f"tenant {tenant!r} has audited releases but no "
                    "account file; refusing to under-count ε"
                )

    def create(self, tenant: str, total_epsilon: float) -> BudgetAccount:
        """Provision a fresh account; raises
        :class:`AccountExistsError` if the tenant already has one."""
        tenant = validate_tenant(tenant)
        if self.get(tenant) is not None:
            raise AccountExistsError(
                f"tenant {tenant!r} already has an account"
            )
        account = BudgetAccount(
            tenant=tenant,
            accountant=PrivacyAccountant(total_epsilon),
            created_at=time.time(),
        )
        self.save(account)
        return account

    def get_or_create(
        self, tenant: str, default_total_epsilon: Optional[float]
    ) -> Optional[BudgetAccount]:
        """The tenant's account, auto-provisioned at
        ``default_total_epsilon`` on first sight when the daemon has a
        default budget; ``None`` when there is no account and no
        default (the caller rejects with ``unknown_tenant``)."""
        account = self.get(tenant)
        if account is not None:
            return account
        if default_total_epsilon is None:
            return None
        return self.create(tenant, default_total_epsilon)

    def save(self, account: BudgetAccount) -> None:
        """Atomically persist ``account``'s budget (crash leaves old or
        new state, never a torn file)."""
        atomic_write_json(self.path_for(account.tenant), account.to_record())
        self._loaded[account.tenant] = account
