"""Privacy budget accounting (basic composition, Lemma 2.4).

Pure-ε differential privacy composes additively: running ``t`` mechanisms
with budgets ``ε_1, …, ε_t`` and post-processing their outputs is
``(Σ ε_i)``-private.  :class:`PrivacyAccountant` tracks spending against a
total budget so composite algorithms (like Algorithm 1) can assert they
stay within their advertised ε.

Numerical discipline
--------------------
The running total is maintained with **Kahan compensated summation**,
not naive float addition: a long request stream (a serving daemon can
easily record 10^6+ spends against one tenant account) accumulates
rounding error linearly under naive addition, which can either drift
*past* the advertised budget (a real privacy accounting error) or
spuriously reject the last nominally-in-budget request.  With the
compensation term the recorded total stays within one ulp of the exact
sum of the ledger regardless of stream length, so the 1e-9 relative
admission slack only ever has to absorb the *caller's* rounding (e.g. a
budget split into fractions), never the accountant's own drift.

Durability
----------
The full accounting state round-trips through
:meth:`PrivacyAccountant.to_dict` / :meth:`PrivacyAccountant.from_dict`
(and the JSON twins): the ledger is replayed through the same
compensated summation on load, so the restored total is bit-for-bit
the saved one.  The serving daemon persists no accountant at all: its
audit log records every release, and at startup each tenant's
accountant is rebuilt by spending the audited amounts, in order, with
``spend(..., force=True)`` — the same accumulation the live spends
made, so the result is bit-for-bit identical too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["BudgetExceededError", "PrivacyAccountant", "split_budget"]


class BudgetExceededError(RuntimeError):
    """Raised when a spend would push the accountant past its budget."""


@dataclass
class PrivacyAccountant:
    """Tracks ε spending under basic (additive) composition.

    Examples
    --------
    >>> acct = PrivacyAccountant(total_epsilon=1.0)
    >>> acct.spend(0.5, "gem selection")
    >>> acct.remaining()
    0.5
    """

    total_epsilon: float
    _ledger: list[tuple[str, float]] = field(default_factory=list)
    # Kahan running state: _spent_sum is the compensated total of every
    # ledger amount, _compensation carries the low-order bits lost by
    # the last addition.  Derived from _ledger (replayed in
    # __post_init__), never serialized independently.
    _spent_sum: float = field(default=0.0, repr=False, compare=False)
    _compensation: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.total_epsilon <= 0:
            raise ValueError(f"total_epsilon must be > 0, got {self.total_epsilon}")
        # A pre-filled ledger (from_dict, or direct construction) is
        # replayed through the same compensated accumulation a live
        # stream of spend() calls would produce.
        self._spent_sum = 0.0
        self._compensation = 0.0
        for _, amount in self._ledger:
            self._accumulate(float(amount))

    def _accumulate(self, amount: float) -> None:
        """Kahan-compensated ``_spent_sum += amount``."""
        y = amount - self._compensation
        t = self._spent_sum + y
        self._compensation = (t - self._spent_sum) - y
        self._spent_sum = t

    def spend(self, epsilon: float, label: str = "", *, force: bool = False) -> None:
        """Record a spend of ``epsilon``; raise if it exceeds the budget.

        Admission is exactly :meth:`can_spend` (single source of truth),
        whose tiny relative slack (1e-9) absorbs floating-point drift
        when a budget is split into fractions that nominally sum to the
        total.

        ``force=True`` records the spend without the admission check.
        It exists for *replaying* a durable ledger — the serving daemon
        rebuilds each tenant's accountant from its audit log at startup,
        which must reproduce history, not re-adjudicate it — never for
        serving new requests.
        """
        if not force and not self.can_spend(epsilon):
            raise BudgetExceededError(
                f"spend of {epsilon} exceeds remaining budget "
                f"{self.remaining()} (label={label!r})"
            )
        if epsilon <= 0:
            raise ValueError(f"spend must be > 0, got {epsilon}")
        self._ledger.append((label, float(epsilon)))
        self._accumulate(float(epsilon))

    def can_spend(self, epsilon: float) -> bool:
        """Whether a spend of ``epsilon`` would fit the remaining budget
        (same floating-point slack as :meth:`spend`), without recording
        anything.  Lets callers refuse work *before* running a mechanism
        whose output they could not release."""
        if epsilon <= 0:
            raise ValueError(f"spend must be > 0, got {epsilon}")
        slack = 1e-9 * self.total_epsilon
        return self.spent() + epsilon <= self.total_epsilon + slack

    def spent(self) -> float:
        """Total ε spent so far (compensated; exact to ~1 ulp of the
        true ledger sum for streams of any length)."""
        return self._spent_sum

    def remaining(self) -> float:
        """Budget left (never negative)."""
        return max(self.total_epsilon - self.spent(), 0.0)

    def ledger(self) -> list[tuple[str, float]]:
        """Copy of the (label, ε) spend history."""
        return list(self._ledger)

    def to_dict(self) -> dict:
        """The full accounting state as a JSON-safe dictionary."""
        return {
            "total_epsilon": self.total_epsilon,
            "spent": self.spent(),
            "remaining": self.remaining(),
            "ledger": [
                {"label": label, "epsilon": amount}
                for label, amount in self._ledger
            ],
        }

    @classmethod
    def from_dict(cls, state: dict) -> "PrivacyAccountant":
        """Rebuild an accountant from :meth:`to_dict` output.

        The ledger is the source of truth: the spent total is replayed
        through the same compensated summation, so
        ``from_dict(acct.to_dict())`` reproduces ``acct.spent()`` bit
        for bit.  Raises :class:`ValueError` on a malformed record.
        """
        if not isinstance(state, dict):
            raise ValueError("accountant state must be a JSON object")
        try:
            total = float(state["total_epsilon"])
            entries = state["ledger"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed accountant state: {exc!r}") from exc
        if not isinstance(entries, list):
            raise ValueError("accountant ledger must be a list")
        ledger: list[tuple[str, float]] = []
        for entry in entries:
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("label"), str)
                or not isinstance(entry.get("epsilon"), (int, float))
                or entry["epsilon"] <= 0
            ):
                raise ValueError(f"malformed ledger entry: {entry!r}")
            ledger.append((entry["label"], float(entry["epsilon"])))
        return cls(total_epsilon=total, _ledger=ledger)

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the accounting state (budget + per-step ledger)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "PrivacyAccountant":
        """Rebuild an accountant from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))


def split_budget(total_epsilon: float, fractions: dict[str, float]) -> dict[str, float]:
    """Split ``total_epsilon`` by the given positive fractions (which must
    sum to 1 within 1e-9).  Returns label → ε."""
    if total_epsilon <= 0:
        raise ValueError(f"total_epsilon must be > 0, got {total_epsilon}")
    if not fractions:
        raise ValueError("fractions must be non-empty")
    if any(f <= 0 for f in fractions.values()):
        raise ValueError("all fractions must be positive")
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions.values())}")
    return {label: total_epsilon * f for label, f in fractions.items()}
