"""Machine-readable experiment reports.

Benchmarks print ASCII tables; downstream tooling (plotting, regression
tracking) wants structured data.  :class:`ExperimentReport` accumulates
named records with parameters and metrics and serializes to JSON with a
small provenance header (library version, seed, timestamp supplied by
the caller — the report itself never reads the clock, keeping runs
reproducible byte-for-byte).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .. import __version__
from ..jsonutil import jsonable as _jsonable

__all__ = ["ExperimentReport"]


@dataclass
class ExperimentReport:
    """A named collection of experiment records.

    Parameters
    ----------
    experiment_id:
        Experiment identifier (e.g. ``"E2"``), as used by the benchmark
        tables under ``benchmarks/`` (README, "Tests and benchmarks").
    description:
        One-line description of what the experiment reproduces.
    seed:
        The RNG seed the run used (provenance).

    Examples
    --------
    >>> report = ExperimentReport("E0", "demo", seed=1)
    >>> report.add(params={"n": 10}, metrics={"error": 0.5})
    >>> report.to_dict()["records"][0]["metrics"]["error"]
    0.5
    """

    experiment_id: str
    description: str
    seed: int | None = None
    _records: list[dict] = field(default_factory=list, repr=False)

    def add(self, params: dict, metrics: dict) -> None:
        """Append one record: experiment parameters plus measured metrics."""
        if not isinstance(params, dict) or not isinstance(metrics, dict):
            raise TypeError("params and metrics must be dictionaries")
        self._records.append(
            {"params": _jsonable(params), "metrics": _jsonable(metrics)}
        )

    def add_release(self, params: dict, release) -> None:
        """Append one :class:`repro.estimators.Release` as a record.

        The release's uniform fields (value, ε, per-step ledger, Δ̂,
        timing) become the record's metrics, so budget composition stays
        auditable in the written report.
        """
        self.add(params=params, metrics=release.to_dict())

    def __len__(self) -> int:
        return len(self._records)

    def to_dict(self) -> dict:
        """The full report as a plain dictionary."""
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "library_version": __version__,
            "seed": self.seed,
            "records": list(self._records),
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str | os.PathLike) -> None:
        """Write the JSON report to ``path`` (parent dirs created)."""
        directory = os.path.dirname(os.fspath(path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @staticmethod
    def read(path: str | os.PathLike) -> dict:
        """Load a previously written report as a dictionary."""
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
