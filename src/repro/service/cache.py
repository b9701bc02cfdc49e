"""Persistent, content-addressed cache of Lipschitz-extension tables.

Algorithm-1 releases pay almost all their cost building the whole-grid
extension table ``{f_Δ(G) : Δ in grid}`` (component split + LP work).
:class:`~repro.service.session.ReleaseSession` amortizes that within
one process; this module makes the warm state **durable**, so a cold
process (a restarted ``repro serve-batch``, a sharded worker, a rerun
sweep) warm-starts from disk and the k-th query on a previously-seen
graph is GEM selection plus one Laplace draw even across restarts.

Keying
------
One cache entry is the value table of one extension family for one
graph, evaluated on one candidate grid.  Its content address is the
SHA-256 of exactly those coordinates:

* ``CompactGraph.fingerprint()`` — the graph content hash;
* the candidate Δ grid, canonically serialized;
* the library version ``repro.__version__``, bumped by any change that
  can move a bit of an ``f_Δ`` value, so tables written by older code
  are never found.

The LP configuration is fixed in :mod:`repro.lp.forest_core`, so it is
not a coordinate.  Graphs with equal fingerprints but different grids
therefore never share a disk entry, and any key-coordinate change is an
automatic, implicit invalidation.

Storage discipline
------------------
Entries live at ``root/<key[:2]>/<key>.json`` and are written with the
shared :mod:`repro.storage` atomic discipline (tmp + fsync +
``os.replace``), exactly like the sweep
:class:`~repro.experiments.store.ResultStore`.  Reads validate the
record against the requested coordinates; a torn, truncated, or
tampered file is **deleted and treated as a miss** (the table is simply
rebuilt), never a crash.  A reader deletes only the file it read: a
record another process publishes concurrently is never removed.

Privacy
-------
Cached tables are *pre-noise* state: ``f_Δ(G)`` is a deterministic,
noiseless function of the private graph.  The cache directory must be
permissioned like the raw graph data itself — it is internal serving
state, never a releasable artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from .. import __version__, telemetry
from ..storage import (
    atomic_write_json,
    clean_stale_tmp,
    iter_keys,
    open_json_record,
    sharded_path,
)
from ..telemetry import count_field

__all__ = [
    "ExtensionCache",
    "CacheStats",
    "extension_key",
    "component_extension_key",
]

_RECORD_FIELDS = ("fingerprint", "grid", "values", "true_fsf", "version")
_COMPONENT_FIELDS = ("fingerprint", "grid", "table", "version")


def _canonical_grid(grid: Sequence[float]) -> list[float]:
    """The candidate grid as plain floats (exact for the 2^j grids)."""
    return [float(delta) for delta in grid]


def extension_key(
    fingerprint: str,
    grid: Sequence[float],
    version: str = __version__,
) -> str:
    """Content address of one extension table (hex SHA-256)."""
    payload = json.dumps(
        {
            "fingerprint": fingerprint,
            "grid": _canonical_grid(grid),
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def component_extension_key(
    fingerprint: str,
    grid: Sequence[float],
    version: str = __version__,
) -> str:
    """Content address of one *component* value table (hex SHA-256).

    ``fingerprint`` is a component content hash
    (:func:`repro.graphs.compact.component_fingerprint`), not a graph
    fingerprint; the explicit ``kind`` marker keeps the two key spaces
    disjoint even if the hex strings ever collided.
    """
    payload = json.dumps(
        {
            "kind": "component",
            "fingerprint": fingerprint,
            "grid": _canonical_grid(grid),
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Read-only view of one cache's counts: each field reads a series
    of its child registry ``metrics``, as an int."""

    metrics: telemetry.MetricsRegistry

    hits = count_field("repro_extension_cache_lookups_total", result="hit")
    misses = count_field("repro_extension_cache_lookups_total", result="miss")
    stores = count_field("repro_extension_cache_stores_total")
    invalidations = count_field("repro_extension_cache_invalidations_total")
    component_hits = count_field("repro_component_cache_lookups_total", result="hit")
    component_misses = count_field("repro_component_cache_lookups_total", result="miss")
    component_stores = count_field("repro_component_cache_stores_total")


class ExtensionCache:
    """A directory of content-addressed extension value tables.

    Parameters
    ----------
    root:
        Cache directory (created if missing).  Treat its contents as
        private input data — see the module privacy note.
    version:
        Library version folded into every key; override only in tests.

    Examples
    --------
    >>> import tempfile
    >>> cache = ExtensionCache(tempfile.mkdtemp())
    >>> key = cache.store("fp", [1, 2], [0.0, 1.0], 1)
    >>> cache.load("fp", [1, 2])["values"]
    [0.0, 1.0]
    >>> cache.load("fp", [1, 2, 4]) is None
    True
    """

    def __init__(
        self, root: str | os.PathLike, *, version: str = __version__
    ) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.version = version
        self.metrics = telemetry.MetricsRegistry(parent=telemetry.default_registry())
        self._lookups = self.metrics.counter(
            "repro_extension_cache_lookups_total",
            "Persistent extension-cache lookups, by result",
            labels=("result",),
        )
        self._stores = self.metrics.counter(
            "repro_extension_cache_stores_total",
            "Warm tables written to the persistent extension cache",
        )
        self._invalidations = self.metrics.counter(
            "repro_extension_cache_invalidations_total",
            "Persistent extension-cache entries dropped as invalid",
        )
        self._component_lookups = self.metrics.counter(
            "repro_component_cache_lookups_total",
            "Persistent per-component cache lookups, by result",
            labels=("result",),
        )
        self._component_stores = self.metrics.counter(
            "repro_component_cache_stores_total",
            "Component value tables written to the persistent cache",
        )
        self.stats = CacheStats(self.metrics)

    # ------------------------------------------------------------------
    def key(
        self,
        fingerprint: str,
        grid: Sequence[float],
    ) -> str:
        """The content address of this (graph, grid)."""
        return extension_key(fingerprint, grid, self.version)

    def path_for(self, key: str) -> str:
        """Where ``key``'s record lives on disk."""
        return sharded_path(self.root, key)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def __len__(self) -> int:
        return sum(1 for _ in iter_keys(self.root))

    # ------------------------------------------------------------------
    def load(
        self,
        fingerprint: str,
        grid: Sequence[float],
    ) -> Optional[dict]:
        """Return the stored table for these coordinates, or ``None``.

        The record is validated against the requested coordinates
        before being trusted: a corrupted, truncated, or mismatched
        file is deleted (so the slot rebuilds cleanly) and reported as
        a miss.
        """
        path = self.path_for(self.key(fingerprint, grid))
        record = self._read_valid(
            path,
            lambda record: self._valid(record, fingerprint, grid),
        )
        if record is None:
            self._lookups.inc(result="miss")
            return None
        self._lookups.inc(result="hit")
        return record

    def store(
        self,
        fingerprint: str,
        grid: Sequence[float],
        values: Sequence[float],
        true_fsf: int,
    ) -> str:
        """Atomically persist one value table; returns its key."""
        grid = _canonical_grid(grid)
        values = [float(v) for v in values]
        if len(values) != len(grid):
            raise ValueError(
                f"got {len(values)} values for a {len(grid)}-point grid"
            )
        key = self.key(fingerprint, grid)
        atomic_write_json(
            self.path_for(key),
            {
                "fingerprint": fingerprint,
                "grid": grid,
                "values": values,
                "true_fsf": int(true_fsf),
                "version": self.version,
            },
        )
        self._stores.inc()
        return key

    # ------------------------------------------------------------------
    # Per-component tables (delta-update path)
    # ------------------------------------------------------------------
    def component_key(
        self,
        fingerprint: str,
        grid: Sequence[float],
    ) -> str:
        """Content address of one component table under this cache."""
        return component_extension_key(
            fingerprint, grid, self.version
        )

    def component_path_for(self, key: str) -> str:
        """Where a component record lives (``components/`` sub-root)."""
        return sharded_path(os.path.join(self.root, "components"), key)

    def load_component(
        self,
        fingerprint: str,
        grid: Sequence[float],
    ) -> Optional[dict[float, float]]:
        """Return the stored ``Δ -> value`` table for one component.

        Same trust discipline as :meth:`load`: records are validated
        against the requested coordinates, and anything torn or
        mismatched is deleted and treated as a miss.
        """
        path = self.component_path_for(
            self.component_key(fingerprint, grid)
        )
        record = self._read_valid(
            path,
            lambda record: self._valid_component(
                record, fingerprint, grid
            ),
        )
        if record is None:
            self._component_lookups.inc(result="miss")
            return None
        self._component_lookups.inc(result="hit")
        return {float(d): float(v) for d, v in record["table"]}

    def store_component(
        self,
        fingerprint: str,
        grid: Sequence[float],
        table: Mapping[float, float],
    ) -> str:
        """Atomically persist one component value table; returns its key.

        ``table`` maps Δ to ``f_Δ(component)``; it is stored as sorted
        ``[delta, value]`` pairs (JSON object keys would stringify the
        floats).  Floats survive the JSON round trip exactly, so a
        preload from this record reproduces the donor's values bit for
        bit.
        """
        key = self.component_key(fingerprint, grid)
        pairs = sorted(
            (float(d), float(v)) for d, v in table.items()
        )
        atomic_write_json(
            self.component_path_for(key),
            {
                "fingerprint": fingerprint,
                "grid": _canonical_grid(grid),
                "table": [[d, v] for d, v in pairs],
                "version": self.version,
            },
        )
        self._component_stores.inc()
        return key

    def _valid_component(
        self,
        record: Any,
        fingerprint: str,
        grid: Sequence[float],
    ) -> bool:
        """Whether a decoded record really is the requested component."""
        if not isinstance(record, dict):
            return False
        if any(name not in record for name in _COMPONENT_FIELDS):
            return False
        table = record["table"]
        return (
            record["fingerprint"] == fingerprint
            and record["grid"] == _canonical_grid(grid)
            and record["version"] == self.version
            and isinstance(table, list)
            and all(
                isinstance(row, list)
                and len(row) == 2
                and isinstance(row[0], (int, float))
                and row[0] > 0
                and isinstance(row[1], (int, float))
                and math.isfinite(row[1])
                for row in table
            )
        )

    def invalidate(
        self,
        fingerprint: str,
        grid: Sequence[float],
    ) -> bool:
        """Drop the entry at these coordinates (e.g. failed an external
        integrity check); ``True`` if something was removed."""
        path = self.path_for(self.key(fingerprint, grid))
        return self._invalidate_path(path)

    def clean_tmp(self, max_age_seconds: float = 3600.0) -> int:
        """Remove stale ``*.tmp`` files (same rules as the result store)."""
        return clean_stale_tmp(self.root, max_age_seconds)

    # ------------------------------------------------------------------
    def _read_valid(
        self, path: str, valid: Callable[[Any], bool]
    ) -> Optional[dict]:
        """The record at ``path`` if it decodes and passes ``valid``.

        An absent file is a plain miss.  A torn or invalid record is
        deleted, but only while ``path`` still names the file that was
        read: a writer that published a valid record in between keeps
        it.
        """
        with open_json_record(path) as found:
            if found is None:
                return None
            if found.record is not None and valid(found.record):
                return found.record
            if found.discard():
                self._invalidations.inc()
            return None

    def _invalidate_path(self, path: str) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False
        self._invalidations.inc()
        return True

    def _valid(
        self,
        record: Any,
        fingerprint: str,
        grid: Sequence[float],
    ) -> bool:
        """Whether a decoded record really is the requested table."""
        if not isinstance(record, dict):
            return False
        if any(name not in record for name in _RECORD_FIELDS):
            return False
        values = record["values"]
        return (
            record["fingerprint"] == fingerprint
            and record["grid"] == _canonical_grid(grid)
            and record["version"] == self.version
            and isinstance(values, list)
            and len(values) == len(grid)
            and all(
                isinstance(v, (int, float)) and math.isfinite(v)
                for v in values
            )
            and isinstance(record["true_fsf"], int)
        )

    def __repr__(self) -> str:
        return f"ExtensionCache({self.root!r}, {len(self)} tables)"
