"""Amortized in-process serving of private releases on hot graphs.

A :class:`ReleaseSession` answers many ``(estimator, epsilon)`` queries
against the same graph while paying the expensive kernel work — the
component decomposition and the whole-grid Lipschitz-extension table
that :meth:`values_for_grid` builds — **once per graph**:

* graphs are identified by :meth:`CompactGraph.fingerprint` (a content
  hash), so content-identical graphs materialized independently share
  one cache entry;
* per graph, the session keeps the warm extension family in an LRU of
  bounded size; the k-th query on a hot graph costs only GEM selection
  plus Laplace noise, not a fresh LP pass;
* all queries optionally draw from one shared
  :class:`~repro.mechanisms.accountant.PrivacyAccountant`, so the
  session enforces a total budget across everything it ever released
  about its graphs (basic composition).

Determinism: extension values are a pure function of the graph, so a
release through a warm session is bit-identical to a cold
``create(name, ...).release(graph, rng)`` for the same RNG stream —
pinned by ``tests/test_service.py`` and gated at n = 1e5 by
``benchmarks/bench_release_session.py``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .. import __version__, telemetry
from ..core.extension import extension_for
from ..estimators.base import Release
from ..estimators.registry import canonical_name, create, get_spec
from ..graphs.compact import CompactGraph, as_compact
from ..mechanisms.accountant import BudgetExceededError, PrivacyAccountant
from ..mechanisms.gem import power_of_two_grid
from ..telemetry import count_field
from .cache import ExtensionCache, component_extension_key, extension_key

__all__ = ["ReleaseSession", "SessionStats"]

# Entries of the in-memory component-table memo (LRU eviction beyond).
_COMPONENT_MEMO_SIZE = 4096


@dataclass(frozen=True)
class SessionStats:
    """Read-only view of one session's counts: each field reads a series
    of its child registry ``metrics`` (an int; ``epsilon_spent`` a float).

    ``epsilon_spent`` accumulates the ε of every *successful* private
    query, whether or not the session carries a shared accountant —
    eviction and re-admission of a graph never reset it (the counters
    are session-scoped, not entry-scoped).  ``disk_warm_starts`` counts
    extensions preloaded from the persistent on-disk cache instead of
    being computed.  ``component_hits`` and ``component_misses`` count
    the distinct candidate fingerprints (components that could reach
    Algorithm-3 repair or the LP) looked up on a whole-graph miss, and
    ``component_promotions`` the component tables promoted.
    """

    metrics: telemetry.MetricsRegistry

    queries = count_field("repro_session_queries_total")
    graph_hits = count_field("repro_session_graph_lookups_total", result="hit")
    graph_misses = count_field("repro_session_graph_lookups_total", result="miss")
    evictions = count_field("repro_session_evictions_total")
    disk_warm_starts = count_field("repro_session_disk_warm_starts_total")
    component_hits = count_field("repro_session_component_lookups_total", result="hit")
    component_misses = count_field("repro_session_component_lookups_total", result="miss")
    component_promotions = count_field("repro_session_component_promotions_total")

    @property
    def epsilon_spent(self) -> float:
        return self.metrics.value("repro_session_epsilon_spent_total")

    def hit_rate(self) -> float:
        """Fraction of graph lookups served from the cache."""
        lookups = self.graph_hits + self.graph_misses
        return self.graph_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-safe counters (used by the sharded serving workers)."""
        names = ("queries", "graph_hits", "graph_misses", "evictions",
                 "epsilon_spent", "disk_warm_starts", "component_hits",
                 "component_misses", "component_promotions")
        return {name: getattr(self, name) for name in names}


@dataclass
class _GraphEntry:
    """One cached graph plus its lazily-built warm extension family."""

    graph: CompactGraph
    extension: Any = field(default=None, repr=False)


class _Lineage(NamedTuple):
    """Graph ``child`` is graph ``parent`` after one edit batch that
    touched the component ids ``touched_old`` / ``touched_new``
    (fingerprints and ids only: a lineage keeps no graph alive)."""

    parent: str
    child: str
    touched_old: frozenset[int]
    touched_new: frozenset[int]


class ReleaseSession:
    """Batched serving layer over the estimator registry.

    Parameters
    ----------
    max_graphs:
        LRU capacity: how many distinct graphs keep their warm extension
        tables resident at once.
    total_epsilon:
        Optional session-wide privacy budget.  When set, every private
        query spends its ε against one shared accountant and the session
        raises :class:`~repro.mechanisms.accountant.BudgetExceededError`
        once the budget is exhausted — the serving-layer analogue of
        basic composition over everything released about the cached
        graphs.  A budgeted session also refuses non-private estimators
        (they would sidestep the budget entirely) unless constructed
        with ``allow_non_private=True``.
    allow_non_private:
        Permit zero-budget (exact) estimators on a budgeted session.
        Irrelevant when ``total_epsilon`` is ``None``.
    cache_dir:
        Optional directory of a persistent extension cache
        (:class:`~repro.service.cache.ExtensionCache`).  When
        set, an extension miss in the in-memory LRU consults the disk
        cache before computing, LRU evictions spill their warm tables
        to disk first, and completed grids are persisted — so a cold
        process warm-starts from previous runs.  Extension values are
        deterministic, so releases are bit-identical with or without
        the cache.  The cache holds pre-noise state and must be
        permissioned like the raw graphs (see the module docstring of
        :mod:`repro.service.cache`).
    component_promotion:
        The delta-update path (:meth:`CompactGraph.apply_edits`).  When
        enabled (default), the value tables of components valued by
        Algorithm-3 repair or the LP are promoted to a bounded in-memory
        memo keyed by component content fingerprint — and to the
        persistent cache when one is attached.  A whole-graph extension
        miss then fingerprints only the components that could reach
        repair or the LP on the query's grid (the non-tree components
        with max degree above the grid's smallest Δ) and warms each one
        whose table is already known; every other component is valued
        by the exactness mask or the batched tree DP, as in a cold
        release.  After an edit batch only the touched
        components pay Algorithm-3/LP work again; released values stay
        bit-identical to a cold full rebuild.  When the edit-stream
        server has recorded the batch (:meth:`record_edit`) and the
        parent version is still resident with the query's whole grid
        evaluated, the new version's first miss goes further: its
        extension is derived from the parent's
        (:meth:`~repro.core.extension.CompactSpanningForestExtension.derive`),
        splicing the component tables instead of re-running the
        component split, so the miss costs about a hit plus the touched
        components.  The ``component_hits``,
        ``component_misses`` and ``component_promotions`` counters count
        these candidate components only (a table carried over from the
        parent counts as a hit).  Set
        ``component_promotion=False`` to force full rebuilds; such a
        session never derives.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphs.generators import planted_components_compact
    >>> from repro.service import ReleaseSession
    >>> graph = planted_components_compact(
    ...     [15] * 4, 0.4, np.random.default_rng(0))
    >>> session = ReleaseSession()
    >>> first = session.query("cc", epsilon=1.0, graph=graph, seed=1)
    >>> again = session.query("cc", epsilon=0.5, graph=graph, seed=2)
    >>> session.stats.graph_hits
    1
    """

    def __init__(
        self,
        *,
        max_graphs: int = 8,
        total_epsilon: Optional[float] = None,
        allow_non_private: bool = False,
        cache_dir: Optional[str | os.PathLike] = None,
        component_promotion: bool = True,
    ) -> None:
        if max_graphs < 1:
            raise ValueError(f"max_graphs must be >= 1, got {max_graphs}")
        self._max_graphs = max_graphs
        self._entries: OrderedDict[str, _GraphEntry] = OrderedDict()
        self.accountant = (
            PrivacyAccountant(total_epsilon)
            if total_epsilon is not None
            else None
        )
        self._allow_non_private = allow_non_private
        self.cache = (
            ExtensionCache(cache_dir) if cache_dir is not None else None
        )
        # Disk keys already known to be stored (or just loaded) this
        # process: persisting a warm table is then one set lookup per
        # query, not one disk write per query.
        self._persisted: set[str] = set()
        # Component-level promotion (the delta-update path): finished
        # per-component value tables are exported to a bounded
        # fingerprint-keyed memo — and to the persistent cache when one
        # is attached — so after CompactGraph.apply_edits only the
        # touched components recompute.
        self._component_promotion = component_promotion
        self._component_memo: OrderedDict[str, dict[float, float]] = (
            OrderedDict()
        )
        # Component keys already in the memo/disk layer (skip re-store;
        # a memo-only key leaves when the memo evicts it), and per
        # resident graph the grid keys whose components were already
        # exported (skip re-export on every hot query; dropped with the
        # graph on LRU eviction).
        self._promoted_components: set[str] = set()
        self._promoted_graphs: dict[str, set[str]] = {}
        # The latest edit batch the edit-stream server recorded.
        self._lineage: Optional[_Lineage] = None
        self.metrics = telemetry.MetricsRegistry(parent=telemetry.default_registry())
        self._queries = self.metrics.counter(
            "repro_session_queries_total", "Release queries answered by sessions"
        )
        self._graph_lookups = self.metrics.counter(
            "repro_session_graph_lookups_total",
            "Session graph-cache lookups, by result", labels=("result",),
        )
        self._evictions = self.metrics.counter(
            "repro_session_evictions_total", "Session LRU graph evictions"
        )
        self._epsilon_spent = self.metrics.counter(
            "repro_session_epsilon_spent_total",
            "Privacy budget spent by successful session queries",
        )
        self._disk_warm_starts = self.metrics.counter(
            "repro_session_disk_warm_starts_total",
            "Extensions preloaded from the persistent on-disk cache",
        )
        self._component_lookups = self.metrics.counter(
            "repro_session_component_lookups_total",
            "Session component-table lookups (in-memory memo or disk), by result",
            labels=("result",),
        )
        self._component_promotions = self.metrics.counter(
            "repro_session_component_promotions_total",
            "Component value tables promoted to the content-addressed layer",
        )
        self._derived_extensions = self.metrics.counter(
            "repro_session_derived_extensions_total",
            "Whole-graph misses answered by deriving the new version's "
            "extension from its parent's",
        )
        self.stats = SessionStats(self.metrics)

    # ------------------------------------------------------------------
    # Graph cache
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def fingerprints(self) -> list[str]:
        """Fingerprints currently cached, least-recently used first."""
        return list(self._entries)

    def register(self, graph) -> str:
        """Add ``graph`` to the cache (or touch it) and return its
        fingerprint.

        Object graphs are converted to the compact representation once
        here, so every subsequent release runs on the array kernels.
        """
        compact = as_compact(graph)
        fingerprint = compact.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
            self._graph_lookups.inc(result="hit")
            return fingerprint
        self._graph_lookups.inc(result="miss")
        self._entries[fingerprint] = _GraphEntry(graph=compact)
        while len(self._entries) > self._max_graphs:
            evicted_key, evicted = self._entries.popitem(last=False)
            # Spill the evicted warm table to disk (when a persistent
            # cache is attached) so re-admission is a disk warm start,
            # not a fresh LP pass — and promote its component tables so
            # edited descendants of the graph still warm-start.
            self._persist_entry(evicted_key, evicted)
            self._promote_components(evicted_key, evicted)
            self._promoted_graphs.pop(evicted_key, None)
            self._evictions.inc()
        return fingerprint

    def record_edit(
        self,
        parent: str,
        child: str,
        touched_old: Iterable[int],
        touched_new: Iterable[int],
    ) -> None:
        """Record that graph ``child`` is graph ``parent`` after one
        :meth:`CompactGraph.apply_edits` batch with these touched
        component ids (fingerprints and the result's ``touched_old`` /
        ``touched_new``).

        The edit-stream server (:mod:`repro.service.streaming`) calls
        this after every applied batch.  Only the latest record is kept,
        and it holds no graph.  ``child``'s first whole-graph miss then
        derives its extension from ``parent``'s when component promotion
        is on, ``parent`` is resident and its extension has evaluated
        every Δ of the query's grid; otherwise the miss takes the usual
        path (disk record, then component tables, then cold).  The
        record is trusted as :meth:`CompactGraph.apply_edits` made it:
        derivation checks only that the touched ids are component ids of
        the two versions and that the edge counts add up.
        """
        self._lineage = _Lineage(
            parent, child, frozenset(touched_old), frozenset(touched_new)
        )

    def _entry_for(
        self, graph=None, fingerprint: Optional[str] = None
    ) -> tuple[str, _GraphEntry]:
        if fingerprint is not None:
            entry = self._entries.get(fingerprint)
            if entry is None:
                raise KeyError(
                    f"no cached graph with fingerprint {fingerprint!r}; "
                    "register(graph) it first"
                )
            self._entries.move_to_end(fingerprint)
            self._graph_lookups.inc(result="hit")
            return fingerprint, entry
        if graph is None:
            raise ValueError("query needs a graph or a fingerprint")
        key = self.register(graph)
        return key, self._entries[key]

    def graph_and_extension(self, graph):
        """Return ``(cached_graph, warm_extension)`` for ``graph``.

        The amortization hook the Algorithm-1 adapters call when bound
        to a session (see ``bind_session``): the returned graph is the
        cached, content-identical :class:`CompactGraph`, and the
        extension is built at most once per cached graph (warm-started
        from the persistent cache when one is attached — bound-adapter
        callers release on the default candidate grid, which is what
        the disk entry covers).
        """
        key = self.register(graph)
        entry = self._entries[key]
        return entry.graph, self._extension(
            entry, key, self._default_grid(entry.graph)
        )

    @staticmethod
    def _default_grid(graph) -> list[int]:
        """The Algorithm-1 candidate grid for ``delta_max = n``."""
        return power_of_two_grid(max(graph.number_of_vertices(), 1))

    def _grid_for(self, graph, options: Mapping[str, Any]) -> list[int]:
        """The candidate grid the estimator will evaluate — mirrors
        ``PrivateSpanningForestSize.release``'s grid choice."""
        delta_max = options.get("delta_max")
        if delta_max is None:
            return self._default_grid(graph)
        return power_of_two_grid(max(delta_max, 1))

    def _extension(
        self,
        entry: _GraphEntry,
        fingerprint: Optional[str] = None,
        grid: Optional[list] = None,
    ):
        if entry.extension is None:
            extension = self._derived(entry.graph, fingerprint, grid)
            if extension is None:
                extension = self._built(entry.graph, fingerprint, grid)
            entry.extension = extension
        return entry.extension

    def _derived(self, graph, fingerprint: Optional[str], grid):
        """The extension of the recorded edit's child version, derived
        from its resident parent's, or ``None`` (see :meth:`record_edit`)."""
        lineage = self._lineage
        if (
            not self._component_promotion
            or grid is None
            or lineage is None
            or lineage.child != fingerprint
        ):
            return None
        parent = self._entries.get(lineage.parent)
        if parent is None or parent.extension is None:
            return None
        derived = parent.extension.derive(
            graph,
            lineage.touched_old,
            lineage.touched_new,
            grid,
            # As on the usual path, no lookups when nothing could answer.
            (lambda fp, carried: self._reused_table(fp, grid, carried))
            if self._component_memo or self.cache is not None
            else None,
        )
        if derived is not None:
            self._derived_extensions.inc()
        return derived

    def _built(self, graph, fingerprint: Optional[str], grid):
        """A new extension for ``graph``: warmed from its disk record,
        else from component tables, else cold."""
        extension = extension_for(graph)
        warmed = False
        if self.cache is not None and fingerprint is not None and grid is not None:
            warmed = self._warm_from_disk(extension, fingerprint, grid)
        # Whole-graph miss (a new graph version, typically): fall back
        # to component granularity, so only components touched by an
        # edit batch pay the LP again.  Skipped when neither the memo
        # nor a disk cache could possibly answer.
        if (
            not warmed
            and grid is not None
            and self._component_promotion
            and (self._component_memo or self.cache is not None)
        ):
            self._warm_components(extension, grid)
        return extension

    def _component_key(self, fingerprint: str, grid) -> str:
        """Content address of one component table for this session."""
        version = self.cache.version if self.cache is not None else __version__
        return component_extension_key(fingerprint, grid, version)

    def _memo_put(self, key: str, table: dict[float, float]) -> None:
        memo = self._component_memo
        memo[key] = table
        memo.move_to_end(key)
        while len(memo) > _COMPONENT_MEMO_SIZE:
            evicted, _ = memo.popitem(last=False)
            if self.cache is None:
                # Only the memo held it: promote it again next time a
                # version values the component.
                self._promoted_components.discard(evicted)

    def _component_table(
        self, fingerprint: str, grid, disk: bool = True
    ) -> Optional[dict[float, float]]:
        """A component's table from the memo, else (with ``disk``) from
        the persistent cache, or ``None``."""
        key = self._component_key(fingerprint, grid)
        table = self._component_memo.get(key)
        if table is not None:
            self._component_memo.move_to_end(key)
        elif disk and self.cache is not None:
            table = self.cache.load_component(fingerprint, grid)
            if table is not None:
                self._memo_put(key, table)
                self._promoted_components.add(key)
        return table

    def _reused_table(
        self, fingerprint: str, grid, carried: bool
    ) -> Optional[dict[float, float]]:
        """One counted lookup of a derived version's candidate: a table
        carried over from the parent is a hit, as is one found in the
        memo or (for a touched component) on disk."""
        table = self._component_table(fingerprint, grid, disk=not carried)
        self._component_lookups.inc(
            result="hit" if carried or table else "miss"
        )
        return table

    def _warm_components(self, extension, grid) -> int:
        """Preload per-component tables from the memo / persistent cache.

        Runs the (pure array) component split, then looks up only the
        promotion candidates — the components the extension could hand
        to Algorithm-3 repair or the LP at some Δ in ``grid`` (see
        :meth:`~repro.core.extension.CompactSpanningForestExtension.candidate_fingerprints`).
        Every candidate whose content fingerprint is already known, i.e.
        every one untouched since a donor graph was served, is warmed;
        the rest of the graph is valued as in a cold release.  Returns
        the number of components warmed.
        """
        by_fingerprint: dict[str, list[int]] = {}
        for i, fp in extension.candidate_fingerprints(grid).items():
            by_fingerprint.setdefault(fp, []).append(i)
        tables: dict[int, dict[float, float]] = {}
        for fp, indices in by_fingerprint.items():
            table = self._component_table(fp, grid)
            if table:
                tables.update(dict.fromkeys(indices, table))
                self._component_lookups.inc(result="hit")
            else:
                self._component_lookups.inc(result="miss")
        if not tables:
            return 0
        return extension.preload_component_tables(tables)

    def _promote_components(
        self,
        fingerprint: str,
        entry: _GraphEntry,
        grid: Optional[list] = None,
    ) -> int:
        """Export the entry's per-component value tables to the memo
        (and the persistent cache when attached).

        Only tables of components valued by Algorithm-3 repair or the LP
        are exported (see
        :meth:`~repro.core.extension.CompactSpanningForestExtension.export_component_tables`).
        Runs at the same moments as :meth:`_persist_entry` — after a
        shared-extension query, on LRU eviction, and from
        :meth:`persist_warm_extensions` — and is equally idempotent:
        each (graph, grid) exports once while the graph is resident, and
        each component key stores once (again after the memo evicted a
        table no disk cache holds).  Returns the number of tables
        promoted.
        """
        if not self._component_promotion or entry.extension is None:
            return 0
        if grid is None:
            grid = self._default_grid(entry.graph)
        graph_key = extension_key(
            fingerprint,
            grid,
            self.cache.version if self.cache is not None else __version__,
        )
        if graph_key in self._promoted_graphs.get(fingerprint, ()):
            return 0
        promoted = 0
        for fp, table in entry.extension.export_component_tables():
            if not table:
                continue
            key = self._component_key(fp, grid)
            if key in self._promoted_components:
                continue
            self._memo_put(key, dict(table))
            if self.cache is not None:
                self.cache.store_component(fp, grid, table)
            self._promoted_components.add(key)
            self._component_promotions.inc()
            promoted += 1
        self._promoted_graphs.setdefault(fingerprint, set()).add(graph_key)
        return promoted

    def _warm_from_disk(self, extension, fingerprint: str, grid) -> bool:
        """Preload ``extension`` from the persistent cache if possible."""
        record = self.cache.load(fingerprint, grid)
        if record is None:
            return False
        # Integrity cross-check beyond the content address: the exact
        # f_sf just computed from the graph itself must agree with the
        # stored one, or the record is damaged and gets dropped.
        if int(record["true_fsf"]) != int(extension.true_value):
            self.cache.invalidate(fingerprint, grid)
            return False
        extension.preload_values(zip(record["grid"], record["values"]))
        self._persisted.add(self.cache.key(fingerprint, grid))
        self._disk_warm_starts.inc()
        return True

    def _persist_entry(
        self,
        fingerprint: str,
        entry: _GraphEntry,
        grid: Optional[list] = None,
    ) -> bool:
        """Write one entry's warm table to the persistent cache.

        No-op without a cache, without a built extension, when the
        (default or given) grid is not fully evaluated yet, or when
        this process already stored/loaded the same key.
        """
        if self.cache is None or entry.extension is None:
            return False
        if grid is None:
            grid = self._default_grid(entry.graph)
        key = self.cache.key(fingerprint, grid)
        if key in self._persisted:
            return False
        values = entry.extension.cached_values()
        try:
            table = [values[float(delta)] for delta in grid]
        except KeyError:
            return False
        self.cache.store(
            fingerprint,
            grid,
            table,
            entry.extension.true_value,
        )
        self._persisted.add(key)
        return True

    def persist_warm_extensions(self) -> int:
        """Spill every resident warm table to the persistent cache.

        Returns how many tables were written.  Called by the sweep
        runner before dropping its shared session, and usable by any
        long-running server at shutdown; a no-op without a cache.
        """
        written = 0
        for fingerprint, entry in self._entries.items():
            written += bool(self._persist_entry(fingerprint, entry))
            self._promote_components(fingerprint, entry)
        return written

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        estimator: str,
        epsilon: Optional[float] = None,
        *,
        graph=None,
        fingerprint: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        **options,
    ) -> Release:
        """Release one estimate on a (hot or new) graph.

        Parameters
        ----------
        estimator:
            Registry name or alias (see
            :func:`repro.estimators.estimator_names`).
        epsilon:
            Privacy budget for this query (``None`` only for the
            non-private baseline).
        graph, fingerprint:
            The input: either the graph itself (cached by content hash
            on first sight) or the fingerprint of an already-registered
            graph.
        rng, seed:
            The randomness: an explicit generator, or a seed for a fresh
            ``numpy.random.default_rng``.  Exactly one is required —
            the session never invents entropy, so callers stay in charge
            of reproducibility.
        options:
            Estimator-specific options forwarded to the registry
            factory.
        """
        if (rng is None) == (seed is None):
            raise ValueError("provide exactly one of rng or seed")
        if rng is None:
            rng = np.random.default_rng(seed)
        name = canonical_name(estimator)
        spec = get_spec(name)
        if (
            self.accountant is not None
            and not spec.requires_epsilon
            and not self._allow_non_private
        ):
            raise ValueError(
                f"estimator {name!r} is non-private and would bypass this "
                "session's total-epsilon budget; construct the session "
                "with allow_non_private=True to serve it anyway"
            )
        key, entry = self._entry_for(graph=graph, fingerprint=fingerprint)
        instance = create(name, epsilon=epsilon, graph=entry.graph, **options)
        # Refuse doomed or unaffordable work up front: nothing is spent
        # for a query that cannot produce a release.
        if not instance.supports(entry.graph):
            raise ValueError(
                f"estimator {name!r} does not support this graph as "
                "configured (size or degree restriction)"
            )
        charged = self.accountant is not None and spec.requires_epsilon
        if charged and not self.accountant.can_spend(epsilon):
            raise BudgetExceededError(
                f"query for {epsilon} exceeds the session's remaining "
                f"budget {self.accountant.remaining()}"
            )
        shared_extension = getattr(instance, "uses_extension", False)
        if shared_extension:
            grid = self._grid_for(entry.graph, options)
            release = instance.release(
                entry.graph, rng,
                extension=self._extension(entry, key, grid),
            )
        else:
            release = instance.release(entry.graph, rng)
        # Spend only after a successful release: a raising estimator
        # must not leak budget.
        if charged:
            self.accountant.spend(epsilon, f"{name}@{key[:12]}")
        if spec.requires_epsilon:
            # Session-scoped accounting, shared accountant or not —
            # never reset by LRU eviction or graph re-admission.
            self._epsilon_spent.inc(epsilon)
        self._queries.inc()
        if shared_extension:
            # The release just evaluated the whole grid: make the warm
            # table durable (one set lookup per query once stored), and
            # promote its per-component tables so future graph versions
            # that share components warm-start at component granularity.
            self._persist_entry(key, entry, grid)
            self._promote_components(key, entry, grid)
        return release
