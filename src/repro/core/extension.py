"""The Lipschitz-extension family ``{f_Δ}`` for the spanning-forest size.

Implements Algorithm 2 (``EvalLipschitzExtension``) for a whole family
of Δ values, as Algorithm 1 / Algorithm 4 require.
:class:`CompactSpanningForestExtension` is bound to an array-backed
:class:`~repro.graphs.compact.CompactGraph`: the component split, degree
scan and exactness test are vectorized kernel work shared across every Δ
in the candidate grid, with **zero object-graph coercion** anywhere on
the path.  Each remaining component goes through the certificate step
at ⌊Δ⌋ — a counting test that can rule out a spanning ⌊Δ⌋-tree, the
spanning-tree kernel of :mod:`repro.kernels`, then Algorithm-3 repair
where the kernel declines — and only then the int-native LP core of
:mod:`repro.lp.forest_core`.  A tree from either proves ``f_Δ = n − 1``
(property 4 below), and so does an LP value of exactly ``n − 1``; the
certificate is memoized monotonically, so every larger Δ of the grid
costs nothing.

An object :class:`~repro.graphs.graph.Graph` is converted once by
:func:`extension_for` (via :func:`~repro.graphs.compact.as_compact`), so
``CompactGraph`` → :mod:`repro.lp.forest_core` → :mod:`repro.kernels`
is the only path from a graph to ``f_Δ``.  A graph version made by
:meth:`~repro.graphs.compact.CompactGraph.apply_edits` can instead
have its extension derived from its parent's
(:meth:`CompactSpanningForestExtension.derive`): the component tables
are spliced, only the touched components are valued, and every total
is bit-identical to a cold build's.

Lemma 3.3 properties (all verified by the test suite):

1. underestimation: ``f_Δ(G) ≤ f_sf(G)``;
2. monotonicity in Δ;
3. ``f_Δ`` is Δ-Lipschitz w.r.t. node distance;
4. exactness on graphs with a spanning Δ-forest;
5. polynomial-time computability.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .. import kernels, telemetry
from ..graphs.compact import CompactGraph, as_compact, component_fingerprint
from ..graphs.graph import Graph
from ..lp.forest_core import batched_tree_values, solve_component

__all__ = [
    "CompactSpanningForestExtension",
    "extension_for",
    "evaluate_lipschitz_extension",
]

# Always-on pipeline counters.  Repairs are per Algorithm-3 attempt,
# made only where the spanning-tree kernel declines (and never where
# the counting test rules a tree out);
# certificate hits count components whose earlier certificate (the
# monotone ``_exact_from`` memo: a spanning tree, or an LP value of
# n − 1) answered a later Δ with no new work.
_REPAIRS = telemetry.counter(
    "repro_extension_repairs_total",
    "Algorithm-3 bounded-degree repair attempts, by outcome",
    labels=("outcome",),
)
_CERTIFICATE_HITS = telemetry.counter(
    "repro_extension_certificate_hits_total",
    "Components answered from a memoized exactness certificate "
    "during a Delta evaluation",
)
_BATCHED_TREES = telemetry.counter(
    "repro_extension_batched_trees_total",
    "Tree components valued by the vectorized batched DP instead of "
    "the per-component repair/LP loop",
)


def _multi_slice(starts: np.ndarray, lengths: np.ndarray, total: int) -> np.ndarray:
    """Index array selecting ``concatenate([arange(s, s+l), ...])``
    for parallel slice bounds, without a Python loop per slice."""
    shifts = starts - np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(shifts, lengths)


def evaluate_lipschitz_extension(
    graph: Graph | CompactGraph, delta: float, **options
) -> float:
    """Algorithm 2: return ``f_Δ(G)`` for a single Δ.

    Convenience wrapper (``options`` go to :func:`extension_for`); use
    :func:`extension_for` when evaluating several Δ on the same graph
    (the extension caches).
    """
    return extension_for(graph, **options).value(delta)


class _ComponentwiseExtension:
    """Evaluation engine: per-component evaluation with monotone memoization.

    :class:`CompactSpanningForestExtension` supplies the graph-specific
    part: ``_graph`` (whose ``f_sf`` is :attr:`true_value`),
    ``_prepare()`` (idempotent, lazy) installs the per-component
    tables through :meth:`_finish_prepare`, ``_component_arrays(i) ->
    (n, u, v)`` returns the canonical local index arrays handed to the
    LP core (Algorithm-3 repair runs on a :class:`CompactGraph` built
    from those same arrays), and ``_batch_local_arrays(batch)`` gathers
    a batch of tree components for the vectorized DP.

    Per-component bookkeeping exploits monotonicity: a spanning
    ⌊Δ⌋-tree (from Algorithm-3 repair or the kernel) certifies exactness
    for every Δ' ≥ ⌊Δ⌋, and an LP value of exactly ``n − 1`` at Δ for
    every Δ' ≥ Δ (``_exact_from``); a failed certificate step at a given
    cap is never retried.  Values are cached per Δ at both the component
    and the graph level, and per Δ the values of the components the
    exactness mask left pending are kept as one ``(slots, values)``
    array pair (:meth:`_install`).

    With ``batched_certificates`` (the default), tree components — the
    overwhelming majority in sparse workloads — are valued at integral Δ
    by one vectorized degree-capped-forest DP across *all* of them
    (:func:`repro.lp.forest_core.batched_tree_values`) instead of the
    per-component repair/LP loop.  This is value-identical by
    construction: on a tree whose max degree exceeds ⌊Δ⌋ the
    certificate step *always* fails (a tree is its own unique spanning
    tree, so neither the kernel nor Algorithm-3 repair finds one within
    the cap), after which the legacy path runs the exact same
    integral DP one component at a time.  Per-component bookkeeping is
    lazy (dicts keyed by component index, for the components that reach
    the certificate step or the LP, or are preloaded) so a
    million-component graph pays nothing for the components the batched
    pass already settled: their values live only in the per-Δ arrays.
    """

    #: Max vertices per batched-DP chunk — bounds the working-set of the
    #: scatter-add arrays while amortizing the vectorization overhead.
    _BATCH_CHUNK_VERTICES = 4_000_000

    def __init__(
        self,
        *,
        use_fast_paths: bool = True,
        batched_certificates: bool = True,
    ) -> None:
        self._use_fast_paths = use_fast_paths
        self._batched_certificates = batched_certificates
        self._prepared = False
        self._sizes = np.zeros(0, dtype=np.int64)
        self._maxdeg = np.zeros(0, dtype=np.int64)
        self._edge_counts = np.zeros(0, dtype=np.int64)
        self._exact_from: np.ndarray = np.zeros(0)
        self._size_values: np.ndarray = np.zeros(0)
        self._size_total = 0.0
        self._repair_failed: dict[int, set[int]] = {}
        self._lp_cache: dict[int, dict[float, float]] = {}
        self._compact_cache: dict[int, CompactGraph] = {}
        self._value_cache: dict[float, float] = {}
        self._fingerprints: dict[int, str] = {}
        self._valued: set[int] = set()
        self._slot_values: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._true_fsf: Optional[int] = None

    def _finish_prepare(self, sizes, maxdeg, edge_counts) -> None:
        """Install the per-component tables (called by ``_prepare``).

        ``edge_counts`` (edges per component, engine order) drives the
        batched tree pass; the per-component memos start empty — they
        are dicts keyed by component index, populated only for the
        components that actually reach the repair/LP machinery (or are
        preloaded) — and so do the per-Δ slot arrays.
        """
        self._sizes = np.asarray(sizes, dtype=np.int64)
        self._maxdeg = np.asarray(maxdeg, dtype=np.int64)
        self._edge_counts = np.asarray(edge_counts, dtype=np.int64)
        self._exact_from = np.full(self._sizes.size, np.inf)
        self._size_values = (self._sizes - 1).astype(np.float64)
        self._size_total = float(np.sum(self._size_values))
        self._repair_failed = {}
        self._lp_cache = {}
        self._compact_cache = {}
        self._fingerprints = {}
        self._valued = set()
        self._slot_values = {}
        self._prepared = True

    def _ensure_prepared(self) -> None:
        if not self._prepared:
            with telemetry.span("extension.prepare"):
                self._prepare()

    def _component_graph(self, i: int) -> CompactGraph:
        """Component ``i`` as a (cached) local-index :class:`CompactGraph`."""
        cached = self._compact_cache.get(i)
        if cached is None:
            n, u, v = self._component_arrays(i)
            cached = CompactGraph.from_edge_arrays(n, u, v)
            self._compact_cache[i] = cached
        return cached

    def _attempt_repair(self, i: int, floor_delta: int) -> bool:
        """The certificate step at cap ``floor_delta``: ``True`` when it
        finds a spanning ``floor_delta``-tree of component ``i``, which
        proves ``f_Δ = n − 1`` for every ``Δ ≥ floor_delta`` (Lemma
        3.3(4)).

        1. A component that :func:`repro.kernels.excludes_capped_spanning_tree`
           excludes by counting is skipped; neither step below runs.
        2. :func:`repro.kernels.capped_spanning_tree` (greedy start,
           Fürer–Raghavachari steps under a fixed budget) runs in an
           ``extension.spanning_tree`` span.
        3. Only if the kernel declines does Algorithm 3 run, unchanged,
           in an ``extension.repair`` span; each such attempt is counted
           in ``repro_extension_repairs_total``.  It runs whenever no
           tree was found, so Lemma 1.8's guarantee (success whenever
           ``s(G) < floor_delta``) still holds, and the verdict is the
           OR of the two steps in either order.
        """
        n, u, v = self._component_arrays(i)
        if kernels.excludes_capped_spanning_tree(n, u, v, floor_delta):
            return False
        with telemetry.span("extension.spanning_tree", cap=floor_delta):
            tree = kernels.capped_spanning_tree(n, u, v, floor_delta)
        if tree is not None:
            return True
        with telemetry.span("extension.repair", component=i, cap=floor_delta):
            repaired = (
                self._component_graph(i)
                .repair_spanning_forest(floor_delta)
                .forest
                is not None
            )
        _REPAIRS.inc(outcome="success" if repaired else "failure")
        return repaired

    # -- public API ---------------------------------------------------------
    @property
    def true_value(self) -> int:
        """The exact (non-private) ``f_sf(G)`` (computed on first use)."""
        if self._true_fsf is None:
            self._true_fsf = self._graph.spanning_forest_size()
        return self._true_fsf

    def value(self, delta: float) -> float:
        """Return ``f_Δ(G)``."""
        key = float(delta)
        if key <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        cached = self._value_cache.get(key)
        if cached is not None:
            return cached
        self._ensure_prepared()
        slots = np.arange(self._sizes.size)
        self._install(key, *self._value_slots(slots, key))
        return self._value_cache[key]

    def _install(self, key: float, slots: np.ndarray, values: np.ndarray) -> None:
        """Install the total at ``key`` from the values of the components
        the exactness mask left pending (``slots`` ascending); every
        other component is worth ``size − 1``.

        Fill one slot per component, then reduce with a single
        fixed-shape ``np.sum``: the total depends only on the value in
        each slot, never on *which* path (vectorized mask, memoized
        certificate, preloaded component table, live LP, or a value
        carried over from the parent version by :meth:`derive`)
        produced it.  This is the bit-identity contract the
        per-component cache relies on — a warm process may certify a
        different subset of components than a cold one.  With nothing
        pending the vector is the all-``size − 1`` one, summed once per
        extension.  The ``(slots, values)`` pair is kept per Δ, so a
        derived version can carry the values of the components an edit
        did not touch.
        """
        if slots.size:
            vector = self._size_values.copy()
            vector[slots] = values
            self._value_cache[key] = float(np.sum(vector))
        else:
            self._value_cache[key] = self._size_total
        self._slot_values[key] = (slots, values)

    def _value_slots(
        self, slots: np.ndarray, key: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value the components ``slots`` (ascending) at ``key`` by the
        cold rules: the exactness mask (``maxdeg ≤ Δ`` or a memoized
        certificate), the batched tree DP, then per component the
        certificate step and the LP.

        Returns the components the mask left pending and their values.
        """
        certified = self._exact_from[slots] <= key
        if certified.any():
            _CERTIFICATE_HITS.inc(int(np.count_nonzero(certified)))
        pending = slots[~((self._maxdeg[slots] <= key) | certified)]
        values = np.empty(pending.size)
        if pending.size == 0:
            return pending, values
        batch, batch_values = self._batched_tree_pass(pending, key)
        rest = np.ones(pending.size, dtype=bool)
        if batch.size:
            at = np.searchsorted(pending, batch)
            values[at] = batch_values
            rest[at] = False
        values[rest] = [
            self._component_value(i, key) for i in pending[rest].tolist()
        ]
        return pending, values

    def _batched_tree_pass(
        self, pending: np.ndarray, key: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value every pending *tree* component in one vectorized DP.

        Returns ``(batch, values)``: the tree components among
        ``pending`` without a memoized or preloaded value at ``key``,
        and their exact values.  The values live only in the per-Δ slot
        arrays (see :meth:`_install`), not in the per-component memo,
        so the memo holds just the preloaded and repair/LP-valued
        components and the filter below scans only those.  Only engages
        at integral Δ ≥ 1 with fast paths on — the exact regime where
        the legacy per-component path is guaranteed to resolve a tree by
        the same integral DP (see the class docstring), so totals are
        bit-identical either way.
        """
        none = (pending[:0], np.empty(0))
        if not (
            self._batched_certificates
            and self._use_fast_paths
            and key >= 1.0
            and float(key).is_integer()
        ):
            return none
        batch = pending[
            self._edge_counts[pending] == self._sizes[pending] - 1
        ]
        if batch.size and self._lp_cache:
            cached = np.fromiter(
                (
                    i
                    for i, table in self._lp_cache.items()
                    if key in table
                ),
                dtype=np.int64,
            )
            if cached.size:
                batch = np.setdiff1d(batch, cached)
        if batch.size == 0:
            return none
        cap = int(key)
        values = np.empty(batch.size)
        with telemetry.span(
            "extension.batched_trees", components=int(batch.size), cap=cap
        ):
            cumulative = np.cumsum(self._sizes[batch])
            start = 0
            while start < batch.size:
                consumed = cumulative[start - 1] if start else 0
                stop = int(
                    np.searchsorted(
                        cumulative,
                        consumed + self._BATCH_CHUNK_VERTICES,
                        side="right",
                    )
                )
                stop = min(max(stop, start + 1), batch.size)
                values[start:stop] = self._batched_tree_values(
                    batch[start:stop], cap
                )
                start = stop
        _BATCHED_TREES.inc(int(batch.size))
        return batch, values

    def _batched_tree_values(self, chunk: np.ndarray, cap: int) -> np.ndarray:
        """Exact f_Δ for each tree component in ``chunk`` (one DP call)."""
        nloc, lu, lv, offsets = self._batch_local_arrays(chunk)
        roots, root_values = batched_tree_values(nloc, lu, lv, cap)
        if roots.size != chunk.size:  # pragma: no cover - engine invariant
            raise RuntimeError(
                "batched tree pass saw a non-tree component "
                f"({roots.size} roots for {chunk.size} components)"
            )
        component = np.searchsorted(offsets, roots, side="right") - 1
        out = np.empty(chunk.size)
        out[component] = root_values
        return out

    def values_for_grid(self, candidates: Sequence[float]) -> np.ndarray:
        """Evaluate ``f_Δ`` for a whole candidate grid in one pass.

        Candidates are processed ascending so that every certificate at
        a small Δ (a spanning tree, or an LP value of ``n − 1``)
        certifies all larger candidates for its component (the forest
        work is shared, never recomputed per Δ); the returned array
        follows the input order.
        """
        with telemetry.span(
            "extension.values_for_grid", candidates=len(candidates)
        ):
            order = np.argsort(
                np.asarray(candidates, dtype=float), kind="stable"
            )
            values = np.empty(len(candidates))
            for pos in order.tolist():
                values[pos] = self.value(candidates[pos])
            return values

    def gap(self, delta: float) -> float:
        """Return the approximation gap ``f_sf(G) − f_Δ(G) ≥ 0``."""
        return max(self.true_value - self.value(delta), 0.0)

    def is_exact_at(self, delta: float, tolerance: float = 1e-6) -> bool:
        """Return ``True`` if ``f_Δ(G) = f_sf(G)`` (G is in the anchor set
        ``S_Δ``), up to numerical tolerance."""
        return self.gap(delta) <= tolerance

    def evaluated_deltas(self) -> list[float]:
        """Δ values whose values are currently cached (ascending)."""
        return sorted(self._value_cache)

    def cached_values(self) -> dict[float, float]:
        """Copy of the per-Δ value cache (``Δ -> f_Δ(G)``).

        The serialization surface of the persistent extension cache
        (:mod:`repro.service.cache`): together with :meth:`preload_values`
        it round-trips every evaluated grid value exactly, so a
        disk-warmed extension answers :meth:`values_for_grid` bit for
        bit like the one that originally computed them.
        """
        return dict(self._value_cache)

    def preload_values(self, values) -> None:
        """Install previously computed ``Δ -> f_Δ(G)`` values.

        ``values`` is a mapping or an iterable of ``(delta, value)``
        pairs, typically read back from
        :class:`repro.service.cache.ExtensionCache`.  Preloaded entries
        are served from the value cache exactly as if :meth:`value` had
        just computed them, so a fully preloaded grid never triggers
        the component split or any LP work.  Values are deterministic
        functions of the graph; callers are responsible for keying them
        to the right graph content (the service cache does this with a
        content-addressed key).
        """
        pairs = values.items() if hasattr(values, "items") else values
        for delta, value in pairs:
            key = float(delta)
            if key <= 0:
                raise ValueError(f"delta must be positive, got {delta}")
            self._value_cache[key] = float(value)

    def candidate_fingerprints(self, grid: Sequence[float]) -> dict[int, str]:
        """Content hash of each component :meth:`value` could hand to
        Algorithm-3 repair or the LP at some Δ in ``grid``, keyed by
        component index.

        Every other component is settled at each grid Δ by the
        exactness mask (``maxdeg ≤ Δ``) or by the batched tree DP —
        recomputing those is cheaper than hashing them, so only these
        candidates are worth warming from a per-component table.  With
        default options and Algorithm 1's power-of-two grid they are the
        non-tree components with ``maxdeg > min(grid)``.  The candidate
        set is array work; only candidates are hashed, over the same
        canonical ``(n, u, v)`` arrays the LP core consumes (see
        :func:`repro.graphs.compact.component_fingerprint`), so a
        component untouched by :meth:`CompactGraph.apply_edits` keeps
        its hash across graph versions.  Triggers :meth:`_prepare`.
        """
        self._ensure_prepared()
        deltas = np.asarray(grid, dtype=float)
        reach = self._maxdeg > np.min(deltas, initial=np.inf)
        if self._batched_certificates and self._use_fast_paths:
            # Mirrors _batched_tree_pass: trees at integral Δ ≥ 1 never
            # reach the repair/LP path.
            unbatched = deltas[(deltas < 1) | (deltas != np.floor(deltas))]
            tree = self._edge_counts == self._sizes - 1
            reach &= ~tree | (self._maxdeg > np.min(unbatched, initial=np.inf))
        return {
            i: self._component_fingerprint(i)
            for i in np.flatnonzero(reach).tolist()
        }

    def _component_fingerprint(self, i: int) -> str:
        fingerprint = self._fingerprints.get(i)
        if fingerprint is None:
            fingerprint = component_fingerprint(*self._component_arrays(i))
            self._fingerprints[i] = fingerprint
        return fingerprint

    def export_component_tables(self) -> list[tuple[str, dict[float, float]]]:
        """Per-component ``Δ -> f_Δ(component)`` tables for every
        evaluated Δ, paired with the component's content fingerprint.

        The component-level serialization surface of the persistent
        extension cache.  Only components that got a value from
        Algorithm-3 repair or the LP in this extension are exported:
        mask and batched-tree values are cheaper to recompute than to
        hash, and a component answered wholly from a preloaded table is
        already stored.  For each evaluated Δ the stored value is
        exactly what a cold evaluation produces for that component —
        ``size - 1`` when exactness is certified (degree bound, spanning
        tree or an LP value of ``size - 1`` at a smaller Δ), otherwise
        the memoized LP optimum.
        Components whose value at some Δ is unknown simply omit that Δ.
        Returns ``[]`` before any evaluation.
        """
        if not self._prepared:
            return []
        deltas = sorted(self._value_cache)
        tables: list[tuple[str, dict[float, float]]] = []
        empty: dict[float, float] = {}
        for i in sorted(self._valued):
            size_value = float(self._sizes[i] - 1)
            lp = self._lp_cache.get(i, empty)
            table: dict[float, float] = {}
            for key in deltas:
                if self._maxdeg[i] <= key or self._exact_from[i] <= key:
                    table[key] = size_value
                else:
                    cached = lp.get(key)
                    if cached is None:
                        cached = self._slot_value(i, key)
                    if cached is not None:
                        table[key] = cached
            tables.append((self._component_fingerprint(i), table))
        return tables

    def _slot_value(self, i: int, key: float) -> Optional[float]:
        """Component ``i``'s value at ``key`` in the per-Δ slot arrays
        (a batched tree value, say), or ``None`` when the mask settled
        it or ``key`` was not evaluated."""
        slots, values = self._slot_values.get(key, (None, None))
        if slots is None:
            return None
        at = int(np.searchsorted(slots, i))
        if at < slots.size and slots[at] == i:
            return float(values[at])
        return None

    def preload_component_tables(
        self, tables: Mapping[int, Mapping[float, float]]
    ) -> int:
        """Install per-component value tables keyed by component index.

        Counterpart of :meth:`export_component_tables` after an edit
        batch: the caller matches the :meth:`candidate_fingerprints` of
        this graph version against stored tables, and every component
        found — i.e. every candidate untouched by the edits — answers
        later :meth:`value` calls from its table instead of paying
        Algorithm-3 or the LP again.  Returns the number of components
        warmed.  Values land in the per-component memo, so totals remain
        bit-identical to a cold rebuild (see :meth:`value`), and a
        stored ``size - 1`` certifies every larger Δ, as it does cold.
        """
        self._ensure_prepared()
        hits = 0
        for i, table in tables.items():
            if not table:
                continue
            dest = self._lp_cache.setdefault(i, {})
            for delta, value in table.items():
                key = float(delta)
                if key <= 0:
                    raise ValueError(f"delta must be positive, got {delta}")
                dest[key] = float(value)
                self._certify_at(i, key, dest[key])
            hits += 1
        return hits

    # -- engine internals ---------------------------------------------------
    def _component_value(self, i: int, delta: float) -> float:
        table = self._lp_cache.get(i)
        cached = table.get(delta) if table is not None else None
        if cached is not None:
            return cached
        self._valued.add(i)
        if self._use_fast_paths:
            floor_delta = int(delta)
            failed = self._repair_failed.get(i)
            if floor_delta >= 1 and (failed is None or floor_delta not in failed):
                if self._attempt_repair(i, floor_delta):
                    self._exact_from[i] = min(
                        self._exact_from[i], float(floor_delta)
                    )
                    return float(self._sizes[i] - 1)
                self._repair_failed.setdefault(i, set()).add(floor_delta)
        n, u, v = self._component_arrays(i)
        core = solve_component(
            n,
            u,
            v,
            delta,
            use_fast_paths=self._use_fast_paths,
        )
        self._lp_cache.setdefault(i, {})[delta] = core.value
        self._certify_at(i, delta, core.value)
        return core.value

    def _certify_at(self, i: int, delta: float, value: float) -> None:
        """A value of exactly ``n − 1`` at Δ settles every larger Δ (the
        values are monotone in Δ and never exceed ``n − 1``)."""
        if value == self._sizes[i] - 1:
            self._exact_from[i] = min(self._exact_from[i], delta)


class CompactSpanningForestExtension(_ComponentwiseExtension):
    """``{f_Δ}`` bound to a :class:`CompactGraph` — the fast pipeline.

    The shared kernel pass runs once, entirely on int arrays: component
    labels (Shiloach–Vishkin union-find), degree table, per-component
    vertex and edge slices of the components with an edge (grouped by a
    stable argsort over component roots), and the local reindexing used
    by both Algorithm 3 and the LP core — or, for an edited version,
    :meth:`derive` splices those tables from the parent's.  Every Δ in
    the grid then reuses that work: exactness for
    ``Δ ≥ maxdeg`` is a vectorized mask, spanning-tree certificates are
    shared monotonically across candidates, and only the (typically few)
    stubborn components reach the LP core.  No object :class:`Graph` is
    ever materialized.

    The keyword options ``use_fast_paths`` and ``batched_certificates``
    switch off the integral shortcuts (tree DP, Δ = 1 matching and the
    certificate step; the batched tree pass), leaving the LP-only and
    per-component paths that tests and ablation benchmarks compare
    against.  The LP's own
    controls are constants of :mod:`repro.lp.forest_core`.

    Examples
    --------
    >>> from repro.graphs.generators import star_graph
    >>> ext = extension_for(star_graph(4))
    >>> ext.value(4)  # a spanning 4-forest exists: exact
    4.0
    >>> ext.value(1) <= ext.value(2) <= ext.value(4)  # monotone in delta
    True
    """

    def __init__(self, graph: CompactGraph, **options) -> None:
        super().__init__(**options)
        self._graph = graph
        # Lazy canonical per-component arrays, keyed by component index;
        # populated only for components that reach the repair/LP path.
        self._edges: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self._eu = np.zeros(0, dtype=np.int64)
        self._ev = np.zeros(0, dtype=np.int64)
        self._estarts = np.zeros(1, dtype=np.int64)
        self._vertex_order = np.zeros(0, dtype=np.int64)
        self._vstarts = np.zeros(1, dtype=np.int64)
        self._local_ids: Optional[np.ndarray] = None

    @property
    def graph(self) -> CompactGraph:
        """The bound input graph."""
        return self._graph

    def _prepare(self) -> None:
        """One vectorized pass over the sorted component ids.

        Everything is reduceat/searchsorted work on int arrays — no
        Python loop over components: the components with an edge (the
        slots) get their edges and their vertices grouped by root in
        the same order, sizes come from the vertex-group boundaries, max
        degrees from a grouped ``np.maximum.reduceat``, and the
        canonical local arrays each LP-bound component needs are
        deferred to :meth:`_component_arrays` (most components never ask
        — they are settled by the exactness mask or the batched DP).
        Isolated vertices are in no slot: they add nothing to ``f_Δ``.
        """
        graph = self._graph
        u, v = graph.edge_arrays()
        if u.size == 0:
            self._finish_prepare([], [], [])
            return
        labels = graph.component_labels()
        degrees = graph.degrees()
        edge_root = labels[u]
        edge_order = np.argsort(edge_root, kind="stable")
        eu, ev = u[edge_order], v[edge_order]
        sorted_roots = edge_root[edge_order]
        cuts = np.nonzero(np.diff(sorted_roots))[0] + 1
        starts = np.concatenate([[0], cuts, [eu.size]]).astype(np.int64)
        # The slots' vertices (degree ≥ 1), grouped by the same roots;
        # the stable argsort leaves each group's vertex ids ascending.
        live = np.flatnonzero(degrees)
        vertex_order = live[np.argsort(labels[live], kind="stable")]
        vroots = labels[vertex_order]
        vcuts = np.nonzero(np.diff(vroots))[0] + 1
        vstarts = np.concatenate([[0], vcuts, [vroots.size]]).astype(np.int64)
        self._eu, self._ev = eu, ev
        self._estarts = starts
        self._vertex_order = vertex_order
        self._vstarts = vstarts
        self._finish_prepare(
            np.diff(vstarts),
            np.maximum.reduceat(degrees[vertex_order], vstarts[:-1]),
            np.diff(starts),
        )

    def derive(
        self,
        graph: CompactGraph,
        touched_old: Iterable[int],
        touched_new: Iterable[int],
        grid: Sequence[float],
        lookup: Optional[Callable[[str, bool], Optional[Mapping[float, float]]]],
    ) -> Optional["CompactSpanningForestExtension"]:
        """The extension of ``graph``, derived from this one's.

        ``graph`` must be this extension's graph after one
        :meth:`CompactGraph.apply_edits` batch, and ``touched_old`` /
        ``touched_new`` that batch's touched component ids.  Returns
        ``None`` — derive nothing — unless this extension has evaluated
        every Δ of ``grid`` and both graphs have edges.

        A slot is a component with at least one edge, in root order.
        The touched components' slots (and vertex and edge groups) are
        removed from, and the new ones inserted into, the slot tables
        and the prepared arrays, which then equal a cold ``_prepare``'s.
        Every untouched slot keeps its certificate, failed caps, LP
        table, fingerprint and canonical arrays, and its value at each
        grid Δ.  ``lookup(fingerprint, carried)`` (unless ``None``) is
        called once per distinct promotion candidate (see
        :meth:`candidate_fingerprints`) of the new version, ``carried``
        telling whether an untouched slot has it, and a table it returns
        is preloaded into the touched slots with that fingerprint.  The
        touched slots are then valued over the grid in ascending Δ by the
        cold rules, and each Δ's slot vector is summed as cold
        (:meth:`_install`): slot for slot it equals the cold vector, so
        every total is bit-identical.  The new extension holds no
        reference to this one or its graph.
        """
        keys = sorted({float(delta) for delta in grid})
        if (
            not self._prepared
            or self._sizes.size == 0
            or graph.number_of_edges() == 0
            or graph.number_of_vertices() != self._graph.number_of_vertices()
            or any(key not in self._slot_values for key in keys)
        ):
            return None
        with telemetry.span("extension.derive", touched=len(touched_new)):
            spliced = self._spliced(graph, touched_old, touched_new, keys)
            if spliced is None:
                return None
            child, new_slots, carried = spliced
            if lookup is not None:
                child._reuse_tables(grid, new_slots, lookup)
            for key in keys:
                slots, values = carried[key]
                pending, fresh = child._value_slots(new_slots, key)
                if pending.size:
                    at = np.searchsorted(slots, pending)
                    slots = np.insert(slots, at, pending)
                    values = np.insert(values, at, fresh)
                child._install(key, slots, values)
        return child

    def _spliced(self, graph, touched_old, touched_new, keys):
        """``(child, new_slots, carried)``: the prepared extension of
        ``graph`` with this one's untouched slots carried over, the
        child indices of the touched ones, and per Δ of ``keys`` the
        untouched slots' ``(slots, values)`` pair.  ``None`` when the
        touched ids do not describe ``graph`` as an edit of this graph.
        """
        old_roots = np.array(sorted(touched_old), dtype=np.int64)
        new_roots = np.array(sorted(touched_new), dtype=np.int64)
        if old_roots.size == 0 or not np.array_equal(
            self._graph.component_labels()[old_roots], old_roots
        ):
            return None
        # The touched vertices, the same set before and after the edit:
        # the old touched slots' vertex groups plus the old touched
        # isolated vertices.
        slot_roots = self._vertex_order[self._vstarts[:-1]]
        at = np.minimum(np.searchsorted(slot_roots, old_roots), slot_roots.size - 1)
        is_slot = slot_roots[at] == old_roots
        old_slots = at[is_slot]
        old_lo = self._vstarts[old_slots]
        picked = _multi_slice(
            old_lo, self._sizes[old_slots], int(self._sizes[old_slots].sum())
        )
        verts = np.sort(
            np.concatenate([self._vertex_order[picked], old_roots[~is_slot]])
        )
        labels = graph.component_labels()
        grouped = verts[np.argsort(labels[verts], kind="stable")]
        grouped_roots = labels[grouped]
        first = np.concatenate([[True], grouped_roots[1:] != grouped_roots[:-1]])
        if not np.array_equal(grouped_roots[first], new_roots):
            return None
        group_starts = np.flatnonzero(first)
        group_sizes = np.diff(np.append(group_starts, grouped.size))
        # The new slots: the touched groups with two or more vertices.
        multi = group_sizes >= 2
        new_sizes = group_sizes[multi]
        slot_at = np.searchsorted(slot_roots, new_roots[multi])
        slot_at -= np.searchsorted(old_slots, slot_at)
        new_slots = slot_at + np.arange(slot_at.size)

        def splice(array, fresh):
            return kernels.splice(array, old_slots, slot_at, fresh)

        sizes = splice(self._sizes, new_sizes)
        vstarts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=vstarts[1:])
        vertex_order = kernels.splice(
            self._vertex_order,
            picked,
            np.repeat(vstarts[new_slots] - (np.cumsum(new_sizes) - new_sizes), new_sizes),
            grouped[np.repeat(multi, group_sizes)],
        )
        # The new slots' edges, u < v rows in order, from the new CSR.
        indptr, indices = graph.indptr, graph.indices
        row_lo = indptr[verts]
        row_len = indptr[verts + 1] - row_lo
        cols = indices[_multi_slice(row_lo, row_len, int(row_len.sum()))]
        rows = np.repeat(verts, row_len)
        upper = cols > rows
        tu, tv = rows[upper], cols[upper]
        by_slot = np.argsort(labels[tu], kind="stable")
        tu, tv = tu[by_slot], tv[by_slot]
        new_counts = np.diff(
            np.append(np.searchsorted(labels[tu], new_roots[multi]), tu.size)
        )
        edge_counts = splice(self._edge_counts, new_counts)
        estarts = np.zeros(edge_counts.size + 1, dtype=np.int64)
        np.cumsum(edge_counts, out=estarts[1:])
        if estarts[-1] != graph.number_of_edges():
            return None
        old_elo = self._estarts[old_slots]
        dropped = _multi_slice(
            old_elo,
            self._edge_counts[old_slots],
            int(self._edge_counts[old_slots].sum()),
        )
        edge_at = np.repeat(
            estarts[new_slots] - (np.cumsum(new_counts) - new_counts), new_counts
        )
        degrees = indptr[grouped + 1] - indptr[grouped]
        new_maxdeg = np.maximum.reduceat(degrees, group_starts)[multi]

        child = type(self)(
            graph,
            use_fast_paths=self._use_fast_paths,
            batched_certificates=self._batched_certificates,
        )
        child._true_fsf = self.true_value + old_roots.size - new_roots.size
        child._eu = kernels.splice(self._eu, dropped, edge_at, tu)
        child._ev = kernels.splice(self._ev, dropped, edge_at, tv)
        child._estarts = estarts
        child._vertex_order = vertex_order
        child._vstarts = vstarts
        child._finish_prepare(sizes, splice(self._maxdeg, new_maxdeg), edge_counts)
        child._exact_from = splice(self._exact_from, np.full(slot_at.size, np.inf))

        def moved(slots):
            """Child indices of the parent's ``slots`` (-1: touched)."""
            dropped_before = np.searchsorted(old_slots, slots)
            kept = slots - dropped_before
            child_slots = kept + np.searchsorted(slot_at, kept, side="right")
            if old_slots.size:
                at_drop = np.minimum(dropped_before, old_slots.size - 1)
                child_slots[old_slots[at_drop] == slots] = -1
            return child_slots

        def carry(table, copy=lambda item: item):
            if not table:
                return {}
            slots = list(table)
            return {
                j: copy(table[i])
                for i, j in zip(slots, moved(np.array(slots)).tolist())
                if j >= 0
            }

        child._repair_failed = carry(self._repair_failed, set)
        child._lp_cache = carry(self._lp_cache, dict)
        child._compact_cache = carry(self._compact_cache)
        child._fingerprints = carry(self._fingerprints)
        child._edges = carry(self._edges)
        carried = {}
        for key in keys:
            slots, values = self._slot_values[key]
            if slots.size:
                slots = moved(slots)
                keep = slots >= 0
                slots, values = slots[keep], values[keep]
            carried[key] = (slots, values)
        return child, new_slots, carried

    def _reuse_tables(self, grid, new_slots, lookup) -> None:
        """Ask ``lookup`` once per distinct candidate fingerprint, in
        slot order, and preload the tables it returns into the touched
        slots ``new_slots`` that carry those fingerprints."""
        fresh = np.zeros(self._sizes.size, dtype=bool)
        fresh[new_slots] = True
        carried: dict[str, bool] = {}
        touched: dict[str, list[int]] = {}
        for i, fingerprint in self.candidate_fingerprints(grid).items():
            if fresh[i]:
                touched.setdefault(fingerprint, []).append(i)
                carried.setdefault(fingerprint, False)
            else:
                carried[fingerprint] = True
        tables: dict[int, Mapping[float, float]] = {}
        for fingerprint, reused in carried.items():
            table = lookup(fingerprint, reused)
            if table and fingerprint in touched:
                tables.update(dict.fromkeys(touched[fingerprint], table))
        if tables:
            self.preload_component_tables(tables)

    def _component_arrays(self, i: int) -> tuple[int, np.ndarray, np.ndarray]:
        cached = self._edges.get(i)
        if cached is None:
            lo, hi = int(self._estarts[i]), int(self._estarts[i + 1])
            verts = self._vertex_order[self._vstarts[i] : self._vstarts[i + 1]]
            lu = np.searchsorted(verts, self._eu[lo:hi])
            lv = np.searchsorted(verts, self._ev[lo:hi])
            order = np.lexsort((lv, lu))
            cached = (int(verts.size), lu[order], lv[order])
            self._edges[i] = cached
        return cached

    def _batch_local_arrays(
        self, batch: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate the components in ``batch`` into one local forest.

        Returns ``(nloc, u, v, offsets)`` where component ``batch[k]``
        occupies the local vertices ``offsets[k]..offsets[k+1]-1``.  The
        batch's vertices are renumbered into one dense local range with
        a reusable O(n) scatter buffer — no per-component Python work,
        so a million-tree batch is a handful of array ops.
        """
        vlo = self._vstarts[batch]
        vlen = self._vstarts[batch + 1] - vlo
        offsets = np.zeros(batch.size + 1, dtype=np.int64)
        np.cumsum(vlen, out=offsets[1:])
        nloc = int(offsets[-1])
        verts = self._vertex_order[_multi_slice(vlo, vlen, nloc)]
        if self._local_ids is None:
            self._local_ids = np.empty(
                self._graph.number_of_vertices(), dtype=np.int64
            )
        local = self._local_ids
        local[verts] = np.arange(nloc, dtype=np.int64)
        elo = self._estarts[batch]
        elen = self._estarts[batch + 1] - elo
        edge_index = _multi_slice(elo, elen, int(elen.sum()))
        return nloc, local[self._eu[edge_index]], local[self._ev[edge_index]], offsets


def extension_for(graph, **options) -> CompactSpanningForestExtension:
    """Build the extension family for ``graph``.

    A :class:`CompactGraph` is bound as is; an object
    :class:`~repro.graphs.graph.Graph` is converted once with
    :func:`~repro.graphs.compact.as_compact` (vertex index = insertion
    order), so the extension's ``graph`` is the converted copy.
    """
    return CompactSpanningForestExtension(as_compact(graph), **options)
