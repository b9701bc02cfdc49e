"""Deriving a graph version's extension from its parent's.

After an edit batch served through :func:`serve_edit_stream`, a
promoting :class:`ReleaseSession` derives the new version's extension
from its resident parent's instead of re-running the component split.
The contract pinned here: a derived extension is indistinguishable from
a cold one (``float.hex`` of every grid and off-grid value, the prepared
arrays, the exact ``f_sf``), and a session that derives serves the same
records and counters as one that never can.  Also pinned: the bounds on
the session's promotion bookkeeping.
"""

import gc
import json
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.core.extension as extension_module
import repro.service.session as session_module
from repro import telemetry
from repro.__main__ import main
from repro.core.extension import extension_for
from repro.graphs.compact import CompactGraph
from repro.graphs.io import format_edge_list
from repro.mechanisms.gem import power_of_two_grid
from repro.service import ReleaseSession
from repro.service.streaming import serve_edit_stream
from repro.telemetry import counter_value

DERIVED = "repro_session_derived_extensions_total"
PREPARED = (
    "_eu", "_ev", "_estarts", "_vertex_order", "_vstarts",
    "_sizes", "_maxdeg", "_edge_counts",
)


def _derived(session: ReleaseSession) -> int:
    return int(session.metrics.value(DERIVED))


def _contact_graph(rng, communities: int, size: int, dust: int) -> CompactGraph:
    """Dense communities (valued by repair or the LP) followed by dust
    (trees, the odd cycle, isolated vertices)."""
    edges = {
        (base + i, base + j)
        for base in range(0, communities * size, size)
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < 0.5
    }
    offset = communities * size
    for _ in range(int(0.6 * dust)):
        a, b = sorted((offset + rng.choice(dust, 2, replace=False)).tolist())
        edges.add((a, b))
    return CompactGraph.from_edges(offset + dust, sorted(edges))


def _absent_pair(graph: CompactGraph, low: int, high: int, rng) -> list:
    """A vertex pair in ``[low, high)`` that is not an edge."""
    while True:
        a, b = sorted((low + rng.choice(high - low, 2, replace=False)).tolist())
        if not graph.has_edge(a, b):
            return [a, b]


def _release(i: int, estimator: str) -> dict:
    return {"id": f"q{i}", "estimator": estimator, "epsilon": 1.0, "seed": i}


@st.composite
def edit_streams(draw):
    """A contact graph and an event stream of edit batches (inserts in
    the dust, across components and inside communities; deletes of
    present edges) each followed by one or two releases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    communities = draw(st.integers(1, 2))
    size = draw(st.integers(5, 9))
    graph = _contact_graph(rng, communities, size, draw(st.integers(10, 40)))
    n = graph.number_of_vertices()
    edges = set(zip(*(a.tolist() for a in graph.edge_arrays())))
    events = [_release(0, "cc")]
    for batch in range(draw(st.integers(1, 4))):
        inserts = {
            tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
            for _ in range(draw(st.integers(0, 3)))
        }
        if draw(st.booleans()):  # an edit inside a community
            base = size * int(rng.integers(communities))
            inserts.add(tuple(sorted((base + rng.choice(size, 2, replace=False)).tolist())))
        present = sorted(edges - inserts)
        deletes = {
            present[int(rng.integers(len(present)))]
            for _ in range(draw(st.integers(0, 2)))
            if present
        }
        edges = (edges | inserts) - deletes
        rows = [["+", a, b] for a, b in sorted(inserts)]
        rows += [["-", a, b] for a, b in sorted(deletes)]
        events.append({"id": f"e{batch}", "edits": rows})
        events.append(_release(2 * batch + 1, "cc"))
        if draw(st.booleans()):
            events.append(_release(2 * batch + 2, "sf"))
    return graph, [json.dumps(event) for event in events]


def _version_fingerprints(base: CompactGraph, records) -> list[str]:
    """The stream's graph versions, consecutive repeats collapsed."""
    versions = [base.fingerprint()]
    for record in records:
        fingerprint = record.get("fingerprint") if "applied" in record else None
        if fingerprint is not None and fingerprint != versions[-1]:
            versions.append(fingerprint)
    return versions


def _counters(session: ReleaseSession) -> dict:
    # A one-graph LRU evicts every version, the deriving session's does
    # not (its parent stays resident): evictions differ by design.
    stats = session.stats.to_dict()
    stats.pop("evictions")
    return stats


def _assert_matches_cold(extension, grid) -> None:
    cold = extension_for(extension.graph)
    assert [v.hex() for v in extension.values_for_grid(grid)] == [
        v.hex() for v in cold.values_for_grid(grid)
    ]
    for off_grid in (2.5, 3.0):
        assert extension.value(off_grid).hex() == cold.value(off_grid).hex()
    assert extension.true_value == cold.true_value
    cold._ensure_prepared()
    for name in PREPARED:
        mine, theirs = getattr(extension, name), getattr(cold, name)
        assert np.array_equal(mine, theirs), name
        assert mine.dtype == theirs.dtype, name


class TestDerivedVersions:
    @given(edit_streams())
    @settings(max_examples=30, deadline=None)
    def test_derived_extensions_equal_cold_ones(self, stream):
        base, lines = stream
        session = ReleaseSession()
        records = list(serve_edit_stream(lines, session, base))
        # A content revisit is a graph hit for the deriving session but
        # a miss for the one-graph session, so the counters would differ.
        versions = _version_fingerprints(base, records)
        assume(len(set(versions)) == len(versions))
        never = ReleaseSession(max_graphs=1)
        assert records == list(serve_edit_stream(lines, never, base))
        assert _derived(never) == 0
        assert _counters(session) == _counters(never)
        grid = power_of_two_grid(base.number_of_vertices())
        for entry in list(session._entries.values()):
            if entry.extension is not None:
                _assert_matches_cold(entry.extension, grid)

    def test_a_dust_and_community_stream_derives_every_version(self):
        rng = np.random.default_rng(5)
        base = _contact_graph(rng, 2, 9, 40)
        dust = _absent_pair(base, 18, 58, rng)
        lines = [json.dumps(_release(0, "cc"))]
        for batch, rows in enumerate(
            (
                [["+", *dust], ["+", *_absent_pair(base, 18, 58, rng)]],
                [["+", 0, 9]],  # joins the two communities
                [["-", *dust]],  # splits the dust again
                [["+", 2, 45], ["+", *_absent_pair(base, 0, 9, rng)]],
            )
        ):
            lines.append(json.dumps({"id": f"e{batch}", "edits": rows}))
            lines.append(json.dumps(_release(batch + 1, "sf")))
        session = ReleaseSession()
        records = list(serve_edit_stream(lines, session, base))
        assert not any("error" in record for record in records)
        assert _derived(session) == 4
        rebuild = ReleaseSession(component_promotion=False)
        assert records == list(serve_edit_stream(lines, rebuild, base))
        grid = power_of_two_grid(base.number_of_vertices())
        for entry in session._entries.values():
            _assert_matches_cold(entry.extension, grid)

    def test_untouched_slots_keep_their_memos(self, monkeypatch):
        """An off-grid Δ the parent evaluated costs the derived version
        no LP on its untouched components."""
        rng = np.random.default_rng(9)
        base = _contact_graph(rng, 2, 9, 40)
        grid = power_of_two_grid(base.number_of_vertices())
        parent = extension_for(base)
        parent.values_for_grid(grid)
        parent.value(1.5)
        result = base.apply_edits(inserts=[_absent_pair(base, 18, 58, rng)])
        child = parent.derive(
            result.graph, result.touched_old, result.touched_new, grid, None
        )
        cold = extension_for(result.graph)
        cold.values_for_grid(grid)
        expected = cold.value(1.5)
        # The two communities (roots 0 and 9) are slots 0 and 1.
        communities = [child._component_arrays(i) for i in (0, 1)]
        assert [n for n, _, _ in communities] == [9, 9]
        calls = []
        real = extension_module.solve_component
        monkeypatch.setattr(
            extension_module,
            "solve_component",
            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
        )
        assert child.value(1.5).hex() == expected.hex()
        for n, u, v in communities:
            assert not any(
                args[0] == n
                and np.array_equal(args[1], u)
                and np.array_equal(args[2], v)
                for args in calls
            )

    def test_carried_tables_count_as_hits(self, monkeypatch):
        """A candidate carried over from the parent is a hit even after
        the memo evicted its table."""
        monkeypatch.setattr(session_module, "_COMPONENT_MEMO_SIZE", 1)
        rng = np.random.default_rng(10)
        base = _contact_graph(rng, 2, 9, 40)
        lines = [json.dumps(_release(0, "cc"))]
        for batch in range(3):
            rows = [["+", *_absent_pair(base, 18, 58, rng)]]
            lines.append(json.dumps({"id": f"e{batch}", "edits": rows}))
            lines.append(json.dumps(_release(batch + 1, "cc")))
        session = ReleaseSession()
        list(serve_edit_stream(lines, session, base))
        assert _derived(session) == 3
        assert session.stats.component_misses == 0
        assert session.stats.component_hits == 6

    def test_rebuild_mode_never_derives(self):
        rng = np.random.default_rng(2)
        base = _contact_graph(rng, 1, 8, 30)
        u, v = base.edge_arrays()
        edits = [["+", *_absent_pair(base, 8, 38, rng)], ["-", int(u[0]), int(v[0])]]
        lines = [
            json.dumps(_release(0, "cc")),
            json.dumps({"id": "e", "edits": edits}),
            json.dumps(_release(1, "cc")),
        ]
        rebuild = ReleaseSession(component_promotion=False)
        derived = ReleaseSession()
        assert list(serve_edit_stream(lines, rebuild, base)) == list(
            serve_edit_stream(lines, derived, base)
        )
        assert _derived(rebuild) == 0
        assert _derived(derived) == 1

    def test_direct_queries_keep_the_usual_path(self):
        rng = np.random.default_rng(3)
        base = _contact_graph(rng, 1, 8, 30)
        session = ReleaseSession()
        session.query("cc", epsilon=1.0, graph=base, seed=1)
        edited = base.apply_edits(inserts=[_absent_pair(base, 8, 38, rng)]).graph
        session.query("cc", epsilon=1.0, graph=edited, seed=1)
        assert session.stats.graph_misses == 2
        assert _derived(session) == 0

    def test_a_lineage_that_does_not_fit_is_not_derived(self):
        rng = np.random.default_rng(4)
        base = _contact_graph(rng, 1, 8, 30)
        session = ReleaseSession()
        session.query("cc", epsilon=1.0, graph=base, seed=1)
        result = base.apply_edits(inserts=[_absent_pair(base, 8, 38, rng)])
        labels = base.component_labels()
        inner = int(np.flatnonzero(labels != np.arange(labels.size))[0])
        # Names a vertex that is no component id as the touched one.
        session.record_edit(
            base.fingerprint(), result.graph.fingerprint(), {inner}, {inner}
        )
        warm = session.query("cc", epsilon=1.0, graph=result.graph, seed=2)
        cold = ReleaseSession(component_promotion=False).query(
            "cc", epsilon=1.0, graph=result.graph, seed=2
        )
        assert _derived(session) == 0
        assert warm.value == cold.value


def test_exported_tables_include_batched_tree_values():
    """A tree valued by the certificate step or the LP at a non-integral
    Δ exports its batched values at the integral ones too: they live in
    the per-Δ slot arrays, not in the per-component memo."""
    star = CompactGraph.from_edges(6, [(0, k) for k in range(1, 5)])
    extension = extension_for(star)
    values = extension.values_for_grid([1.5, 3.0, 4.0])
    [(_, table)] = extension.export_component_tables()
    assert table == {1.5: values[0], 3.0: values[1], 4.0: values[2]}
    assert table[3.0] < table[4.0] == 4.0


def _reachable_versions(session: ReleaseSession, n: int) -> int:
    """Whole-graph versions (``n`` vertices) reachable from ``session``
    through object references, not through classes or modules."""
    opaque = (
        type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
        types.MethodType, np.ndarray, str, bytes, int, float,
    )
    seen, stack, found = set(), [session], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, CompactGraph) and obj.number_of_vertices() == n:
            found.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(found)


def test_forty_versions_keep_only_resident_ones_reachable():
    base = _contact_graph(np.random.default_rng(6), 1, 8, 60)
    n = base.number_of_vertices()
    rng = np.random.default_rng(60)
    lines = [json.dumps(_release(0, "cc"))]
    for batch in range(40):
        a, b = sorted((8 + rng.choice(n - 8, 2, replace=False)).tolist())
        lines.append(json.dumps({"id": f"e{batch}", "edits": [["+", a, b]]}))
        lines.append(json.dumps(_release(batch + 1, "cc")))
    session = ReleaseSession(max_graphs=4)
    for record in serve_edit_stream(lines, session, base):
        assert "error" not in record
    assert _derived(session) > 30
    assert _reachable_versions(session, n) <= 5


class TestPromotionBookkeeping:
    """An evicted memo table is promoted again, and neither promotion
    set grows with the number of versions served."""

    @staticmethod
    def _three_communities() -> CompactGraph:
        rng = np.random.default_rng(11)
        edges = [
            (base + i, base + j)
            for base in (0, 12, 24)
            for i in range(12)
            for j in range(i + 1, 12)
            if rng.random() < 0.45
        ]
        return CompactGraph.from_edges(90, edges)

    def test_evicted_tables_are_promoted_again(self, monkeypatch):
        monkeypatch.setattr(session_module, "_COMPONENT_MEMO_SIZE", 2)
        graph = self._three_communities()
        session = ReleaseSession(max_graphs=2)
        session.query("cc", epsilon=1.0, graph=graph, seed=0)
        assert session.stats.component_promotions == 3
        # The memo-only key left with its evicted table.
        assert session._promoted_components == set(session._component_memo)
        for version in range(1, 51):
            # Grow a path in the padding: a tree, never a candidate.
            graph = graph.apply_edits(inserts=[(35 + version, 36 + version)]).graph
            session.query("cc", epsilon=1.0, graph=graph, seed=version)
            assert session._promoted_components <= set(session._component_memo)
            assert len(session._promoted_graphs) <= 2
        # One community misses per version, is recomputed and promoted
        # again, evicting another (before, misses grew while promotions
        # stayed at 3).
        assert session.stats.component_misses == 50
        assert session.stats.component_promotions == 53

    def test_disk_backed_keys_stay_promoted(self, monkeypatch, tmp_path):
        monkeypatch.setattr(session_module, "_COMPONENT_MEMO_SIZE", 2)
        session = ReleaseSession(cache_dir=tmp_path)
        session.query("cc", epsilon=1.0, graph=self._three_communities(), seed=0)
        assert len(session._component_memo) == 2
        assert len(session._promoted_components) == 3


@pytest.mark.parametrize("max_graphs", [1, 3])
def test_serve_batch_counts_derivations(tmp_path, max_graphs):
    """``--max-graphs 1`` keeps no parent resident, so it never derives."""
    rng = np.random.default_rng(8)
    base = _contact_graph(rng, 1, 8, 30)
    graph_path = tmp_path / "base.edges"
    graph_path.write_text(format_edge_list(base))
    stream = tmp_path / "stream.jsonl"
    stream.write_text(
        "\n".join(
            json.dumps(event)
            for event in (
                _release(0, "cc"),
                {"id": "e", "edits": [["+", *_absent_pair(base, 8, 38, rng)]]},
                _release(1, "cc"),
            )
        )
        + "\n"
    )
    telemetry_log = tmp_path / "telemetry.jsonl"
    before = counter_value(telemetry.snapshot(), DERIVED)
    assert (
        main(
            [
                "serve-batch", "--edits", str(stream), "--graph", str(graph_path),
                "--max-graphs", str(max_graphs),
                "--telemetry-log", str(telemetry_log),
                "--output", str(tmp_path / "out.jsonl"),
            ]
        )
        == 0
    )
    events = [json.loads(line) for line in telemetry_log.read_text().splitlines()]
    snapshot = [e for e in events if e.get("event") == "metrics"][-1]["metrics"]
    derived = counter_value(snapshot, DERIVED) - before
    assert derived == (0 if max_graphs == 1 else 1)
