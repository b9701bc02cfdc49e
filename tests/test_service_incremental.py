"""Component-level cache promotion and edit-stream serving.

The serving-correctness contract under test: promoting per-component
extension tables to the content-addressed layer changes *cost only* —
after an edit batch, a warm session recomputes just the touched
components yet releases values bit-identical to a cold full rebuild,
for every shared seed.
"""

import json
import os

import numpy as np
import pytest

import repro.core.extension as extension_module
from repro.__main__ import main
from repro.core.extension import extension_for
from repro.graphs.compact import CompactGraph
from repro.service import ReleaseSession
from repro.service.cache import (
    ExtensionCache,
    component_extension_key,
    extension_key,
)
from repro.service.streaming import parse_edit_event, serve_edit_stream
from repro.storage import atomic_write_json

GRID = [1.0, 2.0, 4.0]
FP = "a" * 64


def _streaming_graph() -> CompactGraph:
    """Three small dense communities plus isolated padding — every
    community is hard enough that its Δ table comes from the LP."""
    rng = np.random.default_rng(11)
    edges = []
    for base in (0, 12, 24):
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.45:
                    edges.append((base + i, base + j))
    return CompactGraph.from_edges(40, edges)


def _release_value(session: ReleaseSession, graph: CompactGraph, seed: int):
    return session.query(
        "cc", epsilon=1.0, graph=graph, rng=np.random.default_rng(seed)
    ).value


# ----------------------------------------------------------------------
# Content addresses
# ----------------------------------------------------------------------
class TestComponentKey:
    def test_disjoint_from_graph_key_space(self):
        assert component_extension_key(FP, GRID) != extension_key(FP, GRID)

    def test_sensitive_to_every_coordinate(self):
        base = component_extension_key(FP, GRID)
        assert component_extension_key("b" * 64, GRID) != base
        assert component_extension_key(FP, [1.0, 2.0]) != base
        assert component_extension_key(FP, GRID, version="0.1") != base


# ----------------------------------------------------------------------
# Persistent component store
# ----------------------------------------------------------------------
class TestExtensionCacheComponents:
    def test_round_trip_is_exact(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        table = {1.0: 0.1, 2.0: 1 / 3, 4.0: 11.0}
        cache.store_component(FP, GRID, table)
        loaded = cache.load_component(FP, GRID)
        assert loaded == table
        assert all(loaded[d] == table[d] for d in table)
        assert cache.stats.component_stores == 1
        assert cache.stats.component_hits == 1

    def test_missing_component_is_a_miss(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        assert cache.load_component(FP, GRID) is None
        assert cache.stats.component_misses == 1

    def test_component_records_live_under_their_own_subroot(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        cache.store_component(FP, GRID, {1.0: 1.0})
        key = cache.component_key(FP, GRID)
        path = cache.component_path_for(key)
        assert os.path.exists(path)
        assert os.path.dirname(os.path.dirname(path)) == os.path.join(
            str(tmp_path), "components"
        )
        # Component records are invisible to the whole-graph index.
        assert len(cache) == 0

    def test_torn_record_is_deleted_and_missed(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        cache.store_component(FP, GRID, {1.0: 1.0})
        path = cache.component_path_for(cache.component_key(FP, GRID))
        with open(path, "w") as fh:
            fh.write('{"fingerprint": "a')  # torn mid-write
        assert cache.load_component(FP, GRID) is None
        assert not os.path.exists(path)

    @pytest.mark.parametrize(
        "tamper",
        [
            {"fingerprint": "b" * 64},
            {"table": {"1.0": 1.0}},  # object, not pair list
            {"table": [[1.0]]},  # malformed row
            {"table": [[0.0, 1.0]]},  # delta must be positive
            {"table": [[1.0, float("inf")]]},  # non-finite value
            {"version": "0.0.0"},
        ],
    )
    def test_tampered_record_is_invalidated(self, tmp_path, tamper):
        cache = ExtensionCache(tmp_path)
        cache.store_component(FP, GRID, {1.0: 1.0})
        path = cache.component_path_for(cache.component_key(FP, GRID))
        record = json.load(open(path))
        record.update(tamper)
        atomic_write_json(path, record)
        assert cache.load_component(FP, GRID) is None
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Session-level promotion
# ----------------------------------------------------------------------
class TestSessionPromotion:
    def test_promotion_writes_component_records(self, tmp_path):
        session = ReleaseSession(cache_dir=tmp_path)
        _release_value(session, _streaming_graph(), seed=1)
        assert session.stats.component_promotions > 0
        assert session.cache.stats.component_stores > 0
        assert os.path.isdir(tmp_path / "components")

    def test_warm_restart_hits_and_matches_cold(self, tmp_path):
        graph = _streaming_graph()
        donor = ReleaseSession(cache_dir=tmp_path)
        _release_value(donor, graph, seed=1)

        edited = graph.apply_edits(inserts=[(0, 12)]).graph

        warm = ReleaseSession(cache_dir=tmp_path)
        cold = ReleaseSession(component_promotion=False)
        for seed in (1, 2, 3):
            assert _release_value(warm, edited, seed) == _release_value(
                cold, edited, seed
            )
        assert warm.stats.component_hits > 0

    def test_memo_promotion_without_disk_cache(self, tmp_path):
        graph = _streaming_graph()
        session = ReleaseSession(max_graphs=2)
        _release_value(session, graph, seed=1)
        edited = graph.apply_edits(inserts=[(39, 0)]).graph
        _release_value(session, edited, seed=1)
        assert session.stats.component_promotions > 0
        assert session.stats.component_hits > 0

    def test_promotion_disabled_does_nothing(self, tmp_path):
        graph = _streaming_graph()
        session = ReleaseSession(
            cache_dir=tmp_path, component_promotion=False
        )
        _release_value(session, graph, seed=1)
        _release_value(
            session, graph.apply_edits(inserts=[(0, 12)]).graph, seed=1
        )
        assert session.stats.component_promotions == 0
        assert session.stats.component_hits == 0
        assert session.stats.component_misses == 0

    def test_only_touched_components_miss(self, tmp_path):
        graph = _streaming_graph()
        donor = ReleaseSession(cache_dir=tmp_path)
        _release_value(donor, graph, seed=1)

        edited = graph.apply_edits(inserts=[(0, 1)])
        warm = ReleaseSession(cache_dir=tmp_path)
        _release_value(warm, edited.graph, seed=1)
        # Unique fingerprints only: the touched community plus at most
        # the shared isolated-singleton fingerprint.
        assert warm.stats.component_misses <= len(edited.touched_new) + 1

    def test_stats_serialize_component_counters(self, tmp_path):
        session = ReleaseSession(cache_dir=tmp_path)
        _release_value(session, _streaming_graph(), seed=1)
        stats = session.stats.to_dict()
        for field in (
            "component_hits",
            "component_misses",
            "component_promotions",
        ):
            assert field in stats


# ----------------------------------------------------------------------
# Promotion scope: only components the repair/LP path could value
# ----------------------------------------------------------------------
_COMMUNITIES = (range(0, 12), range(12, 24))


def _dust_and_communities() -> CompactGraph:
    """Two dense 12-vertex communities, dust trees (stars, paths, single
    edges), a triangle, a 5-cycle and isolated vertices: only the
    communities and the two cycles are non-trees."""
    rng = np.random.default_rng(23)
    edges = [
        (c[i], c[j])
        for c in _COMMUNITIES
        for i in range(12)
        for j in range(i + 1, 12)
        if rng.random() < 0.5
    ]
    edges += [(24, 25), (24, 26), (24, 27)]  # star
    edges += [(28, 29), (29, 30), (30, 31)]  # path
    edges += [(32, 33), (32, 34), (35, 36)]  # star, single edge
    edges += [(37, 38), (38, 39), (40, 41)]  # path, single edge
    edges += [(42, k) for k in range(43, 47)]  # star
    edges += [(47, 48), (48, 49), (47, 49)]  # triangle
    edges += [(50, 51), (51, 52), (52, 53), (53, 54), (50, 54)]  # 5-cycle
    return CompactGraph.from_edges(58, edges)


def _community_edge(graph: CompactGraph, community) -> tuple[int, int]:
    u, v = graph.edge_arrays()
    inside = np.isin(u, list(community)) & np.isin(v, list(community))
    k = int(np.flatnonzero(inside)[0])
    return int(u[k]), int(v[k])


def _mixed_stream(graph: CompactGraph, options: dict) -> list[str]:
    """Releases across dust-only, community and cycle-closing edits."""
    def release(i, name, epsilon):
        return {"id": f"q{i}", "estimator": name, "epsilon": epsilon,
                "seed": 40 + i, "options": options}

    events = [
        release(0, "cc", 1.0),
        release(1, "sf", 0.5),
        {"id": "e1", "edits": [["+", 27, 28], ["-", 40, 41]]},
        release(2, "cc", 1.0),
        release(3, "sf", 2.0),
        {"id": "e2", "edits": [["+", 5, 24]]},
        release(4, "sf", 1.0),
        {"id": "e3", "edits": [["+", 37, 39]]},
        release(5, "cc", 0.5),
        {"id": "e4",
         "edits": [["-", *_community_edge(graph, _COMMUNITIES[1])]]},
        release(6, "cc", 1.0),
    ]
    return [json.dumps(e) for e in events]


class TestPromotionCandidates:
    """``candidate_fingerprints(grid)`` names exactly the components a
    cold ``values_for_grid(grid)`` hands to ``_component_value``."""

    @pytest.mark.parametrize(
        "options",
        [{}, {"batched_certificates": False}, {"use_fast_paths": False}],
    )
    @pytest.mark.parametrize(
        "grid",
        [[1, 2, 4, 8], [2, 4], [0.5, 1, 2], [1.5, 3], [3.0]],
    )
    def test_candidates_are_the_components_that_reach_repair_or_lp(
        self, options, grid
    ):
        graph = _dust_and_communities().apply_edits(
            inserts=[(5, 24), (30, 37)]
        ).graph
        extension = extension_for(graph, **options)
        candidates = extension.candidate_fingerprints(grid)
        reached = set()
        real = extension._component_value

        def spy(i, delta):
            reached.add(i)
            return real(i, delta)

        extension._component_value = spy
        extension.values_for_grid(grid)
        assert reached == set(candidates)
        assert {fp for fp, _ in extension.export_component_tables()} == set(
            candidates.values()
        )

    def test_default_grid_candidates_are_the_non_trees(self):
        graph = _dust_and_communities()
        extension = extension_for(graph)
        candidates = extension.candidate_fingerprints([1, 2, 4, 8, 16, 32])
        fingerprints = graph.component_fingerprints()
        non_trees = {
            fingerprints[int(min(c))]
            for c in (*_COMMUNITIES, range(47, 50), range(50, 55))
        }
        assert set(candidates.values()) == non_trees


class TestPromotionScope:
    def test_one_release_promotes_exactly_the_communities(self):
        graph = _dust_and_communities().apply_edits(
            deletes=[(47, 48), (50, 51)]  # open both cycles into paths
        ).graph
        session = ReleaseSession()
        _release_value(session, graph, seed=1)
        assert session.stats.component_promotions == 2

    def test_dust_edit_fingerprints_only_candidates(self, monkeypatch):
        graph = _dust_and_communities()
        session = ReleaseSession()
        _release_value(session, graph, seed=1)
        hashed = []
        real = extension_module.component_fingerprint

        def spy(n, u, v):
            hashed.append((int(n), int(u.size)))
            return real(n, u, v)

        monkeypatch.setattr(extension_module, "component_fingerprint", spy)
        edited = graph.apply_edits(
            inserts=[(27, 28)], deletes=[(40, 41)]
        ).graph
        warm_value = _release_value(session, edited, seed=2)
        # The two communities and the two cycles, nothing else: every
        # hashed component has at least as many edges as vertices.
        assert len(hashed) == 4
        assert all(m >= n for n, m in hashed)
        assert session.stats.component_hits == 4
        assert session.stats.component_misses == 0
        cold = ReleaseSession(component_promotion=False)
        assert warm_value == _release_value(cold, edited, seed=2)


class TestPromotionDifferential:
    """A promoting session and a ``component_promotion=False`` session
    serve the same edit stream to identical records."""

    @staticmethod
    def _serve_both(lines, base, promoting):
        cold = ReleaseSession(component_promotion=False)
        warm_records = list(serve_edit_stream(lines, promoting, base))
        assert warm_records == list(serve_edit_stream(lines, cold, base))
        assert not any("error" in record for record in warm_records)
        assert promoting.stats.component_hits > 0

    def test_memo_only(self):
        base = _dust_and_communities()
        self._serve_both(_mixed_stream(base, {}), base, ReleaseSession())

    def test_cache_dir_and_fresh_session_warm_start(self, tmp_path):
        base = _dust_and_communities()
        self._serve_both(
            _mixed_stream(base, {}), base, ReleaseSession(cache_dir=tmp_path)
        )
        # A new process on the same directory, on versions it never saw.
        restart = ReleaseSession(cache_dir=tmp_path)
        lines = [
            json.dumps({"id": "e9", "edits": [["+", 31, 32]]}),
            json.dumps({"id": "q9", "estimator": "cc", "epsilon": 1.0,
                        "seed": 9}),
        ]
        self._serve_both(lines, base, restart)
        assert restart.stats.disk_warm_starts == 0
        assert restart.cache.stats.component_hits > 0

    def test_non_default_delta_max_grid(self):
        options = {"delta_max": 6}
        base = _dust_and_communities()
        promoting = ReleaseSession()
        self._serve_both(_mixed_stream(base, options), base, promoting)


# ----------------------------------------------------------------------
# Edit-stream serving
# ----------------------------------------------------------------------
class TestParseEditEvent:
    def test_splits_ops(self):
        inserts, deletes = parse_edit_event(
            [["+", 0, 1], ["-", 2, 3], ["+", 4, 5]]
        )
        assert inserts == [(0, 1), (4, 5)]
        assert deletes == [(2, 3)]

    @pytest.mark.parametrize(
        "edits",
        [
            "not-a-list",
            [["+", 0]],
            [["+", 0, 1, 2]],
            [["*", 0, 1]],
            [["+", 0, "1"]],
            [["+", True, 1]],
            [None],
        ],
    )
    def test_malformed_events_rejected(self, edits):
        with pytest.raises(ValueError):
            parse_edit_event(edits)


def _stream_lines() -> list[str]:
    events = [
        {"id": "q0", "estimator": "cc", "epsilon": 1.0, "seed": 7},
        {"id": "e1", "edits": [["+", 0, 12], ["-", 0, 1]]},
        {"id": "q1", "estimator": "cc", "epsilon": 1.0, "seed": 8},
        {"id": "bad", "edits": [["+", 5, 5]]},
        {"id": "q2", "estimator": "sf", "epsilon": 0.5, "seed": 9},
        {"id": "e2", "edits": [["+", 39, 0]]},
        {"id": "q3", "estimator": "cc", "epsilon": 1.0},
    ]
    return ["# comment", ""] + [json.dumps(e) for e in events]


class TestServeEditStream:
    def test_acks_report_what_changed(self, tmp_path):
        graph = _streaming_graph()
        session = ReleaseSession(cache_dir=tmp_path)
        records = list(serve_edit_stream(_stream_lines(), session, graph))
        by_id = {r["id"]: r for r in records}

        expected = graph.apply_edits(inserts=[(0, 12)], deletes=[(0, 1)])
        ack = by_id["e1"]
        assert ack["applied"] == {"inserted": 1, "deleted": 1}
        assert ack["touched_components"]["old"] == sorted(
            expected.touched_old
        )
        assert ack["fingerprint"] == expected.graph.fingerprint()
        assert ack["vertices"] == 40

    def test_bad_edit_is_isolated_and_version_preserved(self, tmp_path):
        graph = _streaming_graph()
        session = ReleaseSession(cache_dir=tmp_path)
        records = list(serve_edit_stream(_stream_lines(), session, graph))
        by_id = {r["id"]: r for r in records}
        assert by_id["bad"]["error_type"] == "ValueError"
        # The failed event left the version untouched: e2 applies to the
        # e1 graph, not to some partially-edited state.
        after_e1 = graph.apply_edits(
            inserts=[(0, 12)], deletes=[(0, 1)]
        ).graph
        after_e2 = after_e1.apply_edits(inserts=[(39, 0)]).graph
        assert by_id["e2"]["fingerprint"] == after_e2.fingerprint()

    def test_incremental_equals_rebuild_records(self, tmp_path):
        graph = _streaming_graph()
        incremental = ReleaseSession(cache_dir=tmp_path / "cache")
        rebuild = ReleaseSession(component_promotion=False)
        a = list(serve_edit_stream(_stream_lines(), incremental, graph))
        b = list(serve_edit_stream(_stream_lines(), rebuild, graph))
        assert a == b
        assert incremental.stats.component_hits > 0


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
class TestServeBatchEditsCLI:
    @pytest.fixture
    def base_graph_file(self, tmp_path):
        graph = _streaming_graph()
        path = tmp_path / "base.edges"
        u, v = graph.edge_arrays()
        path.write_text(
            "".join(
                [f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())]
                + [f"{i}\n" for i in range(36, 40)]
            )
        )
        return str(path)

    @pytest.fixture
    def edits_file(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(_stream_lines()) + "\n")
        return str(path)

    def test_incremental_bytes_equal_rebuild(
        self, tmp_path, base_graph_file, edits_file
    ):
        inc, reb = tmp_path / "inc.jsonl", tmp_path / "reb.jsonl"
        assert (
            main(
                [
                    "serve-batch",
                    "--edits", edits_file,
                    "--graph", base_graph_file,
                    "--cache-dir", str(tmp_path / "cache"),
                    "--output", str(inc),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "serve-batch",
                    "--edits", edits_file,
                    "--edits-mode", "rebuild",
                    "--graph", base_graph_file,
                    "--output", str(reb),
                ]
            )
            == 0
        )
        assert inc.read_bytes() == reb.read_bytes()
        records = [
            json.loads(line) for line in inc.read_text().splitlines()
        ]
        assert sum("applied" in r for r in records) == 2
        assert sum("error" in r for r in records) == 1

    def test_edits_require_default_graph(self, edits_file, tmp_path):
        assert (
            main(
                [
                    "serve-batch",
                    "--edits", edits_file,
                    "--output", str(tmp_path / "out.jsonl"),
                ]
            )
            == 1
        )

    def test_edits_incompatible_with_workers(
        self, edits_file, base_graph_file, tmp_path
    ):
        assert (
            main(
                [
                    "serve-batch",
                    "--edits", edits_file,
                    "--graph", base_graph_file,
                    "--workers", "2",
                    "--output", str(tmp_path / "out.jsonl"),
                ]
            )
            == 1
        )
