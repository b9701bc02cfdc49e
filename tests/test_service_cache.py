"""Tests for the persistent extension cache (``repro.service.cache``).

Load-bearing properties:

* key correctness — equal fingerprints with different grids never
  share a disk entry, and version changes invalidate implicitly;
* robustness — corrupted/truncated/tampered cache files are deleted
  and treated as misses, never crashes;
* warm restart — a *new* session pointed at a populated cache directory
  answers queries bit-identically to the cold path without ever running
  the component split or LP work;
* budget/LRU audit — eviction and re-admission never reset session
  accounting or bypass the shared accountant.
"""

import contextlib
import json
import os

import numpy as np
import pytest

import repro.core.extension as extension_module
import repro.service.cache as cache_module
from repro import telemetry
from repro.estimators import create
from repro.graphs.generators import (
    path_graph_compact,
    planted_components_compact,
)
from repro.mechanisms.accountant import BudgetExceededError
from repro.mechanisms.gem import power_of_two_grid
from repro.service import ExtensionCache, ReleaseSession
GRID = [1.0, 2.0, 4.0]

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def compact():
    return planted_components_compact([12, 9, 6], 0.4, np.random.default_rng(5))


class TestCacheKeys:
    def test_same_coordinates_same_key(self):
        assert ExtensionCache("/tmp/x").key("fp", GRID) == ExtensionCache(
            "/tmp/y"
        ).key("fp", GRID)

    def test_grid_separates_entries(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        cache.store("fp", [1.0, 2.0], [0.5, 1.5], 2)
        assert cache.load("fp", [1.0, 2.0, 4.0]) is None
        assert cache.load("fp", [1.0, 2.0])["values"] == [0.5, 1.5]

    def test_fingerprint_separates_entries(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        cache.store("fp-a", GRID, [1.0, 2.0, 3.0], 3)
        assert cache.load("fp-b", GRID) is None

    def test_version_separates_entries(self, tmp_path):
        old = ExtensionCache(tmp_path, version="0.0.1")
        new = ExtensionCache(tmp_path, version="0.0.2")
        old.store("fp", GRID, [1.0, 2.0, 3.0], 3)
        assert new.load("fp", GRID) is None
        assert old.load("fp", GRID) is not None

    def test_grid_int_float_equivalent(self, tmp_path):
        """The 2^j grids arrive as ints from power_of_two_grid and as
        floats from JSON round-trips: one entry either way."""
        cache = ExtensionCache(tmp_path)
        cache.store("fp", [1, 2, 4], [0.0, 1.0, 2.0], 3)
        assert cache.load("fp", [1.0, 2.0, 4.0])["values"] == [
            0.0, 1.0, 2.0,
        ]


class TestCacheStatsView:
    def test_each_cache_counts_only_its_own_events(self, tmp_path):
        def process(**labels):
            return telemetry.counter_value(
                telemetry.snapshot(), "repro_extension_cache_lookups_total",
                **labels,
            )

        before = (process(result="hit"), process(result="miss"))
        first = ExtensionCache(tmp_path / "first")
        second = ExtensionCache(tmp_path / "second")
        first.store("fp", GRID, [1.0, 2.0, 3.0], 3)
        assert first.load("fp", GRID) is not None
        assert first.load("other", GRID) is None
        assert second.load("fp", GRID) is None
        assert (first.stats.hits, first.stats.misses,
                first.stats.stores) == (1, 1, 1)
        assert (second.stats.hits, second.stats.misses,
                second.stats.stores) == (0, 1, 0)
        after = (process(result="hit"), process(result="miss"))
        assert [b - a for a, b in zip(before, after)] == [1.0, 2.0]


class TestCacheRobustness:
    def _store_one(self, cache):
        return cache.store("fp", GRID, [1.0, 2.0, 3.0], 3)

    def test_truncated_file_is_deleted_miss(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        key = self._store_one(cache)
        path = cache.path_for(key)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(10)
        assert cache.load("fp", GRID) is None
        assert not os.path.exists(path)
        assert cache.stats.invalidations == 1
        # The slot rebuilds cleanly.
        self._store_one(cache)
        assert cache.load("fp", GRID)["values"] == [1.0, 2.0, 3.0]

    def test_garbage_bytes_are_deleted_miss(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        key = self._store_one(cache)
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"\x00\xff\x00garbage")
        assert cache.load("fp", GRID) is None
        assert not os.path.exists(cache.path_for(key))

    def test_tampered_record_is_deleted_miss(self, tmp_path):
        """Valid JSON whose coordinates do not match the key is foreign
        content: dropped, not trusted."""
        cache = ExtensionCache(tmp_path)
        key = self._store_one(cache)
        path = cache.path_for(key)
        record = json.load(open(path))
        record["fingerprint"] = "someone-else"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert cache.load("fp", GRID) is None
        assert not os.path.exists(path)

    def test_non_finite_values_rejected(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        key = self._store_one(cache)
        path = cache.path_for(key)
        record = json.load(open(path))
        record["values"] = [1.0, 2.0, float("nan")]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert cache.load("fp", GRID) is None

    def test_wrong_value_count_rejected(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        with pytest.raises(ValueError, match="3-point grid"):
            cache.store("fp", GRID, [1.0], 3)

    def test_atomic_layout_no_tmp_left(self, tmp_path):
        cache = ExtensionCache(tmp_path)
        self._store_one(cache)
        leftovers = [
            name
            for _, _, files in os.walk(cache.root)
            for name in files
            if not name.endswith(".json")
        ]
        assert leftovers == []


class TestSessionWarmRestart:
    def test_restart_is_bit_identical_and_lp_free(self, tmp_path, compact):
        """The acceptance-critical property at test scale: a cold
        process with a warm --cache-dir answers without LP work, bit-
        identically to the cache-less path."""
        warmup = ReleaseSession(cache_dir=tmp_path / "cache")
        warmup.query("cc", epsilon=1.0, graph=compact, seed=0)
        assert len(warmup.cache) == 1

        restarted = ReleaseSession(cache_dir=tmp_path / "cache")
        for name, epsilon, seed in [
            ("cc", 1.0, 0), ("sf", 0.5, 1), ("cc", 0.25, 2),
        ]:
            cold = create(name, epsilon=epsilon, graph=compact).release(
                compact, np.random.default_rng(seed)
            )
            warm = restarted.query(
                name, epsilon=epsilon, graph=compact, seed=seed
            )
            assert warm.value == cold.value, (name, epsilon)
        assert restarted.stats.disk_warm_starts == 1
        assert restarted.cache.stats.hits == 1

    def test_warm_query_never_prepares(
        self, tmp_path, compact, monkeypatch
    ):
        """A fully disk-warmed query must never reach ``_prepare`` (the
        gateway to the component split and every LP evaluation)."""
        warmup = ReleaseSession(cache_dir=tmp_path)
        warmup.query("sf", epsilon=1.0, graph=compact, seed=0)
        cold = create("sf", epsilon=1.0, graph=compact).release(
            compact, np.random.default_rng(3)
        )

        def boom(self):
            raise AssertionError("extension _prepare ran on a warm path")

        monkeypatch.setattr(
            extension_module.CompactSpanningForestExtension,
            "_prepare", boom,
        )
        restarted = ReleaseSession(cache_dir=tmp_path)
        release = restarted.query("sf", epsilon=1.0, graph=compact, seed=3)
        assert release.value == cold.value

    def test_mismatched_true_fsf_invalidates(self, tmp_path, compact):
        """A record whose exact f_sf disagrees with the graph is damaged:
        dropped and served cold."""
        session = ReleaseSession(cache_dir=tmp_path)
        cache = session.cache
        grid = power_of_two_grid(compact.number_of_vertices())
        cache.store(
            compact.fingerprint(), grid,
            [0.0] * len(grid), 10**6,
        )
        release = session.query("cc", epsilon=1.0, graph=compact, seed=4)
        cold = create("cc", epsilon=1.0, graph=compact).release(
            compact, np.random.default_rng(4)
        )
        assert release.value == cold.value
        assert cache.stats.invalidations == 1
        assert session.stats.disk_warm_starts == 0

    def test_eviction_spills_then_readmission_warm_starts(self, tmp_path):
        session = ReleaseSession(max_graphs=1, cache_dir=tmp_path)
        a = planted_components_compact([10, 8], 0.5, np.random.default_rng(1))
        b = planted_components_compact([9, 7], 0.5, np.random.default_rng(2))
        session.query("cc", epsilon=1.0, graph=a, seed=0)
        session.query("cc", epsilon=1.0, graph=b, seed=1)  # evicts a
        assert session.stats.evictions == 1
        assert len(session.cache) == 2  # a was spilled at eviction
        release = session.query("cc", epsilon=1.0, graph=a, seed=2)
        assert session.stats.disk_warm_starts == 1
        cold = create("cc", epsilon=1.0, graph=a).release(
            a, np.random.default_rng(2)
        )
        assert release.value == cold.value

    def test_custom_delta_max_gets_its_own_entry(self, tmp_path, compact):
        session = ReleaseSession(cache_dir=tmp_path)
        session.query("sf", epsilon=1.0, graph=compact, seed=0)
        session.query(
            "sf", epsilon=1.0, graph=compact, seed=1, delta_max=4
        )
        n_grid = power_of_two_grid(compact.number_of_vertices())
        fp = compact.fingerprint()
        assert session.cache.load(fp, n_grid) is not None
        assert session.cache.load(fp, power_of_two_grid(4)) is not None
        assert len(session.cache) == 2


class TestBudgetedEvictionAudit:
    """Satellite: LRU eviction + re-admission must not corrupt the
    session-wide accounting or let a fresh ``_GraphEntry`` bypass the
    shared accountant."""

    def test_evict_and_requery_under_tight_budget(self):
        session = ReleaseSession(max_graphs=1, total_epsilon=1.0)
        a = path_graph_compact(8)
        b = path_graph_compact(9)
        session.query("edge_dp", epsilon=0.4, graph=a, seed=0)
        session.query("edge_dp", epsilon=0.4, graph=b, seed=1)  # evicts a
        assert session.stats.evictions == 1
        # Re-admitting the evicted graph makes a fresh _GraphEntry; the
        # shared accountant must still see the 0.8 already spent.
        with pytest.raises(BudgetExceededError):
            session.query("edge_dp", epsilon=0.4, graph=a, seed=2)
        assert session.accountant.spent() == pytest.approx(0.8)
        # The failed query registered the graph (one miss) but spent
        # nothing and reset nothing.
        assert session.stats.epsilon_spent == pytest.approx(0.8)
        assert session.stats.graph_misses == 3
        assert session.stats.queries == 2
        # A query that still fits the remaining budget is served.
        session.query("edge_dp", epsilon=0.2, graph=a, seed=3)
        assert session.accountant.spent() == pytest.approx(1.0)
        assert session.stats.epsilon_spent == pytest.approx(1.0)

    def test_epsilon_spent_tracked_without_accountant(self):
        """Audit fix: the epsilon_spent counter reflects private spend
        even on unbudgeted sessions (it used to stay at zero)."""
        session = ReleaseSession()
        g = path_graph_compact(6)
        session.query("edge_dp", epsilon=0.5, graph=g, seed=0)
        session.query("edge_dp", epsilon=0.25, graph=g, seed=1)
        session.query("non_private", graph=g, seed=2)  # spends nothing
        assert session.stats.epsilon_spent == pytest.approx(0.75)


class TestSweepWarmStart:
    def _spec(self):
        from repro.experiments.config import GraphGrid, SweepSpec

        return SweepSpec(
            name="cache-warm",
            graphs=(GraphGrid(family="er", sizes=(40,)),),
            epsilons=(0.5, 1.0),
            mechanisms=("private_cc",),
            n_trials=2,
        )

    def test_repeat_sweep_skips_extension_rebuilds(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import runner as runner_module
        from repro.experiments.runner import run_sweep
        from repro.experiments.store import ResultStore

        runner_module._session = None
        cache_dir = str(tmp_path / "ext-cache")
        first = run_sweep(
            self._spec(), ResultStore(tmp_path / "store-a"),
            extension_cache_dir=cache_dir,
        )
        assert first.complete

        def boom(self):
            raise AssertionError("extension _prepare ran on a warm sweep")

        monkeypatch.setattr(
            extension_module.CompactSpanningForestExtension,
            "_prepare", boom,
        )
        runner_module._session = None
        second = run_sweep(
            self._spec(), ResultStore(tmp_path / "store-b"),
            extension_cache_dir=cache_dir,
        )
        assert second.complete
        assert [r.record["errors"] for r in first.results] == [
            r.record["errors"] for r in second.results
        ]


class TestReadThenPublishRace:
    """A writer publishes a record between a reader's open and its
    verdict on what it read.  The reader may miss, but it must never
    delete the record that was just published.

    The interleaving is forced by wrapping the cache's read so that a
    second ``ExtensionCache`` stores the same key right after the read.
    """

    FP = "feedface" * 8

    @staticmethod
    def _publish_after_read(monkeypatch, publish):
        real = cache_module.open_json_record

        @contextlib.contextmanager
        def racing(path):
            with real(path) as found:
                publish()
                yield found

        monkeypatch.setattr(cache_module, "open_json_record", racing)

    def _coordinates(self, kind, reader, writer):
        """(path, publish, load, expected) for one record kind."""
        if kind == "table":
            return (
                reader.path_for(reader.key(self.FP, GRID)),
                lambda: writer.store(self.FP, GRID, [1.0] * len(GRID), 3),
                lambda: reader.load(self.FP, GRID),
                lambda record: record["values"] == [1.0] * len(GRID),
            )
        return (
            reader.component_path_for(reader.component_key(self.FP, GRID)),
            lambda: writer.store_component(self.FP, GRID, {1.0: 0.5}),
            lambda: reader.load_component(self.FP, GRID),
            lambda table: table == {1.0: 0.5},
        )

    @pytest.mark.parametrize("kind", ["table", "component"])
    @pytest.mark.parametrize("before", ["absent", "torn"])
    def test_published_record_survives_the_reader(
        self, tmp_path, monkeypatch, kind, before
    ):
        reader = ExtensionCache(tmp_path)
        writer = ExtensionCache(tmp_path)
        path, publish, load, expected = self._coordinates(
            kind, reader, writer
        )
        if before == "torn":
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write('{"fingerprint": "fe')
        self._publish_after_read(monkeypatch, publish)
        assert load() is None  # the reader saw the state before publish
        assert reader.stats.invalidations == 0
        assert os.path.exists(path)
        monkeypatch.undo()
        assert expected(load())

    @pytest.mark.parametrize("kind", ["table", "component"])
    def test_torn_record_without_a_writer_is_still_dropped(
        self, tmp_path, kind
    ):
        reader = ExtensionCache(tmp_path)
        path, _, load, _ = self._coordinates(kind, reader, reader)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"fingerprint": "fe')
        assert load() is None
        assert reader.stats.invalidations == 1
        assert not os.path.exists(path)


class TestTwoProcessStoreRace:
    """Satellite: concurrent writers on the SAME content-addressed key
    must leave exactly one valid file and never expose a torn read.

    Safety comes from ``atomic_write_json`` (tmp + fsync + rename):
    whichever writer lands last wins wholesale; a reader sees the old
    table or the new table, never a mixture or a fragment.
    """

    FP = "deadbeef" * 8

    def _writer_script(self, root, writer_id, iterations):
        return (
            "import sys\n"
            f"sys.path.insert(0, {_SRC!r})\n"
            "from repro.service import ExtensionCache\n"
            f"cache = ExtensionCache({root!r})\n"
            f"grid = {GRID!r}\n"
            f"for _ in range({iterations}):\n"
            f"    cache.store({self.FP!r}, grid,"
            f" [float({writer_id})] * len(grid), 3)\n"
            "print('done')\n"
        )

    def test_same_key_writer_race_one_valid_file_no_torn_reads(
        self, tmp_path
    ):
        import subprocess
        import sys as sys_module

        root = str(tmp_path / "cache")
        iterations = 150
        writers = [
            subprocess.Popen(
                [sys_module.executable, "-c",
                 self._writer_script(root, writer_id, iterations)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for writer_id in (0, 1)
        ]
        reader = ExtensionCache(root)
        allowed = ([0.0] * len(GRID), [1.0] * len(GRID))
        seen_table = False
        try:
            while any(w.poll() is None for w in writers):
                record = reader.load(self.FP, GRID)
                if record is None:
                    # Only legal before the first table ever lands; a
                    # None *after* that would mean a reader-visible
                    # torn/invalid file (load deletes those).
                    assert not seen_table, (
                        "cache entry vanished mid-race: torn read"
                    )
                    continue
                seen_table = True
                assert tuple(record["values"]) in {
                    tuple(v) for v in allowed
                }, f"mixed-writer table observed: {record['values']}"
        finally:
            outs = [w.communicate(timeout=120) for w in writers]
        for w, (out, err) in zip(writers, outs):
            assert w.returncode == 0, err.decode()
            assert out.decode().strip() == "done"
        # No reader-visible invalidation happened during the race.
        assert reader.stats.invalidations == 0
        # Exactly one file under the cache root (both writers share the
        # content address), and it is one writer's complete table.
        files = [
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names
        ]
        assert len(files) == 1
        final = reader.load(self.FP, GRID)
        assert tuple(final["values"]) in {tuple(v) for v in allowed}
        assert final["true_fsf"] == 3
        # (No "reader overlapped the writers" liveness assert: under a
        # loaded machine the writers can finish before the reader's
        # first poll, and overlap is opportunistic by construction.)
