"""CompactGraph.apply_edits: batch CSR edits, touched components, and
the fingerprint-freshness guarantee.

The load-bearing invariants pinned here:

* an edited graph is bit-identical (CSR arrays, labels, fingerprint,
  component fingerprints) to the same edge set built from scratch —
  checked exhaustively by hypothesis over random edit-batch sequences;
* components absent from ``touched_old`` keep their exact component
  fingerprint across versions (the contract the component-level
  extension cache reuses tables under);
* ``apply_edits`` can never return a stale memoized fingerprint, even
  on a graph whose memo was populated and pickled (the regression from
  the PR-8 audit).
"""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.compact import CompactGraph, component_fingerprint
from repro.graphs.generators import (
    erdos_renyi_compact,
    planted_components_compact,
)


def _assert_bit_identical(a: CompactGraph, b: CompactGraph) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    # The spliced memos equal a scratch build's, in value and dtype.
    for mine, theirs in zip(
        (a.component_labels(), *a.edge_arrays()),
        (b.component_labels(), *b.edge_arrays()),
    ):
        assert np.array_equal(mine, theirs)
        assert mine.dtype == theirs.dtype
    assert a.labels() == b.labels()
    assert a.fingerprint() == b.fingerprint()
    assert a.component_fingerprints() == b.component_fingerprints()


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_insert_endpoint_out_of_range(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError, match=r"insert endpoints"):
            g.apply_edits(inserts=[(0, 4)])

    def test_delete_negative_endpoint(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError, match=r"delete endpoints"):
            g.apply_edits(deletes=[(-1, 2)])

    def test_self_loop_rejected(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError, match="self-loops"):
            g.apply_edits(inserts=[(2, 2)])

    def test_edge_in_both_lists_rejected(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        # Orientation must not matter: (2, 3) vs (3, 2) is the same edge.
        with pytest.raises(ValueError, match="both"):
            g.apply_edits(inserts=[(2, 3)], deletes=[(3, 2)])

    def test_malformed_pairs_rejected(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            g.apply_edits(inserts=[(0, 1, 2)])

    def test_failed_edit_leaves_graph_usable(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            g.apply_edits(inserts=[(0, 9)])
        assert g.number_of_edges() == 1
        assert g.apply_edits(inserts=[(2, 3)]).inserted == 1


# ----------------------------------------------------------------------
# Edit semantics
# ----------------------------------------------------------------------
class TestSemantics:
    def test_insert_and_delete_counts(self):
        g = CompactGraph.from_edges(5, [(0, 1), (1, 2)])
        result = g.apply_edits(inserts=[(3, 4)], deletes=[(1, 2)])
        assert result.inserted == 1
        assert result.deleted == 1
        assert result.graph.number_of_edges() == 2
        u, v = result.graph.edge_arrays()
        assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (3, 4)]

    def test_noop_batch_returns_self(self):
        g = CompactGraph.from_edges(5, [(0, 1)])
        result = g.apply_edits(inserts=[(0, 1)], deletes=[(2, 3)])
        assert result.graph is g
        assert result.inserted == 0
        assert result.deleted == 0
        assert result.touched_old == frozenset()
        assert result.touched_new == frozenset()

    def test_duplicates_and_orientation_collapse(self):
        g = CompactGraph.from_edges(4, [])
        result = g.apply_edits(inserts=[(0, 1), (1, 0), (0, 1)])
        assert result.inserted == 1
        assert result.graph.number_of_edges() == 1

    def test_input_graph_is_never_mutated(self):
        g = CompactGraph.from_edges(4, [(0, 1), (2, 3)])
        before = (g.indptr.copy(), g.indices.copy(), g.fingerprint())
        g.apply_edits(inserts=[(1, 2)], deletes=[(0, 1)])
        assert np.array_equal(g.indptr, before[0])
        assert np.array_equal(g.indices, before[1])
        assert g.fingerprint() == before[2]

    def test_vertex_set_is_fixed(self):
        g = CompactGraph.from_edges(6, [(0, 1)])
        result = g.apply_edits(deletes=[(0, 1)])
        assert result.graph.number_of_vertices() == 6
        assert result.graph.number_of_edges() == 0

    def test_labels_ride_through(self):
        labels = ["a", "b", "c", "d"]
        g = CompactGraph.from_edges(4, [(0, 1)], labels=labels)
        edited = g.apply_edits(inserts=[(2, 3)]).graph
        assert edited.labels() == labels
        assert edited.label_of(3) == "d"

    def test_merge_touches_both_old_components(self):
        g = CompactGraph.from_edges(5, [(0, 1), (2, 3)])
        result = g.apply_edits(inserts=[(1, 2)])
        assert result.touched_old == frozenset({0, 2})
        assert result.touched_new == frozenset({0})

    def test_split_touches_both_new_components(self):
        g = CompactGraph.from_edges(4, [(0, 1), (1, 2)])
        result = g.apply_edits(deletes=[(0, 1)])
        assert result.touched_old == frozenset({0})
        assert result.touched_new == frozenset({0, 1})

    def test_untouched_component_not_reported(self):
        g = CompactGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        result = g.apply_edits(deletes=[(2, 3)])
        assert 0 not in result.touched_old
        assert 4 not in result.touched_old
        assert result.touched_old == frozenset({2})
        assert result.touched_new == frozenset({2, 3})


# ----------------------------------------------------------------------
# Component fingerprints
# ----------------------------------------------------------------------
class TestComponentFingerprints:
    def test_keyed_by_canonical_component_id(self):
        g = CompactGraph.from_edges(6, [(0, 1), (3, 4)])
        fps = g.component_fingerprints()
        assert set(fps) == {0, 2, 3, 5}

    def test_isolated_vertices_share_a_fingerprint(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        fps = g.component_fingerprints()
        assert fps[2] == fps[3]
        assert fps[2] == component_fingerprint(
            1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )

    def test_isomorphic_components_share_a_fingerprint(self):
        g = CompactGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        fps = g.component_fingerprints()
        assert fps[0] == fps[3]

    def test_untouched_components_keep_fingerprints_across_edits(self):
        g = CompactGraph.from_edges(7, [(0, 1), (2, 3), (4, 5), (5, 6)])
        fps = g.component_fingerprints()
        result = g.apply_edits(inserts=[(1, 2)])
        new_fps = result.graph.component_fingerprints()
        for root in set(fps) - result.touched_old:
            assert new_fps[root] == fps[root]
        # The merged component is new content under a new id set.
        assert new_fps[0] != fps[0]

    def test_labels_do_not_affect_fingerprints(self):
        plain = CompactGraph.from_edges(3, [(0, 1)])
        labelled = CompactGraph.from_edges(3, [(0, 1)], labels=["x", "y", "z"])
        assert (
            plain.component_fingerprints()
            == labelled.component_fingerprints()
        )
        assert plain.fingerprint() != labelled.fingerprint()


# ----------------------------------------------------------------------
# Fingerprint freshness (the PR-8 audit regression)
# ----------------------------------------------------------------------
class TestFingerprintFreshness:
    def test_edit_after_fingerprint_is_fresh(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        stale = g.fingerprint()  # populate the memo before editing
        g.component_fingerprints()
        edited = g.apply_edits(inserts=[(2, 3)]).graph
        scratch = CompactGraph.from_edges(4, [(0, 1), (2, 3)])
        assert edited.fingerprint() != stale
        assert edited.fingerprint() == scratch.fingerprint()
        assert (
            edited.component_fingerprints()
            == scratch.component_fingerprints()
        )

    def test_edit_after_pickle_roundtrip_is_fresh(self):
        g = CompactGraph.from_edges(4, [(0, 1)])
        g.fingerprint()
        g.component_fingerprints()
        loaded = pickle.loads(pickle.dumps(g))
        assert loaded.fingerprint() == g.fingerprint()
        assert loaded.component_fingerprints() == g.component_fingerprints()
        edited = loaded.apply_edits(inserts=[(2, 3)]).graph
        scratch = CompactGraph.from_edges(4, [(0, 1), (2, 3)])
        assert edited.fingerprint() == scratch.fingerprint()
        assert (
            edited.component_fingerprints()
            == scratch.component_fingerprints()
        )


# ----------------------------------------------------------------------
# Differential: edit sequences vs scratch builds
# ----------------------------------------------------------------------
@st.composite
def edit_histories(draw):
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    initial = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    )
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(pairs), unique=True, max_size=4),
                st.lists(st.sampled_from(pairs), unique=True, max_size=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return n, initial, batches


class TestDifferential:
    @given(edit_histories())
    @settings(max_examples=200, deadline=None)
    def test_edit_sequences_match_scratch_builds(self, history):
        n, initial, batches = history
        edges = set(initial)
        graph = CompactGraph.from_edges(n, sorted(edges))
        for inserts, deletes in batches:
            deletes = [p for p in deletes if p not in set(inserts)]
            result = graph.apply_edits(inserts=inserts, deletes=deletes)
            assert result.inserted == len(set(inserts) - edges)
            assert result.deleted == len(set(deletes) & edges)
            edges |= set(inserts)
            edges -= set(deletes)
            graph = result.graph
            _assert_bit_identical(
                graph, CompactGraph.from_edges(n, sorted(edges))
            )

    @given(edit_histories())
    @settings(max_examples=100, deadline=None)
    def test_untouched_fingerprints_survive_each_batch(self, history):
        n, initial, batches = history
        graph = CompactGraph.from_edges(n, sorted(set(initial)))
        for inserts, deletes in batches:
            deletes = [p for p in deletes if p not in set(inserts)]
            fps = graph.component_fingerprints()
            result = graph.apply_edits(inserts=inserts, deletes=deletes)
            new_fps = result.graph.component_fingerprints()
            for root in set(fps) - result.touched_old:
                assert new_fps[root] == fps[root]
            graph = result.graph


def _touched_reference(before, edges_before, edges_after, n):
    """``(touched_old, touched_new)`` recomputed from scratch builds."""
    changed = edges_before ^ edges_after
    verts = sorted({x for edge in changed for x in edge})
    after = CompactGraph.from_edges(n, sorted(edges_after))
    return (
        frozenset(before.component_labels()[verts].tolist()),
        frozenset(after.component_labels()[verts].tolist()),
    )


class TestMergeSplitIsolate:
    """Batches aimed at the label patching: inserts across components
    merge them, deletes split them, and deleting every edge at a vertex
    isolates it."""

    @given(st.integers(10, 30), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batches_match_scratch_builds(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = set(
            data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
        )
        graph = CompactGraph.from_edges(n, sorted(edges))
        for _ in range(data.draw(st.integers(1, 6))):
            labels = graph.component_labels()
            present = sorted(edges)
            deletes = set(
                data.draw(st.lists(st.sampled_from(present), max_size=4))
                if present
                else []
            )
            if present and data.draw(st.booleans()):
                lone = data.draw(st.integers(0, n - 1))
                deletes |= {e for e in present if lone in e}
            cross = [p for p in pairs if labels[p[0]] != labels[p[1]]]
            inserts = set(
                data.draw(st.lists(st.sampled_from(cross), max_size=4))
                if cross
                else []
            )
            inserts |= set(data.draw(st.lists(st.sampled_from(pairs), max_size=2)))
            deletes -= inserts
            result = graph.apply_edits(
                inserts=sorted(inserts), deletes=sorted(deletes)
            )
            after = (edges | inserts) - deletes
            assert (result.touched_old, result.touched_new) == (
                _touched_reference(graph, edges, after, n)
            )
            edges = after
            graph = result.graph
            _assert_bit_identical(
                graph, CompactGraph.from_edges(n, sorted(edges))
            )


def test_dust_and_communities_stream_matches_scratch_builds():
    """A 2,000-vertex contact graph (dust at mean degree 0.35 plus four
    25-vertex communities) through 50 batches of dust inserts and
    deletes, with a community insert and delete every fifth batch;
    every version equals ``from_edge_arrays`` of its edge set."""
    n, size = 2000, 25
    rng = np.random.default_rng(7)
    core = planted_components_compact([size] * 4, 3.0 / size, rng)
    offset = 4 * size
    dust = erdos_renyi_compact(n - offset, 0.35 / (n - offset), rng)
    cu, cv = core.edge_arrays()
    du, dv = dust.edge_arrays()
    graph = CompactGraph.from_edge_arrays(
        n, np.concatenate([cu, du + offset]), np.concatenate([cv, dv + offset])
    )
    edges = set(zip(*(a.tolist() for a in graph.edge_arrays())))

    def fresh(low, high):
        while True:
            a, b = sorted((low + rng.choice(high - low, 2, replace=False)).tolist())
            if (a, b) not in edges:
                return a, b

    for batch in range(50):
        inserts = [fresh(offset, n) for _ in range(3)]
        present = sorted(edges)
        deletes = [present[int(rng.integers(len(present)))]]
        if batch % 5 == 0:
            base = batch // 5 % 4 * size
            inserts.append(fresh(base, base + size))
            inside = [e for e in present if base <= e[0] and e[1] < base + size]
            deletes.append(inside[int(rng.integers(len(inside)))])
        deletes = sorted(set(deletes) - set(inserts))
        graph = graph.apply_edits(inserts=inserts, deletes=deletes).graph
        edges = (edges | set(inserts)) - set(deletes)
        u, v = np.array(sorted(edges), dtype=np.int64).T
        _assert_bit_identical(graph, CompactGraph.from_edge_arrays(n, u, v))
