"""Tests for the batched/vectorised kernel layer.

Three contracts:

* the integer kernels of ``repro.kernels`` — component labels, the
  forest check and the two greedy forest selections — agree with
  independent pure-Python references on the deterministic corpus.
* the exactness certificates: every edge set
  ``capped_spanning_tree`` returns is a spanning tree of G within the
  cap (checked with networkx), and the counting test
  ``excludes_capped_spanning_tree`` never excludes a graph that has one
  (checked by exhaustive search).
* the batched Algorithm-3 tree path in the extension engine — the
  vectorized tree DP matches the per-component reference, and with
  ``batched_certificates`` on (the default) every extension value is
  bit-identical to the per-component loop, pinned by a hypothesis
  differential plus the deterministic corpus.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.core.extension import extension_for
from repro.graphs.compact import CompactGraph, as_compact
from repro.graphs.generators import barabasi_albert_compact, random_forest_compact
from repro.lp.forest_core import batched_tree_values, tree_component_value

from .strategies import connected_components, deterministic_corpus, small_graphs

_CORPUS = deterministic_corpus()
_GRID = [1.0, 2.0, 3.0, 4.0, 8.0]


# ----------------------------------------------------------------------
# Kernel surface vs independent references
# ----------------------------------------------------------------------
def _reference_labels(n, u, v, edges) -> list[int]:
    """Min-vertex component label of each vertex under the edge indices
    ``edges``, by breadth-first search from each vertex in id order."""
    adjacency = [[] for _ in range(n)]
    for j in edges:
        a, b = int(u[j]), int(v[j])
        adjacency[a].append(b)
        adjacency[b].append(a)
    labels = [-1] * n
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = [start]
        for w in queue:
            for x in adjacency[w]:
                if labels[x] < 0:
                    labels[x] = start
                    queue.append(x)
    return labels


def _reference_is_forest(n, u, v, edges) -> bool:
    return len(edges) == n - len(set(_reference_labels(n, u, v, edges)))


def _reference_capped_greedy(n, u, v, order, caps) -> list[int]:
    chosen: list[int] = []
    degree = [0] * n
    for j in order:
        a, b = int(u[j]), int(v[j])
        labels = _reference_labels(n, u, v, chosen)
        if degree[a] < caps[a] and degree[b] < caps[b] and labels[a] != labels[b]:
            chosen.append(j)
            degree[a] += 1
            degree[b] += 1
    return chosen


@pytest.mark.parametrize(
    "name,graph", _CORPUS, ids=[name for name, _ in _CORPUS]
)
def test_kernel_surface_matches_reference(name, graph):
    compact = as_compact(graph)
    n = compact.number_of_vertices()
    u, v = compact.edge_arrays()
    m = u.size
    rng = np.random.default_rng(7)

    labels = kernels.connected_component_labels(n, u, v)
    assert labels.tolist() == _reference_labels(n, u, v, range(m))
    assert kernels.is_forest(n, u, v) == _reference_is_forest(n, u, v, range(m))

    # Positive weights: the greedy forest is spanning, heaviest first,
    # and as heavy as the best acyclic subset found by brute force.
    weights = rng.random(m)
    chosen, total = kernels.max_weight_forest(n, u, v, weights)
    assert _reference_is_forest(n, u, v, chosen)
    assert len(chosen) == n - len(set(labels.tolist()))
    assert all(weights[a] >= weights[b] for a, b in zip(chosen, chosen[1:]))
    assert total == sum(float(weights[j]) for j in chosen)
    best = max(
        float(weights[list(subset)].sum())
        for k in range(m + 1)
        for subset in combinations(range(m), k)
        if _reference_is_forest(n, u, v, subset)
    )
    assert total == pytest.approx(best, abs=1e-12)

    order = [int(j) for j in rng.permutation(m)]
    caps = rng.integers(0, 3, size=n)
    capped, degree = kernels.greedy_capped_forest(n, u, v, order, caps)
    assert capped == _reference_capped_greedy(n, u, v, order, caps)
    assert degree.tolist() == np.bincount(
        np.concatenate([u[capped], v[capped]]), minlength=n
    ).tolist()
    assert np.all(degree <= caps)


# ----------------------------------------------------------------------
# Spanning trees within a degree cap
# ----------------------------------------------------------------------
def _assert_capped_spanning_tree(n, u, v, cap, edges):
    """``edges`` (indices into G's edge arrays) is a spanning tree of G
    with maximum degree at most ``cap``."""
    assert edges.dtype == np.int64
    assert np.unique(edges).size == edges.size
    tree = nx.Graph()
    tree.add_nodes_from(range(n))
    tree.add_edges_from(zip(u[edges].tolist(), v[edges].tolist()))
    assert nx.is_tree(tree)
    assert max(degree for _, degree in tree.degree()) <= cap


def _has_capped_spanning_tree(n, u, v, cap) -> bool:
    """Exhaustive search: include or skip each edge in turn, keeping a
    forest within the cap, until ``n − 1`` edges are chosen."""
    edges = list(zip(u.tolist(), v.tolist()))

    def search(k, label, degree, chosen):
        if chosen == n - 1:
            return True
        if len(edges) - k < n - 1 - chosen:
            return False
        a, b = edges[k]
        if label[a] != label[b] and degree[a] < cap and degree[b] < cap:
            old, new = label[a], label[b]
            joined = [new if x == old else x for x in label]
            degree[a] += 1
            degree[b] += 1
            if search(k + 1, joined, degree, chosen + 1):
                return True
            degree[a] -= 1
            degree[b] -= 1
        return search(k + 1, label, degree, chosen)

    return search(0, list(range(n)), [0] * n, 0)


@settings(max_examples=150, deadline=None)
@given(connected_components(min_vertices=1, max_vertices=10), st.integers(1, 4))
def test_capped_spanning_tree_returns_a_spanning_tree_within_the_cap(
    component, cap
):
    n, u, v = component
    edges = kernels.capped_spanning_tree(n, u, v, cap)
    if edges is not None:
        _assert_capped_spanning_tree(n, u, v, cap, edges)
        assert not kernels.excludes_capped_spanning_tree(n, u, v, cap)


@settings(max_examples=150, deadline=None)
@given(connected_components(min_vertices=1, max_vertices=10), st.integers(1, 4))
def test_counting_test_never_excludes_a_graph_with_a_capped_tree(component, cap):
    n, u, v = component
    if kernels.excludes_capped_spanning_tree(n, u, v, cap):
        assert not _has_capped_spanning_tree(n, u, v, cap)


@settings(max_examples=100, deadline=None)
@given(
    connected_components(min_vertices=4, max_vertices=40),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
def test_improvement_phases_from_any_start_keep_a_spanning_tree(
    component, cap, random
):
    """The greedy start settles most small graphs alone, so start the
    phases from an uncapped Kruskal tree over a random edge order."""
    n, u, v = component
    order = list(range(u.size))
    random.shuffle(order)
    tree = kernels._complete_and_improve(n, u.tolist(), v.tolist(), cap, order, [])
    if tree is not None:
        _assert_capped_spanning_tree(n, u, v, cap, np.array(tree, dtype=np.int64))


def test_improvement_phase_applies_a_freed_vertex_swap(monkeypatch):
    """From this start at cap 3, one phase frees a vertex at the cap on
    the way to an over-cap vertex and applies its recorded swap first."""
    u = np.array([0, 0, 1, 1, 2, 2, 2, 2, 2, 3, 4, 5, 6, 7])
    v = np.array([2, 7, 2, 5, 4, 5, 6, 7, 8, 7, 8, 8, 8, 8])
    order = [13, 2, 8, 5, 10, 1, 7, 4, 3, 0, 9, 12, 11, 6]
    released = []
    apply_swaps = kernels._apply_swaps

    def spy(*args):
        recorded = args[6]
        before = len(recorded)
        apply_swaps(*args)
        released.append(before - len(recorded))

    monkeypatch.setattr(kernels, "_apply_swaps", spy)
    tree = kernels._complete_and_improve(9, u.tolist(), v.tolist(), 3, order, [])
    assert released == [1]
    _assert_capped_spanning_tree(9, u, v, 3, np.array(tree, dtype=np.int64))


def test_counting_test_cases():
    star = (5, np.zeros(4, dtype=np.int64), np.arange(1, 5, dtype=np.int64))
    assert kernels.excludes_capped_spanning_tree(*star, 3)
    assert not kernels.excludes_capped_spanning_tree(*star, 4)
    # Every connected graph on three or more vertices at cap 1.
    triangle = (3, np.array([0, 0, 1]), np.array([1, 2, 2]))
    assert kernels.excludes_capped_spanning_tree(*triangle, 1)
    assert not kernels.excludes_capped_spanning_tree(*triangle, 2)
    # Vertex 0 holds two pendants and a triangle: its tree degree is 3.
    pendants = (5, np.array([0, 0, 0, 0, 2]), np.array([1, 2, 3, 4, 3]))
    assert kernels.excludes_capped_spanning_tree(*pendants, 2)
    assert not kernels.excludes_capped_spanning_tree(*pendants, 3)


def test_capped_spanning_tree_on_the_deterministic_corpus():
    """Each connected corpus graph at each cap from 2 up to its maximum
    degree: a returned tree is verified, and the kernel settles every
    graph whose maximum degree is within the cap."""
    for _, graph in _CORPUS:
        compact = as_compact(graph)
        if compact.number_of_vertices() < 2 or not compact.is_connected():
            continue
        n = compact.number_of_vertices()
        u, v = compact.edge_arrays()
        for cap in range(2, compact.max_degree() + 1):
            edges = kernels.capped_spanning_tree(n, u, v, cap)
            if edges is not None:
                _assert_capped_spanning_tree(n, u, v, cap, edges)
        edges = kernels.capped_spanning_tree(n, u, v, compact.max_degree())
        assert edges is not None


def test_capped_spanning_tree_on_barabasi_albert_needs_the_phases(monkeypatch):
    """BA(1000, 2), seed 0: the greedy start does not span within cap 4,
    and the improvement phases reach a verified 4-tree (the extension's
    f_4 = 999 is pinned in test_forest_lp.py)."""
    graph = barabasi_albert_compact(1000, 2, np.random.default_rng(0))
    n = graph.number_of_vertices()
    u, v = graph.edge_arrays()
    phases = []
    improve = kernels._improvement_phase
    monkeypatch.setattr(
        kernels,
        "_improvement_phase",
        lambda *args: phases.append(improve(*args)) or phases[-1],
    )
    edges = kernels.capped_spanning_tree(n, u, v, 4)
    assert edges is not None and phases and all(phases)
    _assert_capped_spanning_tree(n, u, v, 4, edges)


def test_capped_spanning_tree_declines_within_its_budget(monkeypatch):
    """A windmill of 100 triangles sharing a hub has no spanning 2-tree
    (every tree joins the hub to each blade), and the counting test
    cannot tell: the start's excess (at least 98) exceeds the budget,
    so the call declines before any phase."""
    blades = 100
    a = 1 + 2 * np.arange(blades)
    u = np.concatenate([np.zeros(2 * blades, dtype=np.int64), a])
    v = np.concatenate([np.sort(np.concatenate([a, a + 1])), a + 1])
    n = 2 * blades + 1
    assert not kernels.excludes_capped_spanning_tree(n, u, v, 2)
    calls = []
    monkeypatch.setattr(
        kernels, "_improvement_phase", lambda *args: calls.append(args)
    )
    assert kernels.capped_spanning_tree(n, u, v, 2) is None
    assert calls == []
    assert kernels._TREE_PHASES < blades - 2
    # With spare degree at the hub the same graph has a tree.
    edges = kernels.capped_spanning_tree(n, u, v, blades)
    _assert_capped_spanning_tree(n, u, v, blades, edges)


def test_capped_spanning_tree_trivial_inputs():
    empty = np.zeros(0, dtype=np.int64)
    assert kernels.capped_spanning_tree(1, empty, empty, 1).size == 0
    edge = (2, np.array([0]), np.array([1]))
    assert kernels.capped_spanning_tree(*edge, 1).tolist() == [0]
    # Not connected: no spanning tree.
    assert kernels.capped_spanning_tree(4, np.array([0, 2]), np.array([1, 3]), 3) is None
    graph = CompactGraph.from_edge_arrays(4, np.array([0, 0, 0]), np.array([1, 2, 3]))
    assert kernels.capped_spanning_tree(4, *graph.edge_arrays(), 2) is None


# ----------------------------------------------------------------------
# Batched tree DP vs the recursive reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cap", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "name,graph", _CORPUS, ids=[name for name, _ in _CORPUS]
)
def test_batched_tree_values_forest_components(name, graph, cap):
    compact = as_compact(graph)
    labels = compact.component_labels()
    u, v = compact.edge_arrays()
    edge_labels = labels[u] if u.size else labels[:0]
    tree_roots = []
    for root in np.unique(labels):
        verts = np.nonzero(labels == root)[0]
        mask = edge_labels == root
        if np.count_nonzero(mask) == verts.size - 1:
            tree_roots.append((root, verts, mask))
    if not tree_roots:
        pytest.skip("corpus entry has no tree component")

    keep = np.zeros(u.size, dtype=bool)
    tree_vertex = np.zeros(compact.number_of_vertices(), dtype=bool)
    for _, verts, mask in tree_roots:
        keep |= mask
        tree_vertex[verts] = True
    # Restrict to the forest induced by the tree components; the DP is
    # defined on forests only.
    roots, values = batched_tree_values(
        compact.number_of_vertices(), u[keep], v[keep], cap
    )
    got = dict(zip(roots.tolist(), values.tolist()))

    for root, verts, mask in tree_roots:
        local = {int(g): i for i, g in enumerate(verts)}
        lu = np.array([local[int(x)] for x in u[mask]], dtype=np.int64)
        lv = np.array([local[int(x)] for x in v[mask]], dtype=np.int64)
        expected = tree_component_value(verts.size, lu, lv, cap).value
        batched_roots = [
            r for r in got if tree_vertex[r] and labels[r] == root
        ]
        assert len(batched_roots) == 1
        assert got[batched_roots[0]] == expected


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_batched_tree_values_random_forest(cap):
    rng = np.random.default_rng(20230808)
    graph = random_forest_compact(300, 17, rng)
    u, v = graph.edge_arrays()
    roots, values = batched_tree_values(300, u, v, cap)
    assert roots.size == 17

    labels = graph.component_labels()
    for root, value in zip(roots.tolist(), values.tolist()):
        verts = np.nonzero(labels == labels[root])[0]
        mask = labels[u] == labels[root]
        local = {int(g): i for i, g in enumerate(verts)}
        lu = np.array([local[int(x)] for x in u[mask]], dtype=np.int64)
        lv = np.array([local[int(x)] for x in v[mask]], dtype=np.int64)
        assert value == tree_component_value(
            verts.size, lu, lv, cap
        ).value


# ----------------------------------------------------------------------
# Batched extension path vs legacy per-component loop
# ----------------------------------------------------------------------
def _grid_values(graph, batched: bool) -> np.ndarray:
    ext = extension_for(as_compact(graph), batched_certificates=batched)
    return np.asarray(ext.values_for_grid(_GRID))


@pytest.mark.parametrize(
    "name,graph", _CORPUS, ids=[name for name, _ in _CORPUS]
)
def test_batched_extension_matches_legacy_corpus(name, graph):
    assert np.array_equal(_grid_values(graph, True),
                          _grid_values(graph, False))


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(max_vertices=9))
def test_batched_extension_matches_legacy_hypothesis(graph):
    assert np.array_equal(_grid_values(graph, True),
                          _grid_values(graph, False))


def test_batched_extension_matches_legacy_random_forest():
    rng = np.random.default_rng(42)
    graph = random_forest_compact(5000, 173, rng)
    batched = np.asarray(
        extension_for(graph).values_for_grid(_GRID)
    )
    legacy = np.asarray(
        extension_for(graph, batched_certificates=False)
        .values_for_grid(_GRID)
    )
    assert np.array_equal(batched, legacy)


def test_random_forest_compact_is_forest():
    rng = np.random.default_rng(3)
    for n, trees in [(1, 1), (10, 3), (500, 20), (1000, 1000)]:
        graph = random_forest_compact(n, trees, rng)
        assert graph.number_of_vertices() == n
        assert graph.number_of_connected_components() == trees
        assert graph.number_of_edges() == n - trees
        u, v = graph.edge_arrays()
        assert kernels.is_forest(n, u, v)
