"""Tests for the batched/vectorised kernel layer.

Two contracts:

* the integer kernels of ``repro.kernels`` — component labels, the
  forest check and the two greedy forest selections — agree with
  independent pure-Python references on the deterministic corpus.
* the batched Algorithm-3 tree path in the extension engine — the
  vectorized tree DP matches the per-component reference, and with
  ``batched_certificates`` on (the default) every extension value is
  bit-identical to the per-component loop, pinned by a hypothesis
  differential plus the deterministic corpus.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import kernels
from repro.core.extension import extension_for
from repro.graphs.compact import as_compact
from repro.graphs.generators import random_forest_compact
from repro.lp.forest_core import batched_tree_values, tree_component_value

from .strategies import deterministic_corpus, small_graphs

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
