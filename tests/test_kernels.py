"""Tests for the batched/vectorised kernel layer.

Three contracts:

* the integer kernels of ``repro.kernels`` — component labels, the
  forest check and the two greedy forest selections — agree with
  independent pure-Python references on the deterministic corpus.
* the exactness certificates: every edge set
  ``capped_spanning_tree`` returns is a spanning tree of G within the
  cap (checked with networkx), and the counting test
  ``excludes_capped_spanning_tree`` never excludes a graph that has one
  (checked by exhaustive search).  At cap 2 the kernel finds a
  Hamiltonian path on every small graph that has one, and on pinned
  planted communities where the LP had returned a float below n − 1.
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
from repro.core import extension as extension_module
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


@st.composite
def _two_edge_components(draw):
    """A connected component on at most 10 vertices with minimum degree
    ≥ 2: each vertex below degree 2 gains edges to drawn non-neighbours."""
    n, u, v = draw(connected_components(min_vertices=3, max_vertices=10))
    edges = set(zip(u.tolist(), v.tolist()))
    for w in range(n):
        while sum(w in edge for edge in edges) < 2:
            pairs = [(min(w, x), max(w, x)) for x in range(n) if x != w]
            edges.add(draw(st.sampled_from([p for p in pairs if p not in edges])))
    u, v = np.array(sorted(edges), dtype=np.int64).T
    return n, u, v


def _has_hamiltonian_path(n, u, v) -> bool:
    """Held–Karp over vertex subsets: ``ends[mask]`` is the bit set of
    vertices that end a path through exactly the vertices of ``mask``."""
    neighbours = [0] * n
    for a, b in zip(u.tolist(), v.tolist()):
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    ends = [0] * (1 << n)
    for w in range(n):
        ends[1 << w] = 1 << w
    for mask in range(1, 1 << n):
        for w in range(n):
            if ends[mask] >> w & 1:
                step = neighbours[w] & ~mask
                while step:
                    x = step & -step
                    ends[mask | x] |= x
                    step ^= x
    return ends[-1] != 0


@settings(max_examples=300, deadline=None)
@given(_two_edge_components())
def test_cap_two_finds_every_hamiltonian_path_on_small_graphs(component):
    """At cap 2 on connected graphs with n ≤ 10 and minimum degree ≥ 2,
    where the leaf counting test is silent: the kernel returns a
    verified Hamiltonian path exactly when one exists, and the
    forced-edge counting test excludes none of those."""
    n, u, v = component
    exists = _has_hamiltonian_path(n, u, v)
    edges = kernels.capped_spanning_tree(n, u, v, 2)
    assert (edges is not None) == exists
    if exists:
        _assert_capped_spanning_tree(n, u, v, 2, edges)
        assert not kernels.excludes_capped_spanning_tree(n, u, v, 2)


def _windmill(blades: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``blades`` triangles sharing hub 0."""
    a = 1 + 2 * np.arange(blades)
    u = np.concatenate([np.zeros(2 * blades, dtype=np.int64), a])
    v = np.concatenate([np.sort(np.concatenate([a, a + 1])), a + 1])
    return 2 * blades + 1, u, v


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
    # Cap 2: the hub of a three-blade windmill has 6 neighbours of degree
    # 2, 4 more than its path degree, and two ends relieve at most 2.  A
    # two-blade windmill (a bowtie), a cycle and a path have paths.
    assert kernels.excludes_capped_spanning_tree(*_windmill(3), 2)
    assert not kernels.excludes_capped_spanning_tree(*_windmill(3), 3)
    assert not kernels.excludes_capped_spanning_tree(*_windmill(2), 2)
    ring = np.arange(6)
    cycle = (6, np.minimum(ring, (ring + 1) % 6), np.maximum(ring, (ring + 1) % 6))
    path = (6, ring[:-1], ring[1:])
    for graph in (_windmill(2), cycle, path):
        assert not kernels.excludes_capped_spanning_tree(*graph, 2)
        _assert_capped_spanning_tree(
            *graph, 2, kernels.capped_spanning_tree(*graph, 2)
        )


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
    """A windmill of 100 triangles sharing a hub has no spanning 3-tree
    (every tree joins the hub to each blade), and the counting test
    cannot tell at cap 3 (at cap 2 the forced-edge count can): the
    start's excess (at least 97) exceeds the budget, so the call
    declines before any phase."""
    blades = 100
    n, u, v = _windmill(blades)
    assert not kernels.excludes_capped_spanning_tree(n, u, v, 3)
    assert kernels.excludes_capped_spanning_tree(n, u, v, 2)
    calls = []
    monkeypatch.setattr(
        kernels, "_improvement_phase", lambda *args: calls.append(args)
    )
    assert kernels.capped_spanning_tree(n, u, v, 3) is None
    assert calls == []
    assert kernels._TREE_PHASES < blades - 3
    # With spare degree at the hub the same graph has a tree.
    edges = kernels.capped_spanning_tree(n, u, v, blades)
    _assert_capped_spanning_tree(n, u, v, blades, edges)


# Planted 50-vertex communities of layerbench's contact-edits workload,
# as component arrays, that a version miss re-solves at Δ = 2 (the
# timed pass of ``ContactEdits(work, seed, 6)``).  Each has a
# Hamiltonian path, and the LP had returned f_2 just below n − 1 = 49:
# 48.99999999999999 (seed 1) and 48.999999999999986 (seed 2).
CONTACT_COMMUNITIES = {
    "seed 1, m 131": (
        50,
        np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2,
                  2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5,
                  5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 8, 8, 8, 8, 8,
                  9, 9, 9, 10, 10, 10, 10, 10, 11, 11, 11, 11, 11, 12, 12,
                  12, 13, 13, 13, 13, 13, 13, 14, 14, 14, 15, 16, 19, 20,
                  20, 20, 21, 21, 21, 23, 23, 24, 24, 24, 24, 24, 25, 26,
                  26, 26, 26, 26, 28, 28, 28, 30, 30, 30, 31, 31, 32, 32,
                  32, 33, 33, 34, 34, 34, 36, 38, 38, 39, 39, 40, 40, 40,
                  40, 41, 44]),
        np.array([1, 2, 23, 26, 32, 33, 41, 48, 5, 8, 12, 18, 24, 30, 40,
                  41, 3, 7, 8, 16, 47, 4, 6, 15, 20, 30, 34, 13, 15, 16, 21,
                  26, 27, 31, 33, 34, 35, 11, 25, 27, 29, 9, 16, 22, 23, 30,
                  32, 40, 45, 47, 10, 13, 17, 19, 36, 38, 41, 14, 36, 49,
                  14, 24, 27, 42, 44, 12, 18, 20, 30, 40, 19, 20, 42, 19,
                  20, 28, 29, 38, 41, 24, 37, 45, 18, 32, 42, 35, 36, 40,
                  23, 25, 47, 42, 49, 34, 35, 37, 48, 49, 30, 29, 35, 36,
                  43, 46, 31, 32, 39, 33, 38, 47, 41, 47, 38, 40, 43, 41,
                  48, 37, 39, 40, 46, 41, 42, 41, 45, 41, 43, 44, 45, 45,
                  47]),
    ),
    "seed 2, m 121": (
        50,
        np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2,
                  2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5,
                  5, 5, 5, 6, 6, 6, 6, 8, 8, 8, 8, 9, 9, 9, 9, 10, 10, 10,
                  11, 11, 11, 11, 11, 12, 12, 12, 13, 13, 13, 13, 14, 14,
                  14, 14, 15, 15, 15, 16, 16, 16, 17, 17, 17, 17, 18, 18,
                  18, 18, 18, 19, 19, 20, 20, 21, 22, 22, 22, 22, 23, 23,
                  23, 23, 24, 24, 24, 25, 26, 28, 30, 31, 33, 37, 38, 38,
                  39, 39, 39, 39, 40, 41, 42, 43, 44]),
        np.array([1, 2, 3, 7, 13, 21, 24, 27, 44, 45, 6, 22, 25, 3, 4, 5,
                  22, 26, 28, 36, 37, 5, 18, 29, 35, 38, 41, 43, 5, 9, 13,
                  26, 33, 39, 40, 6, 8, 12, 28, 39, 45, 9, 10, 14, 15, 16,
                  31, 36, 42, 11, 23, 34, 37, 20, 42, 47, 14, 17, 32, 40,
                  49, 16, 32, 46, 15, 16, 31, 39, 19, 24, 27, 48, 18, 40,
                  42, 19, 22, 49, 19, 33, 37, 43, 19, 21, 30, 32, 34, 21,
                  31, 35, 38, 42, 26, 36, 38, 49, 25, 30, 41, 43, 39, 43,
                  46, 43, 48, 30, 44, 49, 47, 49, 41, 48, 43, 45, 46, 48,
                  48, 48, 45, 46, 48]),
    ),
}

# A G(41, 64) component of layerbench's giant-lp seed 1 with f_2 = 38 <
# n − 1, so it has no Hamiltonian path, yet neither counting test
# excludes it.
GIANT_LP_PATHLESS = (
    41,
    np.array([0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 6, 6,
              6, 6, 7, 7, 7, 7, 9, 9, 9, 9, 9, 10, 10, 11, 12, 12, 13,
              14, 15, 16, 16, 17, 18, 18, 19, 19, 19, 19, 20, 20, 20,
              20, 21, 22, 24, 24, 25, 25, 28, 30, 30, 30, 31, 31, 35]),
    np.array([3, 9, 34, 8, 10, 14, 15, 21, 5, 9, 10, 14, 13, 26, 29, 15,
              23, 17, 22, 28, 32, 11, 13, 16, 33, 14, 22, 27, 30, 32,
              32, 37, 22, 24, 35, 39, 35, 23, 32, 40, 36, 27, 33, 22,
              24, 26, 39, 26, 29, 37, 38, 34, 39, 33, 36, 28, 38, 40,
              33, 37, 39, 32, 35, 40]),
)


@pytest.mark.parametrize("name", sorted(CONTACT_COMMUNITIES))
def test_cap_two_path_settles_f2_without_the_lp(name, monkeypatch):
    n, u, v = CONTACT_COMMUNITIES[name]
    edges = kernels.capped_spanning_tree(n, u, v, 2)
    assert edges is not None
    _assert_capped_spanning_tree(n, u, v, 2, edges)
    solves = []
    solve = extension_module.solve_component
    monkeypatch.setattr(
        extension_module,
        "solve_component",
        lambda *args, **options: solves.append(args) or solve(*args, **options),
    )
    graph = CompactGraph.from_edge_arrays(n, u, v)
    assert extension_for(graph).value(2) == 49.0
    assert solves == []


def test_cap_two_declines_a_pathless_component_within_its_budget(monkeypatch):
    """The path search spends at most its restarts' work units (a step
    starts under the budget and costs at most n + m), and the phases
    stay within theirs."""
    n, u, v = GIANT_LP_PATHLESS
    assert not kernels.excludes_capped_spanning_tree(n, u, v, 2)
    path, work = kernels._hamiltonian_path(n, u.tolist(), v.tolist())
    assert path is None
    assert work <= kernels._PATH_RESTARTS * (kernels._PATH_WORK + 1) * (n + u.size)
    phases = []
    improve = kernels._improvement_phase
    monkeypatch.setattr(
        kernels,
        "_improvement_phase",
        lambda *args: phases.append(improve(*args)) or phases[-1],
    )
    assert kernels.capped_spanning_tree(n, u, v, 2) is None
    assert len(phases) <= kernels._TREE_PHASES


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


@st.composite
def splices(draw):
    """An array, ascending drop positions, and ascending insert
    positions into what the drops leave (repeats allowed)."""
    n = draw(st.integers(0, 30))
    array = np.array(draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)), dtype=np.int64)
    drop = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))) if n else []
    at = sorted(draw(st.lists(st.integers(0, n - len(drop)), max_size=8)))
    values = draw(st.lists(st.integers(100, 199), min_size=len(at), max_size=len(at)))
    return array, np.array(drop, dtype=np.int64), np.array(at, dtype=np.int64), values


@given(splices(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_splice_equals_numpy_delete_then_insert(case, as_float):
    array, drop, at, values = case
    if as_float:
        array = array.astype(np.float64)
    expected = np.insert(np.delete(array, drop), at, values)
    got = kernels.splice(array, drop, at, values)
    assert np.array_equal(got, expected)
    assert got.dtype == expected.dtype
