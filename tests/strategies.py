"""Shared hypothesis strategies, deterministic graph corpora, and the
canonical LP arrays of a graph."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from repro.graphs.compact import as_compact
from repro.graphs.graph import Graph
from repro.graphs import generators


def graph_arrays(graph) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, u, v)`` of the whole graph in vertex-index order: the
    canonical component arrays of :mod:`repro.lp.forest_core` when the
    graph is connected."""
    compact = as_compact(graph)
    return (compact.number_of_vertices(), *compact.edge_arrays())


def canonical_components(graph):
    """Yield the canonical ``(n, u, v)`` arrays of each edge-bearing
    component, local vertex ids ascending with the global ids."""
    compact = as_compact(graph)
    labels = compact.component_labels()
    u, v = compact.edge_arrays()
    for root in np.unique(labels[u]).tolist():
        verts = np.nonzero(labels == root)[0]
        inside = labels[u] == root
        yield (
            int(verts.size),
            np.searchsorted(verts, u[inside]),
            np.searchsorted(verts, v[inside]),
        )


@st.composite
def connected_components(draw, min_vertices: int = 4, max_vertices: int = 12):
    """A canonical connected component: a random spanning tree (vertex
    ``i`` hangs off an earlier vertex) plus random extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    tree = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    edges = sorted(tree | set(extra))
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return n, u, v


@st.composite
def small_graphs(draw, min_vertices: int = 1, max_vertices: int = 7) -> Graph:
    """A random labelled graph on at most ``max_vertices`` vertices."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        )
    else:
        edges = []
    return Graph(vertices=range(n), edges=edges)


@st.composite
def small_graphs_with_edge(draw, max_vertices: int = 7) -> Graph:
    """A random graph guaranteed to contain at least one edge."""
    n = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    forced = draw(st.sampled_from(pairs))
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = set(extra) | {forced}
    return Graph(vertices=range(n), edges=edges)


def deterministic_corpus() -> list[tuple[str, Graph]]:
    """A fixed set of structurally diverse small graphs used across
    parametrized tests (names keep failures readable)."""
    return [
        ("single_vertex", generators.empty_graph(1)),
        ("edgeless_5", generators.empty_graph(5)),
        ("single_edge", Graph(vertices=range(2), edges=[(0, 1)])),
        ("path_6", generators.path_graph(6)),
        ("cycle_5", generators.cycle_graph(5)),
        ("star_4", generators.star_graph(4)),
        ("double_star", generators.double_star_graph(3, 2)),
        ("triangle", generators.complete_graph(3)),
        ("k5", generators.complete_graph(5)),
        ("k23", generators.complete_bipartite_graph(2, 3)),
        ("grid_3x3", generators.grid_graph(3, 3)),
        ("caterpillar", generators.caterpillar_graph(3, 2)),
        ("star_plus_isolated", generators.star_plus_isolated(3, 3)),
        ("star_of_stars", generators.star_of_stars(3, 2)),
        ("two_triangles", generators.disjoint_union(
            [generators.complete_graph(3), generators.complete_graph(3)]
        )),
    ]
