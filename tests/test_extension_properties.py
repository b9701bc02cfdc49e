"""Property tests for Lemma 3.3: the extension family's guarantees.

Checks, on a deterministic corpus and on random small graphs:
underestimation, monotonicity in Δ, Δ-Lipschitzness w.r.t. node removal
and node insertion, exactness on graphs with spanning Δ-forests, and the
tightness of the Lipschitz constant (Remark 3.4).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.extension import evaluate_lipschitz_extension, extension_for
from repro.graphs.compact import CompactGraph, as_compact
from repro.graphs.components import spanning_forest_size
from repro.graphs.forests import (
    has_spanning_delta_forest_exact,
)
from repro.graphs.generators import empty_graph, star_graph, with_hub

from .strategies import deterministic_corpus, small_graphs

_DELTAS = [1, 2, 3, 4]


class TestLemma33OnCorpus:
    def test_underestimation(self):
        for name, g in deterministic_corpus():
            ext = extension_for(g)
            for delta in _DELTAS:
                assert ext.value(delta) <= spanning_forest_size(g) + 1e-6, (
                    name,
                    delta,
                )

    def test_monotonicity_in_delta(self):
        for name, g in deterministic_corpus():
            ext = extension_for(g)
            values = [ext.value(d) for d in _DELTAS]
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-6, name

    def test_exact_when_spanning_delta_forest_exists(self):
        """Item 1 of Lemma 3.3."""
        for name, g in deterministic_corpus():
            if g.number_of_vertices() > 7:
                continue
            ext = extension_for(g)
            for delta in _DELTAS:
                if has_spanning_delta_forest_exact(g, delta):
                    assert ext.value(delta) == pytest.approx(
                        spanning_forest_size(g), abs=1e-5
                    ), (name, delta)


class TestLemma33PropertyBased:
    @given(small_graphs(max_vertices=6), st.integers(1, 4))
    @settings(max_examples=60)
    def test_underestimation_and_monotone(self, g, delta):
        ext = extension_for(g)
        value = ext.value(delta)
        assert value <= spanning_forest_size(g) + 1e-6
        assert value <= ext.value(delta + 1) + 1e-6

    @given(small_graphs(min_vertices=1, max_vertices=6), st.integers(1, 4))
    @settings(max_examples=60)
    def test_lipschitz_under_node_removal(self, g, delta):
        """|f_Δ(G) − f_Δ(G−v)| ≤ Δ for every vertex v."""
        value = evaluate_lipschitz_extension(g, delta)
        for v in g.vertex_list():
            smaller = evaluate_lipschitz_extension(g.without_vertex(v), delta)
            assert abs(value - smaller) <= delta + 1e-5
            # removal can only decrease (monotone under node addition)
            assert smaller <= value + 1e-6

    @given(small_graphs(min_vertices=1, max_vertices=5), st.integers(1, 4))
    @settings(max_examples=40)
    def test_lipschitz_under_hub_insertion(self, g, delta):
        """Inserting the worst-case (all-adjacent) node moves f_Δ by ≤ Δ."""
        value = evaluate_lipschitz_extension(g, delta)
        bigger = evaluate_lipschitz_extension(with_hub(g), delta)
        assert bigger >= value - 1e-6
        assert bigger - value <= delta + 1e-5

    @given(small_graphs(max_vertices=6), st.integers(1, 4))
    @settings(max_examples=40)
    def test_exactness_item_1(self, g, delta):
        if has_spanning_delta_forest_exact(g, delta):
            assert evaluate_lipschitz_extension(g, delta) == pytest.approx(
                spanning_forest_size(g), abs=1e-5
            )


class TestRemark34:
    """The Lipschitz constant Δ is tight: G = Δ isolated vertices,
    G' = G plus a hub; f_Δ(G) = 0 and f_Δ(G') = Δ."""

    @pytest.mark.parametrize("delta", [1, 2, 3, 5])
    def test_tightness(self, delta):
        g = empty_graph(delta)
        g_prime = with_hub(g)
        assert evaluate_lipschitz_extension(g, delta) == 0.0
        assert evaluate_lipschitz_extension(g_prime, delta) == pytest.approx(
            float(delta)
        )


class TestExtensionObject:
    def test_caching(self):
        g = star_graph(4)
        ext = extension_for(g)
        ext.value(2)
        ext.value(2)
        assert ext.evaluated_deltas() == [2.0]

    def test_gap_and_exactness(self):
        g = star_graph(4)
        ext = extension_for(g)
        assert ext.gap(4) == pytest.approx(0.0)
        assert ext.is_exact_at(4)
        assert ext.gap(2) == pytest.approx(2.0)
        assert not ext.is_exact_at(2)

    def test_true_value(self):
        g = star_graph(3)
        assert extension_for(g).true_value == 3

    def test_graph_property(self):
        g = star_graph(2)
        compact = as_compact(g)
        assert extension_for(compact).graph is compact
        converted = extension_for(g).graph
        assert isinstance(converted, CompactGraph)
        assert converted == compact
