"""Tests for the Padberg–Wolsey separation oracle
(:func:`repro.lp.forest_core.violated_forest_sets`)."""

from itertools import combinations
from unittest import mock

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest
from scipy.sparse.csgraph import maximum_flow

from repro.flow.maxflow import INFINITY, FlowNetwork
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from repro.lp import forest_core
from repro.lp.forest_core import violated_forest_sets

from .strategies import graph_arrays, small_graphs, small_graphs_with_edge


def reference_violated_forest_sets(n, u, v, x, tolerance=1e-7, max_sets=256):
    """The oracle as one float :class:`FlowNetwork` min cut per pin.

    The batched oracle must return exactly this list: same sets, same
    order (support components by label, pins ascending), same
    deduplication and ``max_sets`` cut-off.
    """
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    support = np.asarray(x) > tolerance
    if not support.any():
        return []
    su, sv, sid = u[support], v[support], np.nonzero(support)[0]
    sx = np.asarray(x)[support]
    labels = CompactGraph.from_edge_arrays(n, su, sv).component_labels()
    edge_root = labels[su]
    order = np.argsort(edge_root, kind="stable")
    su, sv, sx, sid = su[order], sv[order], sx[order], sid[order]
    boundaries = np.nonzero(np.diff(edge_root[order]))[0] + 1
    starts = np.concatenate([[0], boundaries, [su.size]])

    violated = []
    seen = set()
    for g in range(starts.size - 1):
        lo, hi = int(starts[g]), int(starts[g + 1])
        if hi <= lo:
            continue
        cu, cv, cx = su[lo:hi], sv[lo:hi], sx[lo:hi]
        verts = np.unique(np.concatenate([cu, cv]))
        if verts.size < 2:
            continue
        total_weight = float(cx.sum())
        for pin in verts.tolist():
            network = FlowNetwork()
            for k in range(cu.size):
                edge_node = n + int(sid[lo + k])
                network.add_edge(-1, edge_node, float(cx[k]))
                network.add_edge(edge_node, int(cu[k]), INFINITY)
                network.add_edge(edge_node, int(cv[k]), INFINITY)
            for w in verts.tolist():
                network.add_edge(int(w), -2, 0.0 if w == pin else 1.0)
            flow = network.max_flow(-1, -2)
            excess = total_weight - flow
            if excess <= tolerance:
                continue
            source_side = network.min_cut_source_side(-1)
            chosen = frozenset(
                int(label)
                for label in source_side
                if isinstance(label, int) and 0 <= label < n
            ) | frozenset([int(pin)])
            if len(chosen) >= 2 and chosen not in seen:
                seen.add(chosen)
                violated.append(chosen)
                if len(violated) >= max_sets:
                    return violated
    return violated


# Edge-weight families for the differential tests.  Halves are exact in
# the integer network; thirds tie in the reals but not in floats; the
# last family mixes exact ties above 1 with generic values, so the
# capacity scale drops below 2**30.
X_FAMILIES = {
    "halves": lambda rng, m: rng.integers(0, 3, m) / 2,
    "thirds": lambda rng, m: rng.integers(0, 4, m) / 3,
    "uniform": lambda rng, m: rng.random(m),
    "up-to-3": lambda rng, m: np.where(
        rng.random(m) < 0.5, rng.integers(0, 7, m) / 2, rng.uniform(0.0, 3.0, m)
    ),
}


def _spy(func, calls):
    """``func`` wrapped to append each call's arguments to ``calls``."""

    def wrapper(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    return wrapper


def _raise(*args, **kwargs):
    raise AssertionError("the float FlowNetwork fallback ran")


def _violation(u, v, x, subset) -> float:
    """``x(E[S]) − (|S| − 1)`` for the vertex set ``subset``."""
    inside = sum(
        float(w)
        for a, b, w in zip(u.tolist(), v.tolist(), x.tolist())
        if a in subset and b in subset
    )
    return inside - (len(subset) - 1)


def _best_per_support_vertex(n, u, v, x, tolerance) -> dict[int, float]:
    """For each vertex on an edge with ``x > tolerance``: the largest
    violation, on those edges, of a set inside its support component."""
    support = x > tolerance
    su, sv, sx = u[support], v[support], x[support]
    labels = CompactGraph.from_edge_arrays(n, su, sv).component_labels()
    ends = np.concatenate([su, sv])
    best = {}
    for label in np.unique(labels[ends]).tolist():
        members = np.unique(ends[labels[ends] == label])
        for k in range(1, members.size + 1):
            for subset in combinations(members.tolist(), k):
                violation = _violation(su, sv, sx, frozenset(subset))
                for vertex in subset:
                    best[vertex] = max(best.get(vertex, -np.inf), violation)
    return best


def _brute_force_most_violated(n, u, v, x) -> float:
    """Reference: maximize x(E[S]) - |S| + 1 over all S with |S| >= 2."""
    return max(
        _violation(u, v, x, frozenset(subset))
        for k in range(2, n + 1)
        for subset in combinations(range(n), k)
    )


class TestOracleFindsViolations:
    def test_full_cycle_weight(self):
        n, u, v = graph_arrays(cycle_graph(4))
        x = np.ones(u.size)
        violated = violated_forest_sets(n, u, v, x)
        assert violated
        for subset in violated:
            assert _violation(u, v, x, subset) > 0

    def test_valid_point_certified(self):
        # A spanning tree indicator is inside the forest polytope.
        n, u, v = graph_arrays(complete_graph(4))
        x = (u == 0).astype(float)
        assert violated_forest_sets(n, u, v, x) == []

    def test_fractional_violation(self):
        n, u, v = graph_arrays(complete_graph(3))
        violated = violated_forest_sets(n, u, v, np.full(3, 0.9))  # 2.7 > 2
        assert violated
        assert frozenset([0, 1, 2]) in violated

    def test_fractional_feasible(self):
        n, u, v = graph_arrays(complete_graph(3))
        x = np.full(3, 2.0 / 3.0)  # sum = 2 = |S|-1, tight
        assert violated_forest_sets(n, u, v, x) == []

    def test_zero_vector(self):
        n, u, v = graph_arrays(star_graph(5))
        assert violated_forest_sets(n, u, v, np.zeros(u.size)) == []

    def test_max_sets_cap(self):
        # Many disjoint overweight triangles.
        n, u, v = graph_arrays(disjoint_union([complete_graph(3)] * 5))
        violated = violated_forest_sets(n, u, v, np.ones(u.size), max_sets=3)
        assert len(violated) == 3


class TestOracleSoundAndComplete:
    @given(small_graphs_with_edge(max_vertices=6), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_brute_force(self, g, seed):
        n, u, v = graph_arrays(g)
        x = np.random.default_rng(seed).random(u.size)
        brute_best = _brute_force_most_violated(n, u, v, x)
        found = violated_forest_sets(n, u, v, x, tolerance=1e-9)
        if brute_best > 1e-6:
            assert found, f"missed violation of {brute_best}"
            # soundness: every returned set is genuinely violated
            for subset in found:
                assert _violation(u, v, x, subset) > 1e-9
        else:
            for subset in found:
                assert _violation(u, v, x, subset) > 0


class TestMatchesReference:
    """The batched integer oracle against the per-pin float reference."""

    @given(
        small_graphs(min_vertices=2, max_vertices=8),
        st.sampled_from(sorted(X_FAMILIES)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-7, 1e-9]),
        st.sampled_from([1, 3, 256]),
    )
    @settings(max_examples=300)
    def test_same_list_in_same_order(self, g, family, seed, tolerance, max_sets):
        n, u, v = graph_arrays(g)
        x = X_FAMILIES[family](np.random.default_rng(seed), u.size)
        expected = reference_violated_forest_sets(n, u, v, x, tolerance, max_sets)
        assert violated_forest_sets(n, u, v, x, tolerance, max_sets) == expected

    @given(
        small_graphs(min_vertices=2, max_vertices=8),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-7, 1e-9]),
    )
    @settings(max_examples=100)
    def test_dyadic_weights_never_need_the_float_cut(self, g, seed, tolerance):
        """Multiples of 1/4 (and of 1/2 up to 3) are exact in the
        integer network, so every pin is verified or certified clean."""
        n, u, v = graph_arrays(g)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 5, u.size) / 4
        if rng.random() < 0.5:
            x = rng.integers(0, 7, u.size) / 2
        expected = reference_violated_forest_sets(n, u, v, x, tolerance)
        with mock.patch.object(FlowNetwork, "max_flow", _raise):
            assert violated_forest_sets(n, u, v, x, tolerance) == expected

    def test_uncertified_pins_fall_back_to_the_float_cut(self):
        """At tolerance 1e-12 the rounding slack of random weights
        exceeds the tolerance, so clean pins cannot be certified from the
        integer flow and run the float cut."""
        fallback = []
        graphs = [complete_graph(5), cycle_graph(6), disjoint_union(
            [complete_graph(4), cycle_graph(4)]
        )]
        for seed, graph in enumerate(graphs):
            n, u, v = graph_arrays(graph)
            x = np.random.default_rng(seed).random(u.size)
            expected = reference_violated_forest_sets(n, u, v, x, 1e-12)
            spy = _spy(FlowNetwork.max_flow, fallback)
            with mock.patch.object(FlowNetwork, "max_flow", spy):
                assert violated_forest_sets(n, u, v, x, 1e-12) == expected
        assert len(fallback) > 0

    def test_real_tie_keeps_the_smaller_set(self):
        """K4 plus a path 0–4–5–1, every weight 2/3: the K4 and the whole
        graph both have violation 1.  Rounding 2/3·K to nearest would
        make the larger set win by one unit for every pin; rounding down
        keeps the float network's choice."""
        u = np.array([0, 0, 0, 0, 1, 1, 1, 2, 4], dtype=np.int64)
        v = np.array([1, 2, 3, 4, 2, 3, 5, 3, 5], dtype=np.int64)
        x = np.full(u.size, 2 / 3)
        expected = reference_violated_forest_sets(6, u, v, x)
        assert expected == [frozenset(range(4)), frozenset(range(6))]
        with mock.patch.object(FlowNetwork, "max_flow", _raise):
            assert violated_forest_sets(6, u, v, x) == expected

    def test_violation_below_integer_resolution_found_by_float_cut(self):
        """A triangle violated by 3e-10: the integer network rounds the
        excess away, the flow bound cannot certify the pins, and the
        float cut finds the set."""
        n, u, v = graph_arrays(complete_graph(3))
        x = np.full(3, 2 / 3 + 1e-10)
        expected = reference_violated_forest_sets(n, u, v, x, 1e-12)
        assert expected == [frozenset({0, 1, 2})]
        fallback = []
        spy = _spy(FlowNetwork.max_flow, fallback)
        with mock.patch.object(FlowNetwork, "max_flow", spy):
            assert violated_forest_sets(n, u, v, x, 1e-12) == expected
        assert fallback

    def test_one_copy_per_call_gives_the_same_list(self):
        n, u, v = graph_arrays(disjoint_union([complete_graph(4), complete_graph(5)]))
        x = np.random.default_rng(3).integers(1, 4, u.size) / 3
        expected = reference_violated_forest_sets(n, u, v, x)
        assert expected
        calls = []
        spy = _spy(maximum_flow, calls)
        with mock.patch.object(forest_core, "maximum_flow", spy):
            assert violated_forest_sets(n, u, v, x) == expected
        assert len(calls) == 1
        calls.clear()
        with mock.patch.object(forest_core, "maximum_flow", spy), mock.patch.object(
            forest_core, "_MAX_FLOW_ARCS", 1
        ):
            assert violated_forest_sets(n, u, v, x) == expected
        assert len(calls) == 4 + 5  # one per pin

    def test_support_trees_run_no_flow(self):
        """A support component that is a tree with x ≤ 1 has no violated
        set, so it contributes no copy."""
        n, u, v = graph_arrays(disjoint_union([path_graph(5), star_graph(4)]))
        calls = []
        with mock.patch.object(forest_core, "maximum_flow", _spy(maximum_flow, calls)):
            assert violated_forest_sets(n, u, v, np.ones(u.size)) == []
        assert calls == []


class TestNearTies:
    """Cuts within ``m/K`` of each other can swap places in the integer
    network, so there the list may differ from the float reference.
    What holds for every input, as for the reference: each returned set
    is violated, and a support vertex lies in some returned set exactly
    when a violated set inside its support component contains it."""

    @given(
        small_graphs(min_vertices=2, max_vertices=8),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.25, 1.0, 4.0]),
        st.sampled_from([1e-7, 1e-9]),
    )
    @settings(max_examples=200)
    def test_sound_and_complete_per_vertex(self, g, seed, spread, tolerance):
        """Thirds perturbed by up to ``spread·m/K``."""
        n, u, v = graph_arrays(g)
        rng = np.random.default_rng(seed)
        noise = rng.uniform(-1.0, 1.0, u.size) * spread * u.size / 2**30
        x = np.clip(rng.integers(0, 4, u.size) / 3 + noise, 0.0, None)
        found = violated_forest_sets(n, u, v, x, tolerance)
        expected = reference_violated_forest_sets(n, u, v, x, tolerance)
        margin = 1e-12  # summation order differs between oracle and test
        for subset in found:
            assert _violation(u, v, x, subset) > tolerance - margin
        covered = set().union(*found)
        for vertex, best in _best_per_support_vertex(n, u, v, x, tolerance).items():
            if best > tolerance + margin:
                assert vertex in covered
            elif best <= tolerance - margin:
                assert vertex not in covered
        assert bool(found) == bool(expected)

    def test_near_tie_may_return_another_violated_set(self):
        """Star 1–{0, 2, 3}: ``{0, 1, 2}`` beats ``{1, 2}`` by 8.7e-10,
        less than one integer unit, so pins 1 and 2 stop at ``{1, 2}``;
        both sets are violated."""
        u = np.array([0, 1, 1], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        x = np.array([1 + 8.668064e-10, 1 + 2.3116773e-9, 1 / 3 - 2.4e-9])
        assert reference_violated_forest_sets(4, u, v, x, 1e-9) == [
            frozenset({0, 1, 2})
        ]
        found = violated_forest_sets(4, u, v, x, 1e-9)
        assert found == [frozenset({0, 1, 2}), frozenset({1, 2})]
        for subset in found:
            assert _violation(u, v, x, subset) > 1e-9


class TestCapacityOverflowGuard:
    """scipy's ``maximum_flow`` casts capacities to int32 without a range
    check, so the capacity scale must keep every capacity below 2**31."""

    @pytest.mark.parametrize(
        "graph, weight",
        [(complete_graph(4), 2.0), (complete_graph(3), 1e3)],
        ids=["k4-2", "triangle-1e3"],
    )
    def test_heavy_weights_fit_int32(self, graph, weight):
        n, u, v = graph_arrays(graph)
        x = np.full(u.size, weight)
        expected = reference_violated_forest_sets(n, u, v, x)
        assert expected == [frozenset(range(n))]
        calls = []
        with mock.patch.object(forest_core, "maximum_flow", _spy(maximum_flow, calls)):
            assert violated_forest_sets(n, u, v, x) == expected
        assert calls
        for network, _, _ in calls:
            assert 0 <= network.data.min() and network.data.max() <= 2**31 - 1

    def test_weights_beyond_any_scale_use_the_float_cut(self):
        n, u, v = graph_arrays(complete_graph(3))
        x = np.full(u.size, 2.0**31)
        calls = []
        with mock.patch.object(forest_core, "maximum_flow", _spy(maximum_flow, calls)):
            assert violated_forest_sets(n, u, v, x) == [frozenset({0, 1, 2})]
        assert calls == []


def _ones_and_fractions(graph, rng):
    """A weight per edge of ``graph``: every component, at random,
    either 0/1 weights (mostly ones) or one of :data:`X_FAMILIES`, so
    the support has all-ones components beside fractional ones."""
    n, u, v = graph_arrays(graph)
    x = np.zeros(u.size)
    if not u.size:
        return n, u, v, x
    labels = CompactGraph.from_edge_arrays(n, u, v).component_labels()[u]
    families = ["ones", "ones"] + sorted(X_FAMILIES)
    for label in np.unique(labels).tolist():
        inside = labels == label
        family = families[int(rng.integers(len(families)))]
        if family == "ones":
            x[inside] = rng.random(int(inside.sum())) < 0.8
        else:
            x[inside] = X_FAMILIES[family](rng, int(inside.sum()))
    return n, u, v, x


class TestPeeling:
    """Support components whose weights are all exactly 1.0 are served
    by peeling to the 2-core instead of the flow network, with the same
    list as the float reference."""

    @given(
        small_graphs(min_vertices=2, max_vertices=8),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-7, 1e-9]),
        st.sampled_from([1, 3, 256]),
    )
    @settings(max_examples=300)
    def test_zero_one_points_match_the_reference(
        self, g, seed, tolerance, max_sets
    ):
        n, u, v = graph_arrays(g)
        rng = np.random.default_rng(seed)
        x = (rng.random(u.size) < rng.choice([0.5, 0.8, 1.0])).astype(float)
        expected = reference_violated_forest_sets(n, u, v, x, tolerance, max_sets)
        assert violated_forest_sets(n, u, v, x, tolerance, max_sets) == expected

    @given(
        st.lists(small_graphs(min_vertices=2, max_vertices=6), min_size=2, max_size=4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-7, 1e-9]),
        st.sampled_from([1, 3, 256]),
    )
    @settings(max_examples=200)
    def test_mixed_points_match_the_reference(
        self, parts, seed, tolerance, max_sets
    ):
        n, u, v, x = _ones_and_fractions(
            disjoint_union(parts), np.random.default_rng(seed)
        )
        expected = reference_violated_forest_sets(n, u, v, x, tolerance, max_sets)
        assert violated_forest_sets(n, u, v, x, tolerance, max_sets) == expected

    def test_all_ones_with_cycles_runs_no_flow(self):
        n, u, v = graph_arrays(
            disjoint_union([complete_graph(4), cycle_graph(5), path_graph(3)])
        )
        x = np.ones(u.size)
        expected = reference_violated_forest_sets(n, u, v, x)
        assert expected
        calls = []
        with mock.patch.object(
            forest_core, "maximum_flow", _spy(maximum_flow, calls)
        ), mock.patch.object(FlowNetwork, "max_flow", _raise):
            assert violated_forest_sets(n, u, v, x) == expected
        assert calls == []

    def test_triangle_with_a_pendant_path(self):
        """Triangle 0–1–2 with the path 2–3–4: pins 0, 1 and 2 get the
        triangle, pin 3 the triangle plus 3, pin 4 plus 3 and 4."""
        u = np.array([0, 0, 1, 2, 3], dtype=np.int64)
        v = np.array([1, 2, 2, 3, 4], dtype=np.int64)
        x = np.ones(u.size)
        triangle = frozenset({0, 1, 2})
        assert forest_core._peeled_sets(np.arange(5), u, v, 1e-7) == [
            triangle,
            triangle,
            triangle,
            triangle | {3},
            triangle | {3, 4},
        ]
        expected = [triangle, triangle | {3}, triangle | {3, 4}]
        assert reference_violated_forest_sets(5, u, v, x) == expected
        calls = []
        with mock.patch.object(forest_core, "maximum_flow", _spy(maximum_flow, calls)):
            assert violated_forest_sets(5, u, v, x) == expected
        assert calls == []

    def test_a_weight_just_below_one_takes_the_flow(self):
        n, u, v = graph_arrays(cycle_graph(5))
        x = np.ones(u.size)
        x[2] = 1 - 2**-52
        expected = reference_violated_forest_sets(n, u, v, x)
        assert expected == [frozenset(range(5))]
        calls = []
        with mock.patch.object(forest_core, "maximum_flow", _spy(maximum_flow, calls)):
            assert violated_forest_sets(n, u, v, x) == expected
        assert len(calls) == 1
