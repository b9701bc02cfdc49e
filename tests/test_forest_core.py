"""Tests for the int-native forest-LP core."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.graphs.compact import CompactGraph
from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro import telemetry
from repro.lp import forest_core

from .strategies import connected_components, graph_arrays

# G(15, 0.26) drawn with seed 57.  At Δ = 2 the first cutting-plane LP
# is 14, the whole-set bound n − 1, and round 2 certifies f_2 = 14.
# Past a budget of one round (the ``one_round_budget`` fixture) column
# generation certifies 14; its first master alone leaves the window
# [13.5, 14].
AT_BOUND_COMPONENT = (
    15,
    np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 4, 5,
              5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 8, 10, 10, 10, 11]),
    np.array([3, 4, 8, 12, 6, 9, 11, 4, 8, 14, 6, 7, 8, 10, 12, 11, 7,
              9, 12, 8, 9, 10, 12, 8, 10, 9, 10, 11, 12, 12, 13, 14, 14]),
)

# A connected G(14, 18).  At Δ = 2 the first cutting-plane LP is 12,
# below the whole-set bound n − 1 = 13, and round 2 certifies f_2 = 12;
# at Δ = 4 the first LP is 13 and round 2 certifies it.
BELOW_BOUND_COMPONENT = (
    14,
    np.array([0, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 5, 6, 7, 9, 9, 10]),
    np.array([1, 3, 5, 9, 10, 12, 8, 10, 4, 6, 8, 6, 7, 10, 8, 11, 12, 13]),
)

# A connected G(19, 36).  At Δ = 3 every cutting-plane LP is 18 = n − 1:
# the objective stalls while rounds 1–4 add cuts, and round 5 certifies
# f_3 = 18.
STALLING_COMPONENT = (
    19,
    np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4,
              4, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7, 8, 8, 8, 9, 11, 14, 14]),
    np.array([1, 4, 11, 14, 3, 6, 7, 9, 14, 4, 10, 12, 17, 18, 5, 8, 10, 11,
              12, 18, 7, 16, 13, 14, 10, 12, 15, 17, 18, 11, 13, 16, 14, 14,
              16, 17]),
)

# The 44-vertex, 70-edge giant component of layerbench giant-lp seed 4,
# graph 7, as the extension hands it to the LP.  Its f_2 is 239/6, not
# a half-integer: the cutting plane certifies it in two rounds, and a
# window left open past the round budget must hold it.
NON_HALF_INTEGRAL_COMPONENT = (
    44,
    np.array([0, 0, 1, 1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 4, 4, 5, 5, 5, 5, 5,
              5, 5, 6, 7, 7, 8, 8, 8, 9, 9, 9, 9, 10, 11, 11, 11, 12, 12, 13,
              13, 13, 14, 15, 15, 16, 17, 17, 18, 19, 19, 21, 21, 21, 22, 22,
              23, 24, 26, 27, 28, 28, 28, 30, 30, 31, 31, 32, 34, 36, 37]),
    np.array([25, 41, 2, 8, 12, 24, 31, 34, 22, 25, 38, 40, 42, 15, 27, 6,
              15, 28, 32, 37, 38, 41, 9, 27, 33, 13, 14, 33, 11, 20, 21, 25,
              27, 12, 19, 35, 27, 33, 17, 24, 27, 43, 17, 23, 25, 18, 28, 32,
              26, 35, 31, 35, 37, 27, 40, 39, 27, 29, 36, 34, 39, 43, 31, 39,
              35, 41, 40, 43, 40, 38]),
)


@pytest.fixture
def one_round_budget(monkeypatch):
    """Cap ``solve_component``'s cutting plane at one round, so column
    generation closes the window past the budget.  The memo key does
    not carry the cap, so every memoized solve is dropped before and
    after."""
    forest_core.clear_solve_cache()
    monkeypatch.setattr(forest_core, "_CUTTING_PLANE_ROUNDS", 1)
    yield
    forest_core.clear_solve_cache()


class TestTreeDP:
    @given(n=st.integers(2, 40), delta=st.integers(1, 4), seed=st.integers(0, 500))
    @settings(max_examples=60)
    def test_matches_exhaustive_on_random_trees(self, n, delta, seed):
        """On trees the TU property makes the LP integral; the DP must
        equal the exhaustive LP optimum exactly."""
        tree = random_tree(n, np.random.default_rng(seed))
        count, u, v = graph_arrays(tree)
        dp = forest_core.tree_component_value(count, u, v, delta)
        if count <= forest_core.EXACT_THRESHOLD:
            exact = forest_core.exhaustive_component_value(count, u, v, delta)
            assert dp.value == pytest.approx(exact.value, abs=1e-6)
        # The certificate is a feasible degree-bounded subforest.
        chosen = dp.x > 0.5
        degrees = np.bincount(
            np.concatenate([u[chosen], v[chosen]]), minlength=count
        )
        assert degrees.max(initial=0) <= delta
        assert chosen.sum() == dp.value

    def test_star_clips_at_delta(self):
        count, u, v = graph_arrays(star_graph(6))
        for delta in range(1, 8):
            result = forest_core.tree_component_value(count, u, v, delta)
            assert result.value == pytest.approx(min(delta, 6))

    def test_caterpillar_known_value(self):
        # Spine of 3, 2 legs each: delta=1 yields a maximum matching.
        g = caterpillar_graph(3, 2)
        count, u, v = graph_arrays(g)
        result = forest_core.tree_component_value(count, u, v, 1)
        exact = forest_core.exhaustive_component_value(count, u, v, 1).value
        assert result.value == pytest.approx(exact)

    def test_rejects_cyclic_input_via_driver(self):
        """solve_component must not route a non-forest with m == n−1
        (possible only for disconnected misuse) into the DP."""
        # Triangle + isolated vertex: n=4, m=3 == n-1 but cyclic.
        u = np.array([0, 0, 1], dtype=np.int64)
        v = np.array([1, 2, 2], dtype=np.int64)
        result = forest_core.solve_component(4, u, v, 1)
        assert result.value == pytest.approx(1.5)


class TestSolveComponent:
    @given(n=st.integers(3, 9), delta=st.integers(1, 4))
    @settings(max_examples=30)
    def test_complete_graph_matches_exhaustive(self, n, delta):
        count, u, v = graph_arrays(complete_graph(n))
        core = forest_core.solve_component(count, u, v, delta)
        reference = forest_core.exhaustive_component_value(count, u, v, delta)
        assert core.value == pytest.approx(reference.value, abs=1e-6)

    def test_large_component_certified(self):
        g = complete_graph(16)  # above EXACT_THRESHOLD: cutting plane
        count, u, v = graph_arrays(g)
        core = forest_core.solve_component(count, u, v, 2)
        # f_2(K_16): a Hamiltonian path achieves n-1 = 15 with max degree 2.
        assert core.value == pytest.approx(15.0, abs=1e-5)
        assert core.gap == pytest.approx(0.0, abs=1e-5)

    def test_invalid_delta(self):
        with pytest.raises(ValueError, match="positive"):
            forest_core.solve_component(
                2, np.array([0]), np.array([1]), 0
            )


class TestSeparationOracle:
    def test_feasible_point_passes(self):
        g = path_graph(5)
        count, u, v = graph_arrays(g)
        x = np.full(u.size, 0.5)
        assert forest_core.violated_forest_sets(count, u, v, x) == []

    def test_overfull_cycle_detected(self):
        # Triangle with x = 1 on each edge violates x(E[S]) <= 2.
        u = np.array([0, 0, 1], dtype=np.int64)
        v = np.array([1, 2, 2], dtype=np.int64)
        violated = forest_core.violated_forest_sets(3, u, v, np.ones(3))
        assert any(s == frozenset({0, 1, 2}) for s in violated)


class TestCuttingPlane:
    def test_matches_exhaustive_small(self):
        g = complete_graph(5)
        count, u, v = graph_arrays(g)
        cp = forest_core.cutting_plane_component(count, u, v, 2, 1e-7, 60)
        exact = forest_core.exhaustive_component_value(count, u, v, 2)
        assert cp.status == "exact"
        assert cp.value == pytest.approx(exact.value, abs=1e-6)
        assert cp.gap == 0.0

    def test_round_cap_returns_the_last_lp_value_as_an_outer_bound(self):
        g = complete_graph(6)
        count, u, v = graph_arrays(g)
        result = forest_core.cutting_plane_component(count, u, v, 2, 1e-7, 1)
        assert result.status == "outer-bound" and result.lp_rounds == 1
        assert result.value == 0.0 and not result.x.any()
        # The first LP sits at the whole-set bound n − 1 = 5.
        assert result.gap == 5.0


class TestColumnGenerationCore:
    @given(n=st.integers(3, 8), delta=st.integers(1, 3))
    @settings(max_examples=20)
    def test_lower_bound_and_agreement(self, n, delta):
        g = complete_graph(n)
        count, u, v = graph_arrays(g)
        cg = forest_core.column_generation_component(count, u, v, delta)
        exact = forest_core.exhaustive_component_value(count, u, v, delta)
        assert cg.value <= exact.value + 1e-6
        if cg.gap <= 1e-6:
            assert cg.value == pytest.approx(exact.value, abs=1e-5)

    def test_mixture_is_feasible(self):
        g = complete_graph(6)
        count, u, v = graph_arrays(g)
        cg = forest_core.column_generation_component(count, u, v, 2)
        degrees = np.zeros(count)
        np.add.at(degrees, u, cg.x)
        np.add.at(degrees, v, cg.x)
        assert degrees.max() <= 2 + 1e-6
        assert forest_core.violated_forest_sets(count, u, v, cg.x, 1e-5) == []


class TestCertificateCounter:
    @staticmethod
    def _counts():
        snap = telemetry.snapshot()
        return {
            status: telemetry.counter_value(
                snap, "repro_lp_certificates_total", status=status
            )
            for status in forest_core.CERTIFICATE_STATUSES
        }

    def test_exhaustive_solve_and_memo_hit_count_exact(self):
        forest_core.clear_solve_cache()
        count, u, v = graph_arrays(complete_graph(5))
        before = self._counts()
        for _ in range(2):  # a solve, then a memo hit
            assert forest_core.solve_component(count, u, v, 2).status == "exact"
        after = self._counts()
        assert after["exact"] == before["exact"] + 2
        assert {s: after[s] - before[s] for s in after if s != "exact"} == {
            "approx": 0, "outer-bound": 0
        }

    def test_labels_are_the_three_statuses(self):
        assert forest_core.CERTIFICATE_STATUSES == (
            "exact", "approx", "outer-bound"
        )
        count, u, v = graph_arrays(complete_graph(6))
        produced = {
            forest_core.exhaustive_component_value(count, u, v, 2).status,
            forest_core.column_generation_component(
                *AT_BOUND_COMPONENT, 2, max_iterations=1
            ).status,
            forest_core.cutting_plane_component(
                *BELOW_BOUND_COMPONENT, 2, 1e-7, 1
            ).status,
        }
        assert produced == set(forest_core.CERTIFICATE_STATUSES)
        entry = telemetry.snapshot()["repro_lp_certificates_total"]
        assert entry["labels"] == ["status"]
        assert {key for (key,), _ in entry["values"]} <= produced


def _connected_gnm_corpus(seed: int, per_size: int):
    """Connected G(n, m) graphs with n in {14, 15, 16} (just above
    ``EXACT_THRESHOLD``, so ``solve_component`` takes the cutting
    plane) and m drawn from [1.2n, 2.2n), as canonical arrays."""
    rng = np.random.default_rng(seed)
    corpus = []
    for n in (14, 15, 16):
        pairs = np.array(
            [(a, b) for a in range(n) for b in range(a + 1, n)], dtype=np.int64
        )
        drawn = 0
        while drawn < per_size:
            m = int(rng.integers(int(np.ceil(1.2 * n)), int(np.ceil(2.2 * n))))
            chosen = pairs[np.sort(rng.choice(len(pairs), size=m, replace=False))]
            graph = CompactGraph.from_edge_arrays(n, chosen[:, 0], chosen[:, 1])
            if graph.is_connected():
                corpus.append(graph_arrays(graph))
                drawn += 1
    return corpus


class TestCorpusAgainstExhaustive:
    """Every value ``solve_component`` returns above ``EXACT_THRESHOLD``
    is certified, so check it against the LP with every forest
    constraint materialized, on a corpus small enough to enumerate
    (n <= 16)."""

    def test_default_budget_values_equal_the_exhaustive_lp(self):
        assert forest_core.EXACT_THRESHOLD < 14
        forest_core.clear_solve_cache()
        for count, u, v in _connected_gnm_corpus(seed=3, per_size=10):
            for delta in (1, 2, 3):
                result = forest_core.solve_component(count, u, v, delta)
                exact = forest_core.exhaustive_component_value(count, u, v, delta)
                assert result.status == "exact" and result.gap == 0.0
                assert abs(result.value - exact.value) <= 1e-9, (count, delta)
                # ``x`` is a feasible point of that value.
                degree = np.bincount(u, result.x, count) + np.bincount(
                    v, result.x, count
                )
                assert degree.max() <= delta + 1e-9
                assert forest_core.violated_forest_sets(count, u, v, result.x) == []
                assert result.x.sum() == pytest.approx(result.value, abs=1e-9)

    def test_windows_past_the_budget_hold_the_exhaustive_lp(
        self, monkeypatch, one_round_budget
    ):
        """One cutting-plane round leaves most of the corpus to column
        generation, whose window must hold the optimum as it stands."""
        windows = []
        column_generation = forest_core.column_generation_component

        def record(*args, **kwargs):
            windows.append(column_generation(*args, **kwargs))
            return windows[-1]

        monkeypatch.setattr(forest_core, "column_generation_component", record)
        for count, u, v in _connected_gnm_corpus(seed=3, per_size=10):
            for delta in (1, 2, 3):
                result = forest_core.solve_component(count, u, v, delta)
                exact = forest_core.exhaustive_component_value(count, u, v, delta)
                assert result.status in ("exact", "approx")
                assert (
                    result.value - 1e-9
                    <= exact.value
                    <= result.value + result.gap + 1e-9
                ), (count, delta)
        assert len(windows) >= 5, "the corpus no longer exercises column generation"


def _giant_component_corpus(seed: int, count: int):
    """Connected uniform G(n, 3n/2) graphs with n drawn from [40, 64]:
    the mean-degree-3 giant components that dominate LP time, as
    canonical arrays (draws that are not connected are skipped)."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < count:
        n = int(rng.integers(40, 65))
        u, v = np.triu_indices(n, 1)
        pick = np.sort(rng.choice(u.size, size=3 * n // 2, replace=False))
        graph = CompactGraph.from_edge_arrays(n, u[pick], v[pick])
        if graph.is_connected():
            corpus.append(graph_arrays(graph))
    return corpus


class TestNonHalfIntegralOptimum:
    """``f_2`` of ``NON_HALF_INTEGRAL_COMPONENT`` is 239/6: no value may
    stand in for it, wherever the cutting plane stops."""

    def test_default_budget_certifies_it(self):
        forest_core.clear_solve_cache()
        result = forest_core.solve_component(*NON_HALF_INTEGRAL_COMPONENT, 2)
        assert result.status == "exact" and result.gap == 0.0
        assert abs(result.value - 239 / 6) <= 1e-9

    def test_window_past_the_budget_holds_it(self, one_round_budget):
        result = forest_core.solve_component(*NON_HALF_INTEGRAL_COMPONENT, 2)
        assert result.status in ("exact", "approx")
        # The window in solver floats: column generation's master value
        # may sit a few ulps above the optimum it certifies.
        assert result.value - 1e-9 <= 239 / 6 <= result.value + result.gap + 1e-9


class TestMatchingFastPath:
    """``f_1`` is half a maximum matching of the bipartite double cover,
    with no LP solve."""

    @given(connected_components(min_vertices=2, max_vertices=13))
    @settings(max_examples=60)
    def test_equals_the_exhaustive_lp(self, component):
        count, u, v = component
        result = forest_core.solve_component(count, u, v, 1)
        exact = forest_core.exhaustive_component_value(count, u, v, 1)
        assert result.status == "exact"
        assert abs(result.value - exact.value) <= 1e-9
        self._assert_fractional_matching(count, u, v, result)

    def test_equals_the_lp_on_giant_components(self):
        for count, u, v in _giant_component_corpus(seed=5, count=20):
            result = forest_core.solve_component(count, u, v, 1)
            lp = forest_core.solve_component(count, u, v, 1, use_fast_paths=False)
            assert result.value == lp.value
            assert result.lp_rounds == 0 and lp.lp_rounds > 0
            self._assert_fractional_matching(count, u, v, result)

    @staticmethod
    def _assert_fractional_matching(count, u, v, result):
        """``x`` has every vertex load at most 1, sums to the value and
        violates no forest constraint."""
        assert set(np.unique(result.x).tolist()) <= {0.0, 0.5, 1.0}
        load = np.bincount(u, result.x, count) + np.bincount(v, result.x, count)
        assert load.max() <= 1.0
        assert result.x.sum() == result.value
        assert forest_core.violated_forest_sets(count, u, v, result.x) == []


def _linprog_master(columns, u, v, n, delta):
    """The restricted master through ``linprog``: maximize ``Σ |F| μ_F``
    over ``μ ≥ 0`` with ``Σ μ_F deg_F(w) ≤ Δ`` and ``Σ μ_F = 1``."""
    degrees = np.zeros((n, len(columns)))
    for j, column in enumerate(columns):
        np.add.at(degrees[:, j], u[column], 1.0)
        np.add.at(degrees[:, j], v[column], 1.0)
    return linprog(
        -np.array([float(len(column)) for column in columns]),
        A_ub=sparse.csr_matrix(degrees),
        b_ub=np.full(n, float(delta)),
        A_eq=np.ones((1, len(columns))),
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
    )


class TestHighsModel:
    """The cutting plane keeps one warm HiGHS model per call and the
    column-generation master solves cold through the same binding; only
    the exhaustive LP still goes through ``linprog``."""

    def test_cutting_plane_and_column_generation_skip_linprog(
        self, monkeypatch, one_round_budget
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(forest_core, "linprog", refuse)
        count, u, v = AT_BOUND_COMPONENT
        cp = forest_core.cutting_plane_component(count, u, v, 2, 1e-7, 60)
        cg = forest_core.column_generation_component(count, u, v, 2)
        assert cp.status == "exact"
        assert cg.value <= cp.value + 1e-9
        for delta in (2, 3):
            forest_core.solve_component(count, u, v, delta)

    @pytest.fixture
    def models(self, monkeypatch):
        """Every ``_HighsModel`` built, and every solve, in call order."""
        built, solved = [], []

        class Spy(forest_core._HighsModel):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

            def solve(self):
                solved.append(self)
                return super().solve()

        monkeypatch.setattr(forest_core, "_HighsModel", Spy)
        return built, solved

    @pytest.mark.parametrize(
        "component, delta, max_rounds, status",
        [
            (BELOW_BOUND_COMPONENT, 2, 60, "exact"),  # in 2 rounds
            (BELOW_BOUND_COMPONENT, 2, 1, "outer-bound"),  # last rows appended
            (AT_BOUND_COMPONENT, 2, 60, "exact"),  # in 2 rounds
            (STALLING_COMPONENT, 3, 60, "exact"),  # in 5 rounds
            (STALLING_COMPONENT, 3, 2, "outer-bound"),  # round cap
        ],
    )
    def test_one_model_per_call_with_rows_appended(
        self, models, component, delta, max_rounds, status
    ):
        """One warm cutting-plane model per call, solved once a round."""
        built, solved = models
        count, u, v = component
        result = forest_core.cutting_plane_component(
            count, u, v, delta, 1e-7, max_rounds
        )
        assert result.status == status
        (plane,) = built
        assert solved == [plane] * result.lp_rounds
        rows = plane._highs.getNumRow()
        assert rows == count + 1 + result.constraints_added

    @pytest.mark.parametrize(
        "component, delta, rounds",
        [
            (BELOW_BOUND_COMPONENT, 4, 2),
            (graph_arrays(complete_graph(14)), 2, 4),
            (STALLING_COMPONENT, 3, 5),
        ],
    )
    def test_whole_set_bound_is_certified_by_the_plane_alone(
        self, models, component, delta, rounds
    ):
        """A first LP at ``n − 1`` runs the same loop as any other:
        rounds of cuts on the one model until the oracle passes."""
        built, solved = models
        count, u, v = component
        result = forest_core.cutting_plane_component(
            count, u, v, delta, 1e-7, 60
        )
        assert result.status == "exact" and result.value == count - 1
        assert result.lp_rounds == rounds
        (plane,) = built
        assert solved == [plane] * rounds

    def test_master_solves_match_linprog_bit_for_bit(self, monkeypatch):
        problems = []
        solve_master = forest_core._solve_master

        def record(columns, u, v, n, delta):
            problems.append((list(columns), u, v, n, delta))
            return solve_master(columns, u, v, n, delta)

        monkeypatch.setattr(forest_core, "_solve_master", record)
        for count, u, v in _connected_gnm_corpus(seed=5, per_size=2):
            for delta in (1, 2, 3):
                forest_core.column_generation_component(
                    count, u, v, delta, max_iterations=8
                )
        assert len(problems) >= 50
        for columns, u, v, n, delta in problems:
            ours = solve_master(columns, u, v, n, delta)
            reference = _linprog_master(columns, u, v, n, delta)
            duals = np.concatenate(
                [reference.ineqlin.marginals, reference.eqlin.marginals]
            )
            assert ours.fun == reference.fun
            assert ours.x.tobytes() == reference.x.tobytes()
            assert ours.row_dual.tobytes() == duals.tobytes()

    @given(connected_components(), st.sampled_from([1, 1.5, 2, 3]))
    @settings(max_examples=60)
    def test_cutting_plane_equals_exhaustive(self, component, delta):
        count, u, v = component
        result = forest_core.cutting_plane_component(
            count, u, v, delta, 1e-7, 60
        )
        exact = forest_core.exhaustive_component_value(count, u, v, delta)
        assert result.status == "exact"
        assert abs(result.value - exact.value) <= 1e-9
        degree = np.bincount(u, result.x, count) + np.bincount(v, result.x, count)
        assert degree.max() <= delta + 1e-9
        assert forest_core.violated_forest_sets(count, u, v, result.x) == []

    @staticmethod
    def _plane_results(corpus):
        return [
            (result.value.hex(), result.lp_rounds, result.x.tobytes())
            for count, u, v in corpus
            for delta in (2, 3)
            for result in [
                forest_core.cutting_plane_component(count, u, v, delta, 1e-7, 64)
            ]
        ]

    def test_pooled_objects_solve_as_fresh_ones(self, monkeypatch):
        """A HiGHS object reused from the pool gives a fresh object's
        floats: the same value (``float.hex``), rounds and ``x``."""
        corpus = _giant_component_corpus(seed=1, count=20)
        self._plane_results(corpus[:2])  # leave used objects in the pool
        assert forest_core._IDLE_HIGHS
        pooled = self._plane_results(corpus)

        class KeepsNothing(list):
            def append(self, highs):
                pass

        monkeypatch.setattr(forest_core, "_IDLE_HIGHS", KeepsNothing())
        assert self._plane_results(corpus) == pooled

    def test_live_models_never_share_an_object(self):
        lp = (
            np.array([-1.0]),
            np.zeros(1),
            np.ones(1),
            sparse.csc_array(np.ones((1, 1))),
            np.array([-np.inf]),
            np.array([1.0]),
        )
        with forest_core._HighsModel(*lp) as first, forest_core._HighsModel(
            *lp
        ) as second:
            assert first._highs is not second._highs
            assert first.solve().fun == second.solve().fun == -1.0
        idle = [id(highs) for highs in forest_core._IDLE_HIGHS]
        assert id(first._highs) in idle and id(second._highs) in idle
        with forest_core._HighsModel(*lp) as again, forest_core._HighsModel(
            *lp
        ) as other:
            assert again._highs is not other._highs
            assert {id(again._highs), id(other._highs)} <= set(idle)
        # A model whose block raises drops its object instead.
        infeasible = lp[:4] + (np.array([2.0]), np.array([np.inf]))
        with pytest.raises(forest_core.ForestLPError):
            with forest_core._HighsModel(*infeasible) as failed:
                failed.solve()
        assert all(highs is not failed._highs for highs in forest_core._IDLE_HIGHS)

    def test_threads_draw_distinct_objects(self):
        """Cutting planes run from several threads at once (as the
        daemon's executor does) give the serial results."""
        corpus = _giant_component_corpus(seed=2, count=8)
        serial = self._plane_results(corpus)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda item: self._plane_results([item]), corpus)
            )
        assert [row for rows in results for row in rows] == serial

    @pytest.mark.parametrize(
        "cost, upper, row_lower, row_upper, status",
        [
            (1.0, 1.0, 2.0, np.inf, "Infeasible"),
            (-1.0, np.inf, -np.inf, np.inf, "Unbounded"),
        ],
    )
    def test_non_optimal_status_raises_naming_it(
        self, cost, upper, row_lower, row_upper, status
    ):
        model = forest_core._HighsModel(
            np.array([cost]),
            np.zeros(1),
            np.array([upper]),
            sparse.csc_array(np.ones((1, 1))),
            np.array([row_lower]),
            np.array([row_upper]),
        )
        with pytest.raises(forest_core.ForestLPError, match=status):
            model.solve()


class TestLPSpans:
    """``lp.solve`` splits into ``lp.highs`` (each HiGHS run),
    ``lp.separation`` (each oracle call) and ``lp.colgen`` (column
    generation past the round budget)."""

    @staticmethod
    def _traced(*args, **kwargs):
        forest_core.clear_solve_cache()
        with telemetry.tracing() as tracer:
            result = forest_core.solve_component(*args, **kwargs)
        (solve,) = [s for s in tracer.spans if s.name == "lp.solve"]

        def children(parent):
            return [s for s in tracer.spans if s.parent == parent.index]

        return result, solve, children

    def test_cutting_plane_solve_records_one_highs_span_per_round(self):
        result, solve, children = self._traced(*BELOW_BOUND_COMPONENT, 2)
        names = [s.name for s in children(solve)]
        assert result.status == "exact" and result.lp_rounds == 2
        assert names.count("lp.highs") == result.lp_rounds
        assert names.count("lp.separation") == result.lp_rounds
        assert "lp.colgen" not in names

    def test_whole_set_bound_solve_records_only_cutting_plane_rounds(self):
        # The first LP sits at n − 1 = 13; round 2 certifies it.
        result, solve, children = self._traced(*BELOW_BOUND_COMPONENT, 4)
        assert result.status == "exact" and result.value == 13.0
        assert [s.name for s in children(solve)] == [
            "lp.highs", "lp.separation"
        ] * 2

    def test_column_generation_span_holds_the_master_solves(
        self, one_round_budget
    ):
        result, solve, children = self._traced(*AT_BOUND_COMPONENT, 2)
        assert result.status == "exact" and result.value == 14.0
        # One cutting-plane round, then column generation.
        assert [s.name for s in children(solve)] == [
            "lp.highs", "lp.separation", "lp.colgen"
        ]
        (colgen,) = [s for s in children(solve) if s.name == "lp.colgen"]
        masters = [s.name for s in children(colgen)]
        assert masters and set(masters) == {"lp.highs"}
        assert len(masters) >= result.lp_rounds - 1
