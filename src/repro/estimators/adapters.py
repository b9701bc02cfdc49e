"""Concrete registry entries wrapping the legacy estimator classes.

Each adapter delegates to the original class unchanged — same
construction, same RNG consumption — and repackages the result as a
:class:`~repro.estimators.base.Release`.  That makes registry-dispatched
releases bit-identical to direct legacy calls for shared seeds (the
differential tests pin this), while giving every estimator the uniform
``name`` / ``statistic`` / ``supports`` / ``release`` surface.

The Algorithm-1 adapters additionally expose the amortization hooks the
serving layer uses: ``release(..., extension=...)`` injects a warm
Lipschitz-extension family, and :meth:`bind_session` attaches a
:class:`repro.service.ReleaseSession` (duck-typed, no import cycle)
whose per-graph cache supplies that extension automatically.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .. import telemetry
from ..core.algorithm import (
    PrivateConnectedComponents,
    PrivateSpanningForestSize,
)
from ..core.baselines import (
    BoundedDegreePromiseLaplace,
    EdgeDPConnectedComponents,
    NaiveNodeDPConnectedComponents,
    NonPrivateBaseline,
)
from ..mechanisms.accountant import PrivacyAccountant
from .base import Release
from .generic import (
    _RELEASES,
    GENERIC_MAX_VERTICES,
    GenericSpanningForestEstimator,
)
from .registry import EstimatorSpec, register
from .statistics import true_statistic_for

__all__ = [
    "SpanningForestEstimator",
    "ConnectedComponentsEstimator",
    "GenericSpanningForestEstimator",
    "EdgeDPEstimator",
    "NaiveNodeDPEstimator",
    "NonPrivateEstimator",
    "BoundedDegreeEstimator",
    "true_statistic_for",
    "GENERIC_MAX_VERTICES",
]


class _SessionBound:
    """Mixin: optional attachment to a ``ReleaseSession``-like object.

    The session is duck-typed (``graph_and_extension``) so the
    estimators layer never imports the service layer.  Its extension is
    built exactly as this estimator would build its own (there is one
    LP configuration), so warm releases are bit-identical to cold ones.
    """

    uses_extension = True
    _session = None

    def bind_session(self, session) -> None:
        """Use ``session``'s per-graph cache to warm future releases."""
        self._session = session

    def _resolve(self, graph, extension):
        if extension is None and self._session is not None:
            return self._session.graph_and_extension(graph)
        return graph, extension


class SpanningForestEstimator(_SessionBound):
    """Registry adapter for Algorithm 1 on ``f_sf``."""

    name = "sf"
    statistic = "sf"

    def __init__(self, epsilon: float, **options) -> None:
        self.epsilon = float(epsilon)
        self._inner = PrivateSpanningForestSize(epsilon=epsilon, **options)

    def supports(self, graph) -> bool:
        return graph.number_of_vertices() >= 1

    def release(self, graph, rng: np.random.Generator, *, extension=None) -> Release:
        with telemetry.span("release", estimator=self.name):
            graph, extension = self._resolve(graph, extension)
            start = time.perf_counter()
            inner = self._inner.release(graph, rng, extension=extension)
            elapsed = time.perf_counter() - start
        _RELEASES.inc(estimator=self.name)
        return Release(
            estimator=self.name,
            statistic=self.statistic,
            value=inner.value,
            epsilon=self.epsilon,
            ledger=inner.ledger,
            delta_hat=inner.delta_hat,
            elapsed_seconds=elapsed,
            true_value=float(inner.true_value),
            metadata={
                "extension_value": inner.extension_value,
                "noise_scale": inner.noise_scale,
                "epsilon_select": inner.epsilon_select,
                "epsilon_noise": inner.epsilon_noise,
            },
            detail=inner,
        )


class ConnectedComponentsEstimator(_SessionBound):
    """Registry adapter for Algorithm 1 on ``f_cc`` (Equation (1))."""

    name = "cc"
    statistic = "cc"

    def __init__(self, epsilon: float, **options) -> None:
        self.epsilon = float(epsilon)
        self._inner = PrivateConnectedComponents(epsilon=epsilon, **options)

    def supports(self, graph) -> bool:
        return graph.number_of_vertices() >= 1

    def release(self, graph, rng: np.random.Generator, *, extension=None) -> Release:
        with telemetry.span("release", estimator=self.name):
            graph, extension = self._resolve(graph, extension)
            start = time.perf_counter()
            inner = self._inner.release(graph, rng, extension=extension)
            elapsed = time.perf_counter() - start
        _RELEASES.inc(estimator=self.name)
        return Release(
            estimator=self.name,
            statistic=self.statistic,
            value=inner.value,
            epsilon=self.epsilon,
            ledger=inner.ledger,
            delta_hat=inner.spanning_forest.delta_hat,
            elapsed_seconds=elapsed,
            true_value=float(inner.true_value),
            metadata={
                "vertex_count_estimate": inner.vertex_count_estimate,
                "epsilon_count": inner.epsilon_count,
                "noise_scale": inner.spanning_forest.noise_scale,
            },
            detail=inner,
        )


class _BaselineAdapter:
    """Shared wrapper for the plain-float baseline estimators."""

    name = ""
    statistic = "cc"
    uses_extension = False
    # Non-private bookkeeping cached per graph *object*, so repeated
    # releases on one graph (a 100-trial sweep cell) pay the exact
    # statistic once, like the legacy plain-float path did.
    _truth_cache: Optional[tuple[object, float]] = None

    def _mechanism(self, graph):  # pragma: no cover - abstract
        raise NotImplementedError

    def _ledger(self) -> tuple[tuple[str, float], ...]:
        epsilon = getattr(self, "epsilon", None)
        if epsilon is None:
            return ()
        accountant = PrivacyAccountant(epsilon)
        accountant.spend(epsilon, "laplace release")
        return tuple(accountant.ledger())

    def _true_value(self, graph) -> float:
        cached = self._truth_cache
        if cached is not None and cached[0] is graph:
            return cached[1]
        value = float(true_statistic_for(self.statistic)(graph))
        self._truth_cache = (graph, value)
        return value

    def supports(self, graph) -> bool:
        return graph.number_of_vertices() >= 1

    def release(self, graph, rng: np.random.Generator) -> Release:
        mechanism = self._mechanism(graph)
        with telemetry.span("release", estimator=self.name):
            start = time.perf_counter()
            value = float(mechanism.release(graph, rng))
            elapsed = time.perf_counter() - start
        _RELEASES.inc(estimator=self.name)
        return Release(
            estimator=self.name,
            statistic=self.statistic,
            value=value,
            epsilon=getattr(self, "epsilon", None),
            ledger=self._ledger(),
            delta_hat=None,
            elapsed_seconds=elapsed,
            true_value=self._true_value(graph),
            metadata={"privacy": mechanism.privacy},
            detail=None,
        )


class EdgeDPEstimator(_BaselineAdapter):
    """ε-*edge*-private Laplace baseline (sensitivity 1)."""

    name = "edge_dp"

    def __init__(self, epsilon: float) -> None:
        self.epsilon = float(epsilon)
        self._inner = EdgeDPConnectedComponents(epsilon=epsilon)

    def _mechanism(self, graph):
        return self._inner


class NaiveNodeDPEstimator(_BaselineAdapter):
    """Worst-case node-DP Laplace baseline (noise scale ``n_max/ε``).

    ``n_max`` defaults to the input's vertex count at release time (the
    public-bound reading the legacy sweep runner used).
    """

    name = "naive_node_dp"

    def __init__(self, epsilon: float, *, n_max: Optional[int] = None) -> None:
        self.epsilon = float(epsilon)
        self.n_max = None if n_max is None else int(n_max)

    def _mechanism(self, graph):
        n_max = self.n_max
        if n_max is None:
            n_max = max(graph.number_of_vertices(), 1)
        return NaiveNodeDPConnectedComponents(epsilon=self.epsilon, n_max=n_max)


class NonPrivateEstimator(_BaselineAdapter):
    """The exact count — zero error, zero privacy (``epsilon=None``)."""

    name = "non_private"

    def __init__(self) -> None:
        self.epsilon = None
        self._inner = NonPrivateBaseline()

    def _mechanism(self, graph):
        return self._inner


class BoundedDegreeEstimator(_BaselineAdapter):
    """Laplace under the bounded-degree *promise* (sensitivity ``D+1``).

    ``degree_bound`` defaults to the input's max degree at release time,
    which makes the promise trivially satisfied; pass it explicitly to
    model a genuine public promise class.
    """

    name = "bounded_degree"

    def __init__(
        self, epsilon: float, *, degree_bound: Optional[int] = None
    ) -> None:
        self.epsilon = float(epsilon)
        self.degree_bound = None if degree_bound is None else int(degree_bound)

    def supports(self, graph) -> bool:
        if graph.number_of_vertices() < 1:
            return False
        if self.degree_bound is None:
            return True
        return graph.max_degree() <= self.degree_bound

    def _mechanism(self, graph):
        bound = self.degree_bound
        if bound is None:
            bound = graph.max_degree()
        return BoundedDegreePromiseLaplace(
            epsilon=self.epsilon, degree_bound=bound
        )


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
def _register_all() -> None:
    register(
        EstimatorSpec(
            name="cc",
            statistic="cc",
            summary="Algorithm 1: node-private connected-component count "
            "(GEM-selected Lipschitz extension + Laplace)",
            factory=lambda eps, graph, opts: ConnectedComponentsEstimator(
                eps, **opts
            ),
            aliases=("private_cc",),
            options=(
                "count_fraction",
                "beta",
                "select_fraction",
                "delta_max",
            ),
        )
    )
    register(
        EstimatorSpec(
            name="sf",
            statistic="sf",
            summary="Algorithm 1: node-private spanning-forest size",
            factory=lambda eps, graph, opts: SpanningForestEstimator(
                eps, **opts
            ),
            aliases=("private_sf",),
            options=(
                "beta",
                "select_fraction",
                "delta_max",
            ),
        )
    )
    register(
        EstimatorSpec(
            name="edge_dp",
            statistic="cc",
            summary="edge-DP Laplace baseline: f_cc + Lap(1/eps)",
            factory=lambda eps, graph, opts: EdgeDPEstimator(eps, **opts),
        )
    )
    register(
        EstimatorSpec(
            name="naive_node_dp",
            statistic="cc",
            summary="worst-case node-DP Laplace baseline: f_cc + Lap(n/eps)",
            # n_max defaults lazily at release time (the adapter reads
            # the released-on graph), so the creation-time graph is
            # never frozen into the sensitivity bound.
            factory=lambda eps, graph, opts: NaiveNodeDPEstimator(
                eps, **opts
            ),
            options=("n_max",),
        )
    )
    register(
        EstimatorSpec(
            name="non_private",
            statistic="cc",
            summary="exact count (no privacy; reference baseline)",
            factory=lambda eps, graph, opts: NonPrivateEstimator(**opts),
            requires_epsilon=False,
        )
    )
    register(
        EstimatorSpec(
            name="bounded_degree",
            statistic="cc",
            summary="Laplace under the bounded-degree promise "
            "(sensitivity D+1; privacy only on {maxdeg <= D})",
            factory=lambda eps, graph, opts: BoundedDegreeEstimator(
                eps,
                degree_bound=opts.pop("degree_bound", None),
                **opts,
            ),
            options=("degree_bound",),
        )
    )


_register_all()
