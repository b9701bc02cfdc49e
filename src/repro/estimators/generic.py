"""Declarative generic estimators: Theorem A.2 from a statistic kernel.

Before this module, putting a new monotone statistic behind the
Theorem A.2 construction meant hand-writing an adapter class (the old
``GenericSpanningForestEstimator``).  Now a registry estimator is
*declared*: a :class:`GenericEstimatorSpec` names a statistic from the
statistic registry (which must be marked monotone — the Lemma A.1
Lipschitz proof relies on that promise), optionally a fast
down-sensitivity evaluator and a public ``delta_max`` bound, and
:func:`register_generic` wires the rest — construction, size caps,
option routing, telemetry, and the uniform
:class:`~repro.estimators.base.Release` record.

Three estimators ship through it:

``generic_sf``
    Theorem A.2 on ``f_sf`` (the historical reference estimator;
    ``GenericSpanningForestEstimator`` remains as a compatible alias
    class, bit-identical to its hand-wired predecessor).
``kstar``
    k-star counts ``Σ_v C(deg v, k)`` (option ``k``, default 2 =
    wedges), with the exact one-pass down-sensitivity evaluator and
    worst-case ``delta_max`` bound of
    :mod:`repro.graphs.degree_stats` — no poset enumeration for DS.
``deg_hist``
    One cumulative degree-histogram coordinate
    ``|{v : deg v >= min_degree}|`` (option ``min_degree``, default 1).
    Release the full histogram by querying several coordinates; each
    release spends its own ε (the ledger records the split).

All three enumerate the induced-subgraph poset for the Lipschitz
extension, so they cap input size at :data:`GENERIC_MAX_VERTICES`
(overridable per estimator via ``max_vertices``).  They run natively on
both graph representations and are bit-identical across them for
shared seeds — pinned by differential tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .. import telemetry
from ..core.generic_algorithm import PrivateMonotoneStatistic
from ..graphs.degree_stats import (
    kstar_down_sensitivity,
    kstar_down_sensitivity_bound,
)
from .base import Release
from .registry import EstimatorSpec, register
from .statistics import get_statistic

__all__ = [
    "GENERIC_MAX_VERTICES",
    "GenericEstimatorSpec",
    "GenericStatisticEstimator",
    "GenericSpanningForestEstimator",
    "register_generic",
]

# The generic Theorem A.2 construction enumerates the induced-subgraph
# poset; beyond this size a single release stops being practical.
GENERIC_MAX_VERTICES = 16

# Options every generic estimator accepts (statistic-specific options
# are added per spec).
_COMMON_OPTIONS = (
    "max_vertices",
    "beta",
    "select_fraction",
    "delta_max",
    "down_sensitivity",
)

# One bump per completed release, whatever the entry point (direct,
# session, serve-batch worker, daemon executor).  The matching root
# span makes ``repro profile``'s stage breakdown sum to the release
# wall time.
_RELEASES = telemetry.counter(
    "repro_releases_total",
    "Completed releases, by estimator",
    labels=("estimator",),
)


@dataclass(frozen=True)
class GenericEstimatorSpec:
    """Declaration of one Theorem A.2 estimator.

    Parameters
    ----------
    name:
        Registry name (also the released ``estimator`` field).
    statistic:
        Statistic-registry key; must be registered with
        ``monotone=True``.
    summary:
        One-line registry documentation.
    aliases:
        Legacy registry aliases.
    statistic_options:
        Keyword options forwarded to the statistic kernel (and to the
        down-sensitivity evaluator / delta_max bound), e.g. ``("k",)``.
    down_sensitivity:
        Optional fast exact ``DS_f`` evaluator
        ``(graph, **statistic_options) -> value``; defaults to the
        brute-force poset enumeration.
    delta_max_for:
        Optional public ceiling on ``DS_f`` as
        ``(n, **statistic_options) -> value``; defaults to ``n``.
    max_vertices:
        Default input-size cap (still an option at creation time).
    """

    name: str
    statistic: str
    summary: str
    aliases: tuple[str, ...] = ()
    statistic_options: tuple[str, ...] = ()
    down_sensitivity: Optional[Callable] = None
    delta_max_for: Optional[Callable] = None
    max_vertices: int = GENERIC_MAX_VERTICES


class GenericStatisticEstimator:
    """Registry adapter for Theorem A.2 on a declared monotone statistic.

    The inner :class:`~repro.core.generic_algorithm.PrivateMonotoneStatistic`
    is assembled from the spec: statistic kernel (with any statistic
    options partially applied), fast down-sensitivity when declared,
    and the public ``delta_max`` bound.  ``release`` caps the input
    size — the extension enumerates induced subgraphs.
    """

    uses_extension = False

    def __init__(
        self,
        spec: GenericEstimatorSpec,
        epsilon: float,
        *,
        max_vertices: Optional[int] = None,
        **options,
    ) -> None:
        stat = get_statistic(spec.statistic)
        if not stat.monotone:
            raise ValueError(
                f"statistic {spec.statistic!r} is not marked monotone; "
                "the Theorem A.2 construction requires a monotone "
                "nondecreasing statistic"
            )
        self.spec = spec
        self.name = spec.name
        self.statistic = spec.statistic
        self.epsilon = float(epsilon)
        self.max_vertices = int(
            spec.max_vertices if max_vertices is None else max_vertices
        )
        stat_options = {
            key: options.pop(key)
            for key in spec.statistic_options
            if key in options
        }
        self._stat_options = stat_options
        kernel = stat.evaluator
        if stat_options:
            kernel = partial(kernel, **stat_options)
        if "down_sensitivity" not in options and spec.down_sensitivity:
            down = spec.down_sensitivity
            options["down_sensitivity"] = (
                partial(down, **stat_options) if stat_options else down
            )
        delta_max_for = spec.delta_max_for
        if delta_max_for is not None and stat_options:
            delta_max_for = partial(delta_max_for, **stat_options)
        self._inner = PrivateMonotoneStatistic(
            kernel,
            epsilon=epsilon,
            delta_max_for=delta_max_for,
            **options,
        )

    def supports(self, graph) -> bool:
        return 1 <= graph.number_of_vertices() <= self.max_vertices

    def release(self, graph, rng: np.random.Generator) -> Release:
        if graph.number_of_vertices() > self.max_vertices:
            raise ValueError(
                f"{self.name} enumerates induced subgraphs; refusing "
                f"n={graph.number_of_vertices()} > {self.max_vertices} "
                "(raise max_vertices explicitly to override)"
            )
        with telemetry.span("release", estimator=self.name):
            start = time.perf_counter()
            inner = self._inner.release(graph, rng)
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
                **self._stat_options,
            },
            detail=inner,
        )


def register_generic(spec: GenericEstimatorSpec) -> EstimatorSpec:
    """Register one declared generic estimator and return its registry
    entry."""
    return register(
        EstimatorSpec(
            name=spec.name,
            statistic=spec.statistic,
            summary=spec.summary,
            factory=lambda eps, graph, opts, _spec=spec: (
                GenericStatisticEstimator(_spec, eps, **opts)
            ),
            aliases=spec.aliases,
            options=_COMMON_OPTIONS + spec.statistic_options,
            max_graph_vertices=spec.max_vertices,
        )
    )


_GENERIC_SF_SPEC = GenericEstimatorSpec(
    name="generic_sf",
    statistic="sf",
    summary="Theorem A.2 generic monotone-statistic estimator on "
    "f_sf (exponential time; small graphs only)",
    aliases=("generic",),
)


class GenericSpanningForestEstimator(GenericStatisticEstimator):
    """Theorem A.2 applied to ``f_sf`` (compatibility alias).

    The generic construction requires a monotone nondecreasing statistic
    — ``f_sf`` qualifies (``f_cc`` does not: deleting a cut vertex can
    *increase* the component count) — and enumerates induced subgraphs,
    so :meth:`supports` caps the input size.  Kept as a named class for
    the pre-declarative API; releases are bit-identical to the old
    hand-wired adapter.
    """

    def __init__(
        self,
        epsilon: float,
        *,
        max_vertices: int = GENERIC_MAX_VERTICES,
        **options,
    ) -> None:
        super().__init__(
            _GENERIC_SF_SPEC, epsilon, max_vertices=max_vertices, **options
        )


def _register_all() -> None:
    register(
        EstimatorSpec(
            name="generic_sf",
            statistic="sf",
            summary=_GENERIC_SF_SPEC.summary,
            factory=lambda eps, graph, opts: GenericSpanningForestEstimator(
                eps, **opts
            ),
            aliases=("generic",),
            options=_COMMON_OPTIONS,
            max_graph_vertices=GENERIC_MAX_VERTICES,
        )
    )
    register_generic(
        GenericEstimatorSpec(
            name="kstar",
            statistic="kstar",
            summary="Theorem A.2 on k-star counts sum_v C(deg v, k) "
            "(k=2: wedges); exact one-pass DS, no poset enumeration "
            "for sensitivity",
            statistic_options=("k",),
            down_sensitivity=kstar_down_sensitivity,
            delta_max_for=kstar_down_sensitivity_bound,
        )
    )
    register_generic(
        GenericEstimatorSpec(
            name="deg_hist",
            statistic="deg_hist",
            summary="Theorem A.2 on one cumulative degree-histogram "
            "coordinate |{v: deg v >= min_degree}|; query several "
            "coordinates to release a histogram (each spends its own "
            "epsilon)",
            statistic_options=("min_degree",),
        )
    )


_register_all()
