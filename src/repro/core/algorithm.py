"""Algorithm 1: the node-private estimators for ``f_sf`` and ``f_cc``.

:class:`PrivateSpanningForestSize` implements the paper's Algorithm 1:

1. run the Generalized Exponential Mechanism (Algorithm 4) with budget
   ``ε_select`` over the power-of-two grid ``{1, 2, …, 2^⌊log2 Δmax⌋}``
   to pick a Lipschitz parameter ``Δ̂`` whose error proxy
   ``err(Δ) = (f_sf(G) − f_Δ(G)) + Δ/ε_noise`` is approximately minimal;
2. evaluate the Lipschitz extension ``f_Δ̂(G)`` (Algorithm 2);
3. release ``f_Δ̂(G) + Lap(Δ̂/ε_noise)``.

With the paper's even split ``ε_select = ε_noise = ε/2`` the released
noise is ``Lap(2Δ̂/ε)``, exactly Algorithm 1's Step 3.  The total privacy
cost is ``ε_select + ε_noise = ε`` by composition (Lemma 2.4): GEM is
``ε_select``-node-private (the scores have sensitivity 1), and the
Laplace release is ``ε_noise``-node-private because ``f_Δ̂`` is
``Δ̂``-Lipschitz (Lemma 3.3) and ``Δ̂`` itself is already private.

:class:`PrivateConnectedComponents` combines this with a private vertex
count via Equation (1): ``f_cc(G) = |V(G)| − f_sf(G)``.

A note on ``Δmax``: the paper sets ``Δmax = n``.  Strictly, the candidate
*grid* then depends on the private input's size; the standard reading
(and our default) is that ``n`` — or any upper bound on it — is public,
as in the rest of the node-privacy literature.  Callers with a public
size bound can pass ``delta_max`` explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import telemetry
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.gem import (
    GEMResult,
    generalized_exponential_mechanism,
    power_of_two_grid,
)
from ..mechanisms.laplace import LaplaceMechanism, laplace_noise
from .extension import extension_for

__all__ = [
    "SpanningForestRelease",
    "ConnectedComponentsRelease",
    "PrivateSpanningForestSize",
    "PrivateConnectedComponents",
    "default_failure_probability",
]


def default_failure_probability(n: int) -> float:
    """The paper's asymptotic choice ``β = 1 / ln ln n``, clamped to
    ``(0, 1/2]`` so it is a valid probability for small ``n``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    inner = math.log(max(n, 3))
    return min(0.5, 1.0 / max(math.log(max(inner, math.e)), 1e-9))


@dataclass(frozen=True)
class SpanningForestRelease:
    """Result of one private release of ``f_sf``.

    Attributes
    ----------
    value:
        The released (noisy) estimate of ``f_sf(G)``.
    delta_hat:
        The GEM-selected Lipschitz parameter.
    extension_value:
        ``f_Δ̂(G)`` before noise.
    noise_scale:
        The Laplace scale ``Δ̂/ε_noise`` actually used.
    gem:
        Full GEM diagnostics.
    epsilon_select, epsilon_noise:
        The budget split actually used (sums to the total ε).
    true_value:
        The exact ``f_sf(G)`` -- **not private**; carried for experiment
        bookkeeping only, never used downstream of the release.
    ledger:
        The :class:`~repro.mechanisms.accountant.PrivacyAccountant`
        per-step ``(label, ε)`` spend history of this release, so budget
        composition is auditable end-to-end.
    """

    value: float
    delta_hat: float
    extension_value: float
    noise_scale: float
    gem: GEMResult
    epsilon_select: float
    epsilon_noise: float
    true_value: int
    ledger: tuple[tuple[str, float], ...] = ()

    @property
    def error(self) -> float:
        """Signed error ``value − f_sf(G)`` (non-private bookkeeping)."""
        return self.value - self.true_value


@dataclass(frozen=True)
class ConnectedComponentsRelease:
    """Result of one private release of ``f_cc`` via Equation (1)."""

    value: float
    vertex_count_estimate: float
    spanning_forest: SpanningForestRelease
    epsilon_count: float
    true_value: int
    ledger: tuple[tuple[str, float], ...] = ()

    @property
    def error(self) -> float:
        """Signed error ``value − f_cc(G)`` (non-private bookkeeping)."""
        return self.value - self.true_value

    @property
    def rounded_value(self) -> int:
        """The estimate rounded to the nearest non-negative integer."""
        return max(int(round(self.value)), 0)


@dataclass
class PrivateSpanningForestSize:
    """ε-node-private estimator for the spanning-forest size (Algorithm 1).

    Parameters
    ----------
    epsilon:
        Total privacy budget ε > 0.
    beta:
        GEM failure probability; ``None`` uses the paper's
        ``β = 1/ln ln n`` (clamped; see
        :func:`default_failure_probability`).
    select_fraction:
        Fraction of ε given to GEM selection (paper: 0.5).
    delta_max:
        Upper end of the candidate grid.  ``None`` uses ``n`` (the
        paper's choice; treats the graph size as public).
    """

    epsilon: float
    beta: Optional[float] = None
    select_fraction: float = 0.5
    delta_max: Optional[float] = None
    _cached_extension: Optional[object] = field(
        init=False, repr=False, default=None, compare=False
    )
    _cached_graph: Optional[object] = field(
        init=False, repr=False, default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0 < self.select_fraction < 1:
            raise ValueError(
                f"select_fraction must be in (0, 1), got {self.select_fraction}"
            )
        if self.beta is not None and not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")

    def _extension_for(self, graph):
        """Return a (cached) extension family bound to ``graph``.

        :func:`~repro.core.extension.extension_for` converts an object
        graph to a :class:`~repro.graphs.compact.CompactGraph` once; the
        cache is keyed on the caller's graph object, so repeated releases
        on the *same graph object* reuse one conversion and one
        evaluation cache.  Graphs are treated as immutable once released
        against.
        """
        if self._cached_graph is graph:
            return self._cached_extension
        self._cached_extension = extension_for(graph)
        self._cached_graph = graph
        return self._cached_extension

    def release(
        self,
        graph,
        rng: np.random.Generator,
        *,
        extension=None,
    ) -> SpanningForestRelease:
        """Run Algorithm 1 once and return the release with diagnostics.

        Accepts either graph representation; an object graph is
        converted to a compact one once and the whole pipeline runs on
        the array kernels.

        ``extension`` optionally injects an already-warm extension family
        bound to ``graph`` (same content) — the amortization hook used by
        :class:`repro.service.ReleaseSession`.  Extension values are
        deterministic, so injected and freshly-built extensions release
        bit-identical values for identical RNG streams.
        """
        n = graph.number_of_vertices()
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        accountant = PrivacyAccountant(self.epsilon)
        epsilon_select = self.epsilon * self.select_fraction
        epsilon_noise = self.epsilon - epsilon_select
        beta = self.beta if self.beta is not None else default_failure_probability(n)
        delta_max = self.delta_max if self.delta_max is not None else max(n, 1)

        if extension is None:
            extension = self._extension_for(graph)
        true_fsf = extension.true_value
        candidates = power_of_two_grid(max(delta_max, 1))

        # One shared-work pass over the whole grid: the extension reuses
        # its component split, Algorithm-3 certificates and LP solves
        # across every candidate instead of recomputing per Δ.
        grid_values = extension.values_for_grid(candidates)
        q_by_candidate = {
            float(c): max(true_fsf - grid_values[i], 0.0) + c / epsilon_noise
            for i, c in enumerate(candidates)
        }

        def q_function(delta: float) -> float:
            # err proxy of Equation (7), with the noise budget actually
            # used for the final Laplace release.
            return q_by_candidate[float(delta)]

        with telemetry.span("gem.select", candidates=len(candidates)):
            gem_result = generalized_exponential_mechanism(
                candidates, q_function, epsilon_select, beta, rng
            )
        accountant.spend(epsilon_select, "gem selection")

        delta_hat = gem_result.selected
        # list.index compares with ==, so the float delta_hat matches its
        # (possibly int) grid candidate without any truncation.
        extension_value = float(grid_values[candidates.index(delta_hat)])
        scale = delta_hat / epsilon_noise
        with telemetry.span("laplace.noise"):
            value = extension_value + laplace_noise(scale, rng)
        accountant.spend(epsilon_noise, "laplace release")

        return SpanningForestRelease(
            value=value,
            delta_hat=delta_hat,
            extension_value=extension_value,
            noise_scale=scale,
            gem=gem_result,
            epsilon_select=epsilon_select,
            epsilon_noise=epsilon_noise,
            true_value=true_fsf,
            ledger=tuple(accountant.ledger()),
        )


@dataclass
class PrivateConnectedComponents:
    """ε-node-private estimator for the number of connected components.

    Releases ``n̂ − f̂_sf`` where ``n̂`` is a Laplace-noised vertex count
    (node sensitivity 1) and ``f̂_sf`` comes from
    :class:`PrivateSpanningForestSize`.  Budget: ``count_fraction·ε`` for
    the count and the rest for the spanning-forest estimate; total ε by
    composition.

    Parameters
    ----------
    epsilon:
        Total privacy budget.
    count_fraction:
        Fraction of ε for the vertex count.  The count has sensitivity 1
        while the forest step pays Θ(Δ̂), so a small fraction (default
        0.2) is ample.
    Other parameters are forwarded to :class:`PrivateSpanningForestSize`.
    """

    epsilon: float
    count_fraction: float = 0.2
    beta: Optional[float] = None
    select_fraction: float = 0.5
    delta_max: Optional[float] = None
    _sf_estimator: PrivateSpanningForestSize = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0 < self.count_fraction < 1:
            raise ValueError(
                f"count_fraction must be in (0, 1), got {self.count_fraction}"
            )
        self._sf_estimator = PrivateSpanningForestSize(
            epsilon=self.epsilon * (1.0 - self.count_fraction),
            beta=self.beta,
            select_fraction=self.select_fraction,
            delta_max=self.delta_max,
        )

    def release(
        self,
        graph,
        rng: np.random.Generator,
        *,
        extension=None,
    ) -> ConnectedComponentsRelease:
        """Release a private estimate of ``f_cc(G)``.

        Accepts either a :class:`~repro.graphs.graph.Graph` (converted
        once) or a :class:`~repro.graphs.compact.CompactGraph`; the
        release runs on the array kernels end to end.  ``extension``
        optionally injects a warm extension family for the
        spanning-forest step (see :meth:`PrivateSpanningForestSize.release`).
        """
        n = graph.number_of_vertices()
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        accountant = PrivacyAccountant(self.epsilon)
        epsilon_count = self.epsilon * self.count_fraction
        count_mechanism = LaplaceMechanism(sensitivity=1.0, epsilon=epsilon_count)
        with telemetry.span("laplace.noise"):
            n_hat = count_mechanism.release(float(n), rng)
        accountant.spend(epsilon_count, "vertex count")
        sf_release = self._sf_estimator.release(graph, rng, extension=extension)
        for label, amount in sf_release.ledger:
            accountant.spend(amount, label)
        true_fcc = n - sf_release.true_value
        return ConnectedComponentsRelease(
            value=n_hat - sf_release.value,
            vertex_count_estimate=n_hat,
            spanning_forest=sf_release,
            epsilon_count=epsilon_count,
            true_value=true_fcc,
            ledger=tuple(accountant.ledger()),
        )
