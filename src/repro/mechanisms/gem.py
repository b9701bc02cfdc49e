"""The Generalized Exponential Mechanism (Algorithm 4, [RS16b]).

Task: given a family of monotone-in-Δ Lipschitz underestimates
``{h_Δ}`` of a target statistic ``h`` (Definition 3.2), privately select
a parameter ``Δ̂`` whose approximation error

    err_h(Δ, G) = |h_Δ(G) − h(G)| + Δ/ε_noise            (Equation (7))

approximately minimizes over the grid ``I = {2^0, 2^1, …, 2^k}``,
``k = ⌊log2 Δmax⌋``.

Algorithm 4 computes, for each ``i ∈ I``:

    q_i(G) = |h_i(G) − h(G)| + i/ε_noise
    s_i(G) = max_j [ (q_i + t·i) − (q_j + t·j) ] / (i + j),
    t = 2·log(k/β) / ε_select,

and then runs the Exponential Mechanism with privacy ``ε_select`` on the
scores ``s_i``.  The ``s_i`` have global sensitivity at most 1: in the
difference ``q_i − q_j`` the (possibly high-sensitivity) term ``h(G)``
cancels, leaving ``h_j − h_i`` whose sensitivity is at most ``i + j`` by
Lipschitzness, normalized away by the denominator (this is the footnote
of Appendix B).  Hence the whole selection is ``ε_select``-node-private.

Guarantee (Theorem 3.5): with probability ≥ 1 − β, the selected ``Δ̂``
satisfies ``err(Δ̂) ≤ err(Δ)·O(ln(ln Δmax / β))`` simultaneously for all
Δ in the grid.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exponential import exponential_mechanism_probabilities

__all__ = ["GEMResult", "power_of_two_grid", "generalized_exponential_mechanism"]


class GEMResult(NamedTuple):
    """Outcome and diagnostics of one GEM selection.

    Attributes
    ----------
    selected:
        The chosen parameter ``Δ̂`` (an element of ``candidates``).
    candidates:
        The candidate grid, ascending.
    q_values:
        ``q_i`` per candidate (same order as ``candidates``).
    scores:
        ``s_i`` per candidate.
    probabilities:
        The exact exponential-mechanism selection distribution.
    threshold:
        The shift ``t`` used in the scores.
    """

    selected: float
    candidates: tuple[float, ...]
    q_values: tuple[float, ...]
    scores: tuple[float, ...]
    probabilities: tuple[float, ...]
    threshold: float


def power_of_two_grid(delta_max: float) -> list[int]:
    """Return ``{2^0, 2^1, …, 2^k}`` with ``k = ⌊log2 Δmax⌋`` (Step 1)."""
    if delta_max < 1:
        raise ValueError(f"delta_max must be >= 1, got {delta_max}")
    k = int(math.floor(math.log2(delta_max)))
    # Guard against floating-point edge cases at exact powers of two.
    while 2 ** (k + 1) <= delta_max:
        k += 1
    while 2**k > delta_max:
        k -= 1
    return [2**j for j in range(k + 1)]


def generalized_exponential_mechanism(
    candidates: Sequence[float],
    q_function: Callable[[float], float],
    epsilon: float,
    beta: float,
    rng: np.random.Generator,
) -> GEMResult:
    """Run Algorithm 4's selection given precomputable ``q_i`` values.

    Parameters
    ----------
    candidates:
        The grid ``I`` of Lipschitz parameters, ascending and positive.
        Each candidate doubles as the sensitivity bound of its ``q_i``.
    q_function:
        Maps candidate ``i`` to ``q_i(G)``.  For Algorithm 1 this is
        ``(h(G) − h_i(G)) + i/ε_noise``; only *differences* of ``q``
        values across candidates affect privacy, so the caller may use
        the true (non-private) ``h(G)`` inside ``q_function``.
    epsilon:
        The selection privacy budget ``ε_select``.
    beta:
        Failure probability used in the threshold ``t``.
    rng:
        Source of randomness for the exponential mechanism.

    Returns
    -------
    GEMResult
    """
    grid = [float(c) for c in candidates]
    if not grid:
        raise ValueError("candidate grid must be non-empty")
    if any(c <= 0 for c in grid):
        raise ValueError("candidates must be positive")
    if sorted(grid) != grid:
        raise ValueError("candidates must be ascending")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")

    q_values = [float(q_function(c)) for c in grid]

    if len(grid) == 1:
        return GEMResult(
            selected=grid[0],
            candidates=tuple(grid),
            q_values=tuple(q_values),
            scores=(0.0,),
            probabilities=(1.0,),
            threshold=0.0,
        )

    k = len(grid) - 1  # matches ⌊log2 Δmax⌋ for the power-of-two grid
    # math.log, not numpy's: a SIMD log may differ in the last bit.
    threshold = 2.0 * math.log(max(k, 1) / beta) / epsilon

    sizes = np.array(grid)
    shifted = np.array(q_values) + threshold * sizes
    scores = (
        (shifted[:, None] - shifted[None, :]) / (sizes[:, None] + sizes[None, :])
    ).max(axis=1)
    probabilities = exponential_mechanism_probabilities(scores, 1.0, epsilon)
    # The draw of exponential_mechanism, without recomputing the weights.
    index = int(rng.choice(len(probabilities), p=probabilities))
    return GEMResult(
        selected=grid[index],
        candidates=tuple(grid),
        q_values=tuple(q_values),
        scores=tuple(scores.tolist()),
        probabilities=tuple(probabilities.tolist()),
        threshold=threshold,
    )
