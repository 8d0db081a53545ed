"""Deterministic 1-D grid search with zoomed refinement.

All boundary and power searches in this package reduce to optimising a
cheap vectorised objective over one bandwidth coordinate.  A uniform
coarse grid finds the basin; a fixed number of zoom levels around the
incumbent sharpen it.  No randomness, no tolerance-dependent iteration
counts: the same inputs always visit the same candidates, which keeps
CLI outputs bit-reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

REFINE_LEVELS = 3
REFINE_ZOOM = 8.0


def _pick(values: np.ndarray, maximize: bool, tie_high: bool) -> int:
    # NaNs (dead candidates) always lose; comparisons below then stay sane.
    values = np.where(np.isnan(values), -np.inf if maximize else np.inf, values)
    best = values.max() if maximize else values.min()
    idx = np.flatnonzero(values == best)
    return int(idx[-1] if tie_high else idx[0])


def refine_search(
    objective: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    n: int,
    *,
    maximize: bool = True,
    tie_high: bool = False,
    extra: Iterable[float] = (),
    levels: int = REFINE_LEVELS,
    zoom: float = REFINE_ZOOM,
) -> tuple[float, float]:
    """Optimise ``objective`` over [lo, hi] and return (x_best, f_best).

    ``objective`` must accept an ndarray of candidates and return their
    scores elementwise.  ``extra`` points (clipped into the interval) join
    the coarse grid, so known-good special cases can seed the search and
    the result provably never falls below them.  Ties break toward the
    smallest candidate unless ``tie_high``.
    """
    extra = tuple(extra)
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    if n < 2 or hi == lo:
        x = np.unique(np.clip(np.array([lo, *extra], dtype=float), lo, hi))
        f = objective(x)
        i = _pick(f, maximize, tie_high)
        return float(x[i]), float(f[i])

    grid = np.linspace(lo, hi, n)
    if extra:
        grid = np.unique(np.concatenate([grid, np.clip(np.asarray(extra, dtype=float), lo, hi)]))
    f = objective(grid)
    i = _pick(f, maximize, tie_high)
    x_best, f_best = float(grid[i]), float(f[i])

    half = (hi - lo) / (n - 1)
    for _ in range(levels):
        window = np.linspace(max(lo, x_best - half), min(hi, x_best + half), n)
        window = np.unique(np.append(window, x_best))
        fw = objective(window)
        j = _pick(fw, maximize, tie_high)
        better = fw[j] > f_best if maximize else fw[j] < f_best
        if better or (fw[j] == f_best and (window[j] > x_best if tie_high else window[j] < x_best)):
            x_best, f_best = float(window[j]), float(fw[j])
        half /= zoom
    return x_best, f_best
