"""Deterministic 1-D grid search with bracketing refinement, over rows of problems.

All boundary and power searches in this package reduce to optimising a
cheap vectorised objective over one bandwidth coordinate.  A uniform
coarse grid of ``n`` points finds the basin.  Each of ``REFINE_LEVELS``
levels then brackets the incumbent: it samples ``2 * REFINE_ZOOM + 1``
points over the incumbent plus or minus the previous level's spacing,
clipped to the row's interval, so the spacing shrinks by ``REFINE_ZOOM``
per level, to ``(hi - lo) / ((n - 1) * REFINE_ZOOM**REFINE_LEVELS)``.
A unimodal objective has its optimum within one spacing of the best
sample, so no candidate outside the bracket could win.  No randomness,
no tolerance-dependent iteration counts: the same inputs always visit
the same candidates, which keeps CLI outputs bit-reproducible.

One call solves a batch of independent rows (boundary points at several
semantic rates, or one target triple over several channel draws).  The
objective scores a rows x candidates matrix at once, and every row sees
exactly the candidates a one-row call would: its own ``np.linspace``
grid and brackets, sorted.  Duplicate candidates may stay, since an
equal x scores equally.  Callers cut long batches into
:func:`row_batches` so that each coarse-grid call stays near
``BATCH_CANDIDATES`` candidates.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

REFINE_LEVELS = 3
# Spacing shrinks by this factor per level; a bracket has 2 * REFINE_ZOOM + 1 points.
REFINE_ZOOM = 32
# Candidates per objective call a batch aims at: large enough to amortise
# numpy's per-call overhead, small enough to keep temporaries in cache.
BATCH_CANDIDATES = 1 << 14


def check_grid_n(grid_n: int) -> int:
    """Return ``grid_n``, or raise ValueError when it cannot span an interval."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    return grid_n


def row_batches(n_rows: int, grid_n: int) -> list[slice]:
    """Consecutive row slices of about ``BATCH_CANDIDATES`` candidates each."""
    size = max(1, BATCH_CANDIDATES // check_grid_n(grid_n))
    return [slice(i, i + size) for i in range(0, n_rows, size)]


def _linspace_rows(start: np.ndarray, stop: np.ndarray, ramp: np.ndarray) -> np.ndarray:
    """``np.linspace(start[r], stop[r], len(ramp))`` for every row r, bit for bit.

    ``ramp`` is ``np.arange(n, dtype=float)``.
    """
    delta = stop - start
    step = delta / (len(ramp) - 1)
    y = ramp * step[:, None]
    if not step.all():  # np.linspace's own formula where the step underflows to 0
        flat = step == 0
        y[flat] = ramp / (len(ramp) - 1) * delta[flat, None]
    y += start[:, None]
    y[:, -1] = stop
    return y


def _pick(values: np.ndarray, maximize: bool, tie_high: bool) -> np.ndarray:
    """Column of each row's best candidate."""
    # NaNs (dead candidates) always lose; comparisons below then stay sane.
    values = np.where(np.isnan(values), -np.inf if maximize else np.inf, values)
    best = values.max(axis=1) if maximize else values.min(axis=1)
    hit = values == best[:, None]
    if tie_high:
        return values.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
    return np.argmax(hit, axis=1)


def refine_search(
    objective: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    n: int,
    *,
    maximize: bool = True,
    tie_high: bool = False,
    extra: Iterable = (),
    levels: int = REFINE_LEVELS,
):
    """Optimise ``objective`` over [lo, hi] for each row; return (x_best, f_best).

    ``lo`` and ``hi`` are scalars or 1-D arrays of row bounds; scalars
    for both make one row and a pair of floats comes back, otherwise a
    pair of 1-D arrays.  ``objective`` maps a rows x candidates matrix
    to its scores elementwise.  ``extra`` points (clipped into each
    row's interval; broadcast to rows x m) join the coarse grid, so
    known-good special cases can seed the search and the result provably
    never falls below them.  Each of ``levels`` brackets then samples
    ``2 * REFINE_ZOOM + 1`` points within one previous spacing of the
    incumbent.  Ties break toward the smallest candidate unless
    ``tie_high``.
    """
    check_grid_n(n)
    one_row = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    if np.any(hi < lo):
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    rows = np.arange(len(lo))

    grid = _linspace_rows(lo, hi, np.arange(n, dtype=float))
    extra = np.asarray(tuple(extra), dtype=float)
    if extra.size:
        grid = np.sort(np.concatenate([grid, np.clip(extra, lo[:, None], hi[:, None])], axis=1))
    f = objective(grid)
    i = _pick(f, maximize, tie_high)
    x_best, f_best = grid[rows, i], f[rows, i]

    half = (hi - lo) / (n - 1)
    ramp = np.arange(2 * REFINE_ZOOM + 1, dtype=float)
    for _ in range(levels):
        window = _linspace_rows(np.maximum(lo, x_best - half), np.minimum(hi, x_best + half), ramp)
        window = np.sort(np.concatenate([window, x_best[:, None]], axis=1))
        fw = objective(window)
        j = _pick(fw, maximize, tie_high)
        xj, fj = window[rows, j], fw[rows, j]
        better = fj > f_best if maximize else fj < f_best
        better |= (fj == f_best) & (xj > x_best if tie_high else xj < x_best)
        x_best = np.where(better, xj, x_best)
        f_best = np.where(better, fj, f_best)
        half /= REFINE_ZOOM
    if one_row:
        return float(x_best[0]), float(f_best[0])
    return x_best, f_best
