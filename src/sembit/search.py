"""Deterministic 1-D grid search with bracketing refinement, over rows of problems.

All boundary and power searches in this package reduce to optimising a
cheap vectorised objective over one bandwidth coordinate.  A uniform
coarse grid of ``n`` points finds the basin.  Bracket levels then close
in on the incumbent: each scores exactly ``2 * zoom + 1`` points over the
incumbent plus or minus the previous level's spacing, clipped to the
row's interval, so the spacing shrinks by ``zoom`` per level.  Every
search shrinks it by ``REFINE_SHRINK`` in all, over
``levels = log_zoom(REFINE_SHRINK)`` levels, to
``(hi - lo) / ((n - 1) * REFINE_SHRINK)``; a zoom whose powers miss the
shrink is rejected.  The caller picks the zoom by what its cost follows:
a row-batched call costs about one unit per candidate, so narrow brackets
over more levels are cheaper, while a one-row call costs about one unit
per objective call, so wide brackets over few levels are.  The incumbent
keeps its score from the level that found it and is not scored again; a
bracket point replaces it only when it scores better, or equal and on
the tie side.  A unimodal objective has its optimum within one spacing
of the best sample, so no candidate outside the bracket could win.  No
randomness, no tolerance-dependent iteration counts: the same inputs
always visit the same candidates, which keeps CLI outputs
bit-reproducible.

One call solves a batch of independent rows (boundary points at several
semantic rates, or one target triple over several channel draws).  The
objective scores a rows x candidates matrix at once, and every row sees
exactly the candidates a one-row call would: its own ``np.linspace``
grid and brackets, sorted.  Duplicate candidates may stay, since an
equal x scores equally.  :func:`search_rows`, the driver every boundary
and power search goes through, cuts a row set into :func:`row_batches`
so that each objective call stays near ``BATCH_CANDIDATES`` candidates,
and runs one search per batch.

Before its first batch, :func:`search_rows` raises glibc's malloc trim
threshold to ``MALLOC_TRIM_THRESHOLD``, once per process.  A default
region's batch of 126 rows x 130 candidates makes every float temporary
131,040 B, just under glibc's 128 KiB mmap threshold, so the temporaries
live on the heap.  With glibc's default trim threshold, freeing a batch's
temporaries handed the top of the heap back to the kernel, and the next
objective call faulted the same pages in again: about 6,000 minor page
faults, a third of the wall time, per default region.  With the higher
threshold a region takes 0 to 3.  The setting is process-wide, so a
program that embeds this package inherits it; where ``mallopt`` is
missing (macOS, Windows) the call does nothing, and musl ignores it.

Unimodality holds only within a basin: the objectives this package
searches can have a second local optimum, so callers seed the coarse grid
with ``extra`` candidates that cover every basin they know of.
"""

from __future__ import annotations

import ctypes
from functools import cache, partial
from typing import Callable, Iterable

import numpy as np

# Default coarse grid size: the ``--grid`` of ``region`` and ``power``.
DEFAULT_GRID_N = 64
# Every search's final spacing is its coarse spacing over this factor.
REFINE_SHRINK = 64**3
# Default spacing shrink per level: brackets of 2 * 64 + 1 = 129 points, over 3 levels.
REFINE_ZOOM = 64
# Candidates per objective call a batch aims at: large enough to amortise
# numpy's per-call overhead, small enough to keep temporaries in cache.
# A batch's float temporary (rows x widest call x 8 B) must also stay under
# glibc's default mmap threshold of 128 KiB: once the trim threshold below
# is set, glibc stops raising the mmap threshold, so a larger temporary can
# be mmapped and unmapped, page faults and all, on every objective call.
BATCH_CANDIDATES = 1 << 14
# Free memory glibc keeps at the top of the heap instead of returning it to
# the kernel: 256 batch temporaries.  A default region frees up to about 32
# at once (measured on x86_64: 4 MiB removed every fault, 2 MiB left 740
# per region).
MALLOC_TRIM_THRESHOLD = 256 * BATCH_CANDIDATES * 8
_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter number


def check_grid_n(grid_n: int) -> int:
    """Return ``grid_n``, or raise ValueError when it cannot span an interval."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    return grid_n


def refine_levels(zoom: int, shrink: int = REFINE_SHRINK) -> int:
    """Bracket levels that shrink the spacing by exactly ``shrink`` at ``zoom`` per level.

    Raises ValueError unless ``zoom`` is at least 2 and ``shrink`` a power of it.
    """
    levels = 0
    while zoom > 1 and zoom**levels < shrink:
        levels += 1
    if zoom < 2 or zoom**levels != shrink:
        raise ValueError(f"zoom {zoom} does not reach shrink {shrink} in whole levels")
    return levels


@cache
def _keep_heap() -> None:
    """Set glibc's malloc trim threshold to ``MALLOC_TRIM_THRESHOLD``, once per process.

    Does nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no symbol, or no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)


def row_batches(
    n_rows: int, grid_n: int, n_extra: int = 0, *, zoom: int = REFINE_ZOOM
) -> list[slice]:
    """Consecutive row slices of about ``BATCH_CANDIDATES`` candidates per objective call.

    A batch is sized by its widest call: the coarse grid with ``n_extra``
    seeds per row, or a bracket of ``2 * zoom + 1`` points.
    """
    width = max(check_grid_n(grid_n) + n_extra, 2 * zoom + 1)
    size = max(1, BATCH_CANDIDATES // width)
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
    """Column of each row's best candidate: the first of equals, or the last if ``tie_high``."""
    # NaNs (dead candidates) always lose.
    values = np.where(np.isnan(values), -np.inf if maximize else np.inf, values)
    if tie_high:
        values = values[:, ::-1]
    i = values.argmax(axis=1) if maximize else values.argmin(axis=1)
    return values.shape[1] - 1 - i if tie_high else i


def refine_search(
    objective: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    n: int,
    *,
    maximize: bool = True,
    tie_high: bool = False,
    extra: Iterable = (),
    zoom: int = REFINE_ZOOM,
    shrink: int = REFINE_SHRINK,
):
    """Optimise ``objective`` over [lo, hi] for each row; return (x_best, f_best).

    ``lo`` and ``hi`` are scalars or 1-D arrays of row bounds; scalars
    for both make one row and a pair of floats comes back, otherwise a
    pair of 1-D arrays.  ``objective`` maps a rows x candidates matrix
    to its scores elementwise.  ``extra`` points (clipped into each
    row's interval; broadcast to rows x m) join the coarse grid, so
    known-good special cases can seed the search and the result provably
    never falls below them.  Each of ``refine_levels(zoom, shrink)``
    brackets then scores exactly ``2 * zoom + 1`` points within one
    previous spacing of the incumbent; the incumbent keeps its score and
    is not re-scored.  ``shrink=1`` stops at the coarse grid.  Ties break
    toward the smallest candidate unless ``tie_high``.
    """
    check_grid_n(n)
    levels = refine_levels(zoom, shrink)
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
        grid = np.concatenate([grid, np.clip(extra, lo[:, None], hi[:, None])], axis=1)
        grid.sort(axis=1)
    f = objective(grid)
    i = _pick(f, maximize, tie_high)
    x_best, f_best = grid[rows, i], f[rows, i]

    half = (hi - lo) / (n - 1)
    ramp = np.arange(2 * zoom + 1, dtype=float)
    for _ in range(levels):
        window = _linspace_rows(np.maximum(lo, x_best - half), np.minimum(hi, x_best + half), ramp)
        fw = objective(window)
        j = _pick(fw, maximize, tie_high)
        xj, fj = window[rows, j], fw[rows, j]
        better = fj > f_best if maximize else fj < f_best
        better |= (fj == f_best) & (xj > x_best if tie_high else xj < x_best)
        x_best = np.where(better, xj, x_best)
        f_best = np.where(better, fj, f_best)
        half /= zoom
    if one_row:
        return float(x_best[0]), float(f_best[0])
    return x_best, f_best


def search_rows(
    objective, cols, lo, hi, extra, grid_n: int, *, maximize: bool, zoom: int, tie_high=False
):
    """(x, f) optimising ``objective(cols[rows], x)`` for each row, one search per row batch.

    ``cols`` holds one line of per-row data for each row, and row i
    searches [lo[i], hi[i]] with the candidates ``extra[i]`` added, in
    brackets of ``2 * zoom + 1`` points; every row gets exactly the result
    a one-row search would.
    """
    _keep_heap()
    x, f = np.empty((2, len(lo)))
    kw = dict(maximize=maximize, tie_high=tie_high, zoom=zoom)
    for b in row_batches(len(lo), grid_n, extra.shape[1], zoom=zoom):
        batch = partial(objective, cols[b])
        x[b], f[b] = refine_search(batch, lo[b], hi[b], grid_n, extra=extra[b], **kw)
    return x, f
