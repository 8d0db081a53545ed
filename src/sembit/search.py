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
and power search goes through, runs a row set in two phases, the coarse
grid and then the brackets from its incumbents.  Each phase cuts the rows
into :func:`row_batches` of its own width, so that each objective call
stays near ``BATCH_CANDIDATES`` candidates: a default region's coarse
phase scores batches of 126 rows x 130 candidates, and its bracket phase
one batch of about 400 rows x 17 per scheme.  Cut to the coarse phase's
126 rows, a 17-point bracket call would score about 2,100 candidates,
too few to amortise numpy's per-call overhead.  A row set that fits one
batch in both phases, such as a sweep's power rows or a one-row solve,
is searched by one :func:`refine_search` call, which scores exactly what
the two phases would.  A minimum-power row set holds each row twice, an
oma row and a semi row, which one objective scores together.

Before its first batch, :func:`search_rows` raises glibc's malloc trim
threshold to ``MALLOC_TRIM_THRESHOLD``, once per process.  Every batch's
float temporary, with glibc's 8 B chunk header, stays under glibc's
128 KiB mmap threshold, so the temporaries live on the heap: the semi
boundary's coarse batches (126 x 130 x 8 + 8 = 131,048 B, a 131,056 B
chunk), the oma coarse batches (127 x 128) and the 17-point bracket
batches (at most 963 x 17 x 8 + 8 = 130,976 B).  With glibc's
default trim threshold, freeing a batch's temporaries handed the top of
the heap back to the kernel, and the next objective call faulted the
same pages in again: about 6,000 minor page faults, a third of the wall
time, per default region.  With the higher threshold a region takes 0 to
3.  The setting is process-wide, so a program that embeds this package
inherits it; where ``mallopt`` is missing (macOS, Windows) the call does
nothing, and musl ignores it.

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
# glibc's default mmap threshold: a malloc chunk of this size or more is mmapped.
MMAP_THRESHOLD = 128 * 1024
# Candidates per objective call a batch aims at: large enough to amortise
# numpy's per-call overhead, small enough to keep temporaries in cache.
# A batch's float temporary must also stay on the heap: once the trim
# threshold below is set, glibc stops raising the mmap threshold, so a
# larger temporary can be mmapped and unmapped, page faults and all, on
# every objective call.  Its chunk, rows x its phase's width x 8 B plus
# glibc's 8 B header rounded up to 16 B, is at most MMAP_THRESHOLD - 16
# when the temporary holds at most 16,381 floats.
BATCH_CANDIDATES = (MMAP_THRESHOLD - 16 - 8) // 8
# Free memory glibc keeps at the top of the heap instead of returning it to
# the kernel: 32 MiB, room for 256 batch temporaries.  A default region
# frees up to about 32 at once (measured on x86_64: 4 MiB removed every
# fault, 2 MiB left 740 per region).
MALLOC_TRIM_THRESHOLD = 256 * MMAP_THRESHOLD
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


def row_batches(n_rows: int, width: int) -> list[slice]:
    """Consecutive row slices of about ``BATCH_CANDIDATES`` candidates per objective call.

    ``width`` is the number of candidates one row scores per call in the
    phase being batched.
    """
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
    """Column of each row's best candidate: the first of equals, or the last if ``tie_high``.

    NaNs (dead candidates) always lose.  ``argmax`` and ``argmin`` return a
    row's first NaN, so a row holds a NaN exactly when its pick scores
    NaN; only then are the NaNs patched and the pick taken again.
    """
    if tie_high:
        values = values[:, ::-1]
    i = values.argmax(axis=1) if maximize else values.argmin(axis=1)
    if np.isnan(values[np.arange(len(i)), i]).any():
        values = np.where(np.isnan(values), -np.inf if maximize else np.inf, values)
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
    start: tuple | None = None,
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
    is not re-scored.  ``shrink=1`` stops at the coarse grid.
    ``start=(x, f)`` skips the coarse grid (and ``extra``): the brackets
    start from incumbents ``x`` that score ``f``, so a coarse-only call
    and a call started from its result together equal one full call.
    Ties break toward the smallest candidate unless ``tie_high``.
    """
    check_grid_n(n)
    levels = refine_levels(zoom, shrink)
    one_row = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    if (hi < lo).any():
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    rows = np.arange(len(lo))

    if start is None:
        grid = _linspace_rows(lo, hi, np.arange(n, dtype=float))
        # tuple() takes any iterable, but would copy a matrix row by row.
        extra = np.asarray(extra if isinstance(extra, np.ndarray) else tuple(extra), dtype=float)
        if extra.size:
            grid = np.concatenate([grid, np.clip(extra, lo[:, None], hi[:, None])], axis=1)
            grid.sort(axis=1)
        f = objective(grid)
        i = _pick(f, maximize, tie_high)
        x_best, f_best = grid[rows, i], f[rows, i]
    else:
        x_best, f_best = (np.atleast_1d(np.asarray(v, dtype=float)) for v in start)

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
    """(x, f) optimising ``objective(cols[rows], x)`` for each row, in two row-batched phases.

    ``cols`` holds one line of per-row data for each row, and row i
    searches [lo[i], hi[i]] with the candidates ``extra[i]`` added, in
    brackets of ``2 * zoom + 1`` points; every row gets exactly the result
    a one-row search would.  The coarse grid runs first, then the
    brackets from its incumbents, each phase cut into :func:`row_batches`
    of its own width; when each phase is one batch, one call runs both.
    Every call goes to :func:`refine_search` through this module's
    binding, which `tools/search_quality.py` and the benchmark's tracer
    wrap.
    """
    _keep_heap()
    kw = dict(maximize=maximize, tie_high=tie_high, zoom=zoom)
    coarse = row_batches(len(lo), check_grid_n(grid_n) + extra.shape[1])
    brackets = row_batches(len(lo), 2 * zoom + 1)
    if len(coarse) == len(brackets) == 1:
        return refine_search(partial(objective, cols), lo, hi, grid_n, extra=extra, **kw)
    x, f = np.empty((2, len(lo)))
    for b in coarse:
        batch = partial(objective, cols[b])
        x[b], f[b] = refine_search(batch, lo[b], hi[b], grid_n, extra=extra[b], shrink=1, **kw)
    for b in brackets:
        batch = partial(objective, cols[b])
        x[b], f[b] = refine_search(batch, lo[b], hi[b], grid_n, start=(x[b], f[b]), **kw)
    return x, f
