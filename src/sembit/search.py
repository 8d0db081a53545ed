"""Deterministic 1-D grid search with bracketing refinement, over rows of problems.

All boundary and power searches in this package reduce to minimising a
cheap vectorised objective over one bandwidth coordinate (a boundary
search minimises the negated bit rate).  A uniform
coarse grid of ``grid_n`` points finds the basin.  Bracket levels then close
in on the incumbent: each scores exactly ``2 * zoom + 1`` points over the
incumbent plus or minus the previous level's spacing, clipped to the
row's interval, so the spacing shrinks by ``zoom`` per level.  Every
search shrinks it by ``REFINE_SHRINK`` in all, over
``levels = log_zoom(REFINE_SHRINK)`` levels, to
``(hi - lo) / ((grid_n - 1) * REFINE_SHRINK)``; a zoom whose powers miss the
shrink is rejected.  The caller picks the zoom by what its cost follows:
a search over many rows costs about one unit per candidate, so narrow
brackets over more levels are cheaper, while a one-row search costs about
one unit per objective call, so wide brackets over few levels are.  The incumbent
keeps its score from the level that found it and is not scored again; a
bracket point replaces it only when it scores lower, or equal and
smaller.  A unimodal objective has its optimum within one spacing
of the best sample, so no candidate outside the bracket could win.  No
randomness, no tolerance-dependent iteration counts: the same inputs
always visit the same candidates, which keeps CLI outputs
bit-reproducible.

:func:`search_rows`, the one search every boundary and power search
goes through, solves a set of independent rows (boundary points at
several semantic rates, or one target triple over several channel
draws).  The objective scores a rows x candidates matrix at once, and
every row sees exactly the candidates a one-row search would: its own
``np.linspace`` grid and brackets, sorted.  Duplicate candidates may
stay, since an equal x scores equally.  A row set runs in two phases,
the coarse grid and then the brackets from its incumbents.  Each phase
cuts the rows into :func:`row_batches` of its own width, so that each
objective call stays near ``BATCH_CANDIDATES`` candidates: a default
region's coarse phase scores batches of 186 rows x 88 candidates, and
its bracket phase one batch of at most 963 rows x 17, which holds every
row a default region searches.  Cut to the coarse phase's 186 rows, a
17-point bracket call would score about 3,200 candidates, too few to
amortise numpy's per-call overhead.  A region's row set holds the oma
rows it searches, then the semi rows, and a minimum-power row set holds
each row twice, an oma row and a semi row; in either, one objective
scores both kinds together.

Before its first batch, :func:`search_rows` raises glibc's malloc trim
threshold to ``MALLOC_TRIM_THRESHOLD``, once per process.  Every batch's
float temporary, with glibc's 8 B chunk header, stays under glibc's
128 KiB mmap threshold, so the temporaries live on the heap: the
boundary and power coarse batches (186 x 88 x 8 + 8 = 130,952 B, a
130,960 B chunk) and the 17-point bracket batches (at most 963 x 17 x 8
+ 8 = 130,976 B).  With glibc's
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
from functools import cache

import numpy as np

# Default coarse grid size: the ``--grid`` of ``region`` and ``power``.
DEFAULT_GRID_N = 64
# Every search's final spacing is its coarse spacing over this factor.
REFINE_SHRINK = 64**3
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


def _pick(values: np.ndarray) -> np.ndarray:
    """Column of each row's smallest candidate, the first of equals.

    NaNs (dead candidates) always lose.  ``argmin`` returns a row's first
    NaN, so a row holds a NaN exactly when its pick scores NaN; only then
    are the NaNs patched and the pick taken again.
    """
    i = values.argmin(axis=1)
    if np.isnan(values[np.arange(len(i)), i]).any():
        i = np.where(np.isnan(values), np.inf, values).argmin(axis=1)
    return i


def search_rows(objective, cols, lo, hi, extra, grid_n: int, *, zoom: int):
    """(x, f) minimising ``objective(cols[rows], x)`` for each row, in two row-batched phases.

    ``cols`` holds one line of per-row data for each row, and row i
    searches [lo[i], hi[i]]; ``objective`` maps a batch's lines and its
    rows x candidates matrix to the scores, elementwise.  The coarse
    phase scores each row's ``grid_n``-point grid with the candidates
    ``extra[i]`` added, clipped into the row's interval, so known-good
    special cases can seed the search and the result provably never
    falls below them.  The bracket phase then runs
    ``refine_levels(zoom, REFINE_SHRINK)`` levels of ``2 * zoom + 1``
    points within one previous spacing of each incumbent; an incumbent
    keeps its score and is not scored again.  Each phase is cut into
    :func:`row_batches` of its own width, and every row gets exactly the
    result a one-row search would.  Ties break toward the smallest
    candidate.
    """
    check_grid_n(grid_n)
    levels = refine_levels(zoom, REFINE_SHRINK)
    if (hi < lo).any():
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    _keep_heap()
    x, f = np.empty((2, len(lo)))
    ramp = np.arange(grid_n, dtype=float)
    for b in row_batches(len(lo), grid_n + extra.shape[1]):
        grid = _linspace_rows(lo[b], hi[b], ramp)
        if extra.shape[1]:
            grid = np.concatenate([grid, np.clip(extra[b], lo[b, None], hi[b, None])], axis=1)
            grid.sort(axis=1)
        fb = objective(cols[b], grid)
        i = _pick(fb)
        rows = np.arange(len(grid))
        x[b], f[b] = grid[rows, i], fb[rows, i]

    ramp = np.arange(2 * zoom + 1, dtype=float)
    for b in row_batches(len(lo), 2 * zoom + 1):
        lo_b, hi_b, x_best, f_best = lo[b], hi[b], x[b], f[b]
        rows = np.arange(len(lo_b))
        half = (hi_b - lo_b) / (grid_n - 1)
        for _ in range(levels):
            window = _linspace_rows(
                np.maximum(lo_b, x_best - half), np.minimum(hi_b, x_best + half), ramp
            )
            fw = objective(cols[b], window)
            j = _pick(fw)
            xj, fj = window[rows, j], fw[rows, j]
            better = (fj < f_best) | ((fj == f_best) & (xj < x_best))
            x_best = np.where(better, xj, x_best)
            f_best = np.where(better, fj, f_best)
            half /= zoom
        x[b], f[b] = x_best, f_best
    return x, f
