"""Minimum transmit power to hit a (semantic rate, similarity, bit rate) triple.

The dual problem to the region boundaries: instead of spending a fixed
budget, find the cheapest allocation meeting all three targets at once.
No budget cap applies here; the answer may exceed any particular
scenario's max_power and it is the caller's business to compare.

Same structural trick as the boundary module: the hybrid solver folds the
orthogonal and overlay solutions into its candidate set, so its reported
minimum never exceeds either (they are hybrid corner cases).

The solvers work on row sets: each row is one channel draw with its own
target triple, and each scheme's result is a :class:`PowerRows` of 1-D
columns (:func:`solve_min_powers_rows`); :func:`solve_min_powers` is a
set of one row, as objects.  Oma is the hybrid with no shared pipe, so
one search serves both split schemes: each row that needs a search
enters it twice, as an oma row over its semantic band and as a semi row
over its shared band, and one objective call scores both kinds of row,
computing the semantic power and the clean bit band's inverse slope
once for all.

Infeasibility is one code per row, an index into :data:`CAUSES`: array
comparisons over the row set give the structural codes, and oma's
search adds its bit-band code.  The :class:`Infeasible` that
:func:`solve_min_powers` maps a scheme to is built from that code and
the row's targets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, Scenario
from .errors import Infeasible, require_finite
from .rates import (
    ALLOC_FIELDS,
    Allocation,
    Scheme,
    eps_seeded_bands,
    fold_corners,
    lemma1_bounds,
    orth_inv_slope,
    overlay_inv_slope,
    pipe_power,
    sem_power,
    water_fill_min_grid,
)
from .search import search_rows

TARGET_FIELDS = ("sigma_target", "min_similarity", "bit_target")
# The columns of a row set's data matrix, in order.
ROW_COLUMNS = ("gain_s", "gain_b", "gain_eff", *TARGET_FIELDS)
# Infeasible.cause values by PowerRows.cause code; code 0 is a feasible row.
# Codes 1-3 are structural (see _row_set); code _BIT_BAND is a split
# scheme whose every semantic band leaves too little bit band, and code
# _SHARED_BAND an overlay whose bit power overflows on the full band.
CAUSES = (
    "",
    "bandwidth-bound",
    "rate-asymptote",
    "similarity-asymptote",
    "bandwidth-bound",
    "bandwidth-bound",
)
_BIT_BAND = 4
_SHARED_BAND = 5
# Bracket zoom of the power searches: 129-point brackets over 3 levels.
# A one-row ``power`` request costs about one unit per objective call, so
# few wide brackets beat many narrow ones.
SEARCH_ZOOM = 64


@dataclass(frozen=True)
class PowerTargets:
    """Targets a minimum-power allocation must meet simultaneously.

    Attributes:
        sigma_target: normalised semantic rate (suts/s per content unit).
        min_similarity: similarity floor for the semantic stream.
        bit_target: bit rate in bit/s.
    """

    sigma_target: float
    min_similarity: float
    bit_target: float

    def __post_init__(self):
        require_finite(self, "sigma_target", "min_similarity", "bit_target")
        if self.sigma_target < 0 or self.bit_target < 0:
            raise ValueError("targets must be non-negative")
        if not 0.0 <= self.min_similarity < 1.0:
            raise ValueError("min_similarity must lie in [0, 1)")


@dataclass(frozen=True)
class PowerSolution:
    """Solved minimum power and the allocation that realises it."""

    total: float
    alloc: Allocation


@dataclass(frozen=True)
class PowerRows:
    """One scheme's minimum powers over a row set, one 1-D column per field.

    ``total`` and the six :class:`Allocation` fields are NaN on an
    infeasible row, and ``cause`` indexes :data:`CAUSES` (0 on a feasible
    row).  :func:`solve_min_powers` builds its objects from row 0.
    """

    total: np.ndarray
    w_shared: np.ndarray
    w_sem: np.ndarray
    w_bit: np.ndarray
    p_sem: np.ndarray
    p_bit_shared: np.ndarray
    p_bit_orth: np.ndarray
    cause: np.ndarray


def _row_set(
    scenario: Scenario, reals: Sequence[ChannelRealization], targets: Sequence[PowerTargets]
) -> tuple:
    """Rows of (draw, target triple): (data, oma_cause, noma_cause, live, w_low, w_up, bands).

    ``data`` is one (rows, 6) matrix whose columns follow
    :data:`ROW_COLUMNS`.  Per row come the ``oma_cause`` and ``noma_cause``
    codes of a structural infeasibility (semi's checks are oma's): a
    :data:`CAUSES` index independent of the draw, 0 if none, checked
    hardest-first:
      1 bandwidth-bound      the semantic rate needs more than the carrier
                             even at similarity 1;
      2 rate-asymptote       the full band cannot reach the similarity the
                             rate target implies (curve ceiling);
      3 similarity-asymptote the floor itself sits at or above the ceiling.
    A zero semantic-rate target drops the semantic stream for the split
    schemes, so their floor constraint is vacuous then; the overlay always
    carries the semantic stream and keeps its floor.  ``live`` holds the
    indices of the rows that need a search, ``w_low`` and ``w_up`` their
    Lemma-1 interval, and ``bands`` their similarity-seeded bands.
    """
    w = scenario.total_bandwidth
    a_high = scenario.logistic.a_high
    draws = [(r.gain_s, r.gain_b, r.gain_eff) for r in reals]
    values = [(t.sigma_target, t.min_similarity, t.bit_target) for t in targets]
    data = np.array([d + v for d, v in zip(draws, values)])
    sigma, floor = data[:, 3], data[:, 4]
    need_bw = sigma * scenario.k
    noma_cause = np.where(
        need_bw > w, 1, np.where(need_bw >= w * a_high, 2, np.where(floor >= a_high, 3, 0))
    )
    oma_cause = np.where(sigma > 0, noma_cause, 0)
    live = np.flatnonzero((oma_cause == 0) & (sigma > 0))
    interval = lemma1_bounds(scenario, sigma[live], floor[live])
    bands = eps_seeded_bands(scenario, sigma[live], floor[live])
    return data, oma_cause, noma_cause, live, *interval, bands


def _columns(cause: np.ndarray, fields: np.ndarray) -> PowerRows:
    """PowerRows from ``fields``, one line per field in order, blanked to NaN on infeasible rows."""
    fields[:, cause != 0] = np.nan
    return PowerRows(*fields, cause=cause)


def _fields(rows: PowerRows) -> np.ndarray:
    """The (7, rows) matrix :func:`_columns` builds ``rows`` from."""
    return np.array([rows.total, *(getattr(rows, f) for f in ALLOC_FIELDS)])


def _infeasible(scenario: Scenario, targets: PowerTargets, code: int) -> Infeasible:
    """The :class:`Infeasible` of a row with :data:`CAUSES` code ``code`` and targets ``targets``.

    Only the message of ``code`` is formatted.
    """
    w = scenario.total_bandwidth
    a_high = scenario.logistic.a_high
    sigma = targets.sigma_target
    need_bw = sigma * scenario.k
    message = (
        None,
        lambda: f"semantic rate {sigma:.6g} needs {need_bw:.6g} Hz at similarity 1; "
        f"carrier has {w:.6g} Hz",
        lambda: f"semantic rate {sigma:.6g} needs similarity {need_bw / w:.6g} on the full "
        f"band; curve ceiling is {a_high}",
        lambda: f"similarity floor {targets.min_similarity} is at or above the curve ceiling "
        f"{a_high}",
        lambda: f"bit rate {targets.bit_target:.6g} needs infinite power: a semantic band "
        f"below the curve ceiling {a_high} leaves a bit band of at most "
        f"{w - need_bw / a_high:.6g} Hz",
        lambda: f"bit rate {targets.bit_target:.6g} needs infinite power on the full "
        f"{w:.6g} Hz band shared with the semantic stream",
    )[code]()
    return Infeasible(message, cause=CAUSES[code])


def _solution(
    scenario: Scenario, targets: PowerTargets, scheme: Scheme, rows: PowerRows, i: int
) -> PowerSolution | Infeasible:
    """Row ``i`` of ``rows`` as :func:`solve_min_powers` maps ``scheme`` for ``targets``."""
    if rows.cause[i]:
        return _infeasible(scenario, targets, rows.cause.item(i))
    alloc = {f: getattr(rows, f).item(i) for f in ALLOC_FIELDS}
    return PowerSolution(rows.total.item(i), Allocation(scheme, **alloc))


def _oma_rows(
    scenario: Scenario, data: np.ndarray, cause: np.ndarray, live: np.ndarray, won: tuple
) -> PowerRows:
    """Oma columns of the :func:`_row_set` rows ``data`` with structural codes ``cause``.

    ``won`` holds the ``live`` rows' searched bands and each one's
    semantic power on its band; ties in the search broke toward the
    smaller semantic band.  The bit power inverts the whole bit target on
    the leftover band, and a row whose every semantic band leaves too
    little of it is infeasible with code ``_BIT_BAND``.
    """
    w = scenario.total_bandwidth
    # Rows without a search carry no semantic stream (or are infeasible):
    # no band, no power.
    band, p_s = np.zeros((2, len(data)))
    band[live], p_s[live] = won
    _, gain_b, _, _, _, bit_target = data.T
    w_bit = w - band
    p_bit = pipe_power(w_bit, bit_target, orth_inv_slope(w_bit, gain_b, scenario.noise_psd))
    tot = p_s + p_bit
    cause = np.where((cause == 0) & ~np.isfinite(tot), _BIT_BAND, cause)
    zero = np.zeros_like(band)
    return _columns(cause, np.array([tot, zero, band, w_bit, p_s, zero, p_bit]))


def _noma_rows(scenario: Scenario, data: np.ndarray, cause: np.ndarray) -> PowerRows:
    """Cheapest full-band overlay for each :func:`_row_set` row of ``data``, in closed form.

    The semantic power is pinned by the harder of the rate target and the
    floor; the bit power then inverts the superposed-pipe rate with that
    interference, so a row is exactly constant in its semantic-rate target
    while the floor binds.  Structurally infeasible rows are evaluated too
    (at +inf semantic power) and then blanked by their ``cause``; a row
    whose total still overflows is infeasible with code ``_SHARED_BAND``.
    """
    w = scenario.total_bandwidth
    gain_s, _, gain_eff, sigma, floor, bit_target = data.T[:, :, None]
    p_s = sem_power(scenario, gain_s, sigma, floor, w)
    inv_h = overlay_inv_slope(w, p_s, gain_eff, scenario.noise_psd)
    p_b = pipe_power(w, bit_target, inv_h)[:, 0]
    p_s = p_s[:, 0]
    tot = p_s + p_b
    cause = np.where((cause == 0) & ~np.isfinite(tot), _SHARED_BAND, cause)
    zero = np.zeros_like(p_s)
    return _columns(cause, np.array([tot, zero + w, zero, zero, p_s, p_b, zero]))


def _powers(scenario: Scenario, g: np.ndarray, x):
    """(p_sem, p_bit_shared, p_bit_orth) of the search rows ``g`` at bands ``x``.

    Each line of ``g`` holds a row's :data:`ROW_COLUMNS`, then 1 on an
    oma row and 0 on a semi row; oma rows come first, as in every
    consecutive slice of the search's row set.  Every row pays the
    semantic power on band x pinned by the harder of the rate target and
    the floor, and has the clean bit band W - x.  An oma row inverts its
    whole bit target on that band; a semi row splits it between the
    superposed pipe on x and the clean band by inverse water-filling.  A
    candidate needing a similarity at or above the curve ceiling costs
    +inf semantic power, which shuts the superposed pipe.
    ``p_bit_shared`` has the semi rows only.
    """
    n0 = scenario.noise_psd
    gain_s, gain_b, gain_eff, sigma, floor, bit_target, oma = g.T[:, :, None]
    k = np.count_nonzero(oma)
    p_s = sem_power(scenario, gain_s, sigma, floor, x)
    w_b = scenario.total_bandwidth - x
    inv_b = orth_inv_slope(w_b, gain_b, n0)
    m = slice(k, None)
    p_m, p_o = water_fill_min_grid(
        x[m], overlay_inv_slope(x[m], p_s[m], gain_eff[m], n0), w_b[m], inv_b[m], bit_target[m]
    )
    p_o = np.concatenate([pipe_power(w_b[:k], bit_target[:k], inv_b[:k]), p_o])
    return p_s, p_m, p_o


def _total(scenario: Scenario, g: np.ndarray, x) -> np.ndarray:
    """Total power of the search rows ``g`` at bands ``x``: the objective of the power search."""
    p_s, p_m, p_o = _powers(scenario, g, x)
    # In place, and bit for bit p_s + p_o on an oma row and p_s + (p_m + p_o)
    # on a semi row: swapping the two terms of a float sum changes no bit.
    p_o[len(p_o) - len(p_m) :] += p_m
    p_o += p_s
    return p_o


def _semi_rows(
    scenario: Scenario, live: np.ndarray, won: tuple, oma: PowerRows, noma: PowerRows
) -> PowerRows:
    """Hybrid minimum per row from its interior search and the two corners.

    ``won`` holds the ``live`` rows' lines (shared band, total, p_sem,
    p_bit_shared, p_bit_orth) of the interior search over
    [sigma*k/a_high, W]; the orthogonal and overlay solutions, when
    feasible, then compete on their exact totals, so the hybrid never
    exceeds either.  Ties break toward the narrower shared band and then
    toward the interior.
    """
    w = scenario.total_bandwidth
    wm, f, p_s, p_m, p_o = won
    # One line per PowerRows field, in order; a row without a candidate costs +inf.
    best = np.zeros((1 + len(ALLOC_FIELDS), len(oma.total)))
    best[0] = np.inf
    found = np.isfinite(f)
    best[:, live[found]] = np.array([f, wm, np.zeros_like(wm), w - wm, p_s, p_m, p_o])[:, found]
    fold_corners(best, _fields(oma), _fields(noma), np.less)
    # Semi's structural checks are oma's, so only oma's own bit-band
    # bound can leave a row without any candidate, and oma's cause is semi's.
    return _columns(np.where(np.isfinite(best[0]), 0, oma.cause), best)


def solve_min_powers(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
    grid_n: int,
) -> dict[Scheme, PowerSolution | Infeasible]:
    """All three schemes' minima for one draw, each solved once.

    A row set of one (:func:`solve_min_powers_rows`): maps each scheme,
    in oma, noma, semi order, to its solution or to the :class:`Infeasible`
    that names why no allocation meets ``targets``.  The semi fold reuses
    the oma and noma results instead of solving them again.
    """
    solved = solve_min_powers_rows(scenario, [real], [targets], grid_n)
    return {s: _solution(scenario, targets, s, rows, 0) for s, rows in solved.items()}


def solve_min_powers_rows(
    scenario: Scenario,
    reals: Sequence[ChannelRealization],
    targets: Sequence[PowerTargets],
    grid_n: int,
) -> dict[Scheme, PowerRows]:
    """Each scheme's minima over rows (draw ``reals[i]``, triple ``targets[i]``).

    Maps each scheme, in oma, noma, semi order, to its columns.  The rows
    that need a search (a positive rate target, structurally feasible)
    are searched by one :func:`sembit.search.search_rows` call, each
    twice: first as an oma row over its Lemma-1 interval [w_low, w_up],
    then as a semi row over [w_low, W].  Each row's extras are its
    similarity-seeded bands; its upper bound is its grid's last point.
    Every row gets exactly the result a one-row solve would.
    """
    data, oma_cause, noma_cause, live, w_low, w_up, bands = _row_set(scenario, reals, targets)
    n = len(live)
    g = np.column_stack([np.tile(data[live], (2, 1)), np.arange(2 * n) < n])
    lo, hi = np.tile(w_low, 2), np.concatenate([w_up, np.full(n, scenario.total_bandwidth)])
    extra = np.tile(bands, (2, 1))
    x, f = search_rows(
        partial(_total, scenario), g, lo, hi, extra, grid_n, maximize=False, zoom=SEARCH_ZOOM
    )
    p_s, p_m, p_o = (p[:, 0] for p in _powers(scenario, g, x[:, None]))
    oma = _oma_rows(scenario, data, oma_cause, live, (x[:n], p_s[:n]))
    noma = _noma_rows(scenario, data, noma_cause)
    semi = _semi_rows(scenario, live, (x[n:], f[n:], p_s[n:], p_m, p_o[n:]), oma, noma)
    return {Scheme.OMA: oma, Scheme.NOMA: noma, Scheme.SEMI: semi}
