"""Achievable-region boundaries for the three downlink schemes.

Every boundary is traced over the normalised semantic rate axis sigma
(suts/s per symbol-content unit): for each sigma target the searches
below find the largest bit rate the power budget supports.  The
orthogonal scheme optimises one bandwidth split, the overlay has a closed
form, and the hybrid optimises a shared-band width with the residual
power water-filled between its two bit pipes.

The solvers work on sigma grids: each scheme's result is a
:class:`BoundaryRows` of 1-D columns, one row per target, solved in row
batches with one search per batch; each row is exactly what a grid of
its target alone gives.  A search objective scores its whole rows x
candidates matrix with one full-width kernel of :mod:`sembit.rates`,
:func:`~sembit.rates.orth_max_rate` or the closed-form water-fill of
:func:`~sembit.rates.hybrid_max_rate`, which masks a candidate whose
semantic power leaves no budget to 0.  A search returns each row's
band; the hybrid rows get their bit powers from
:func:`~sembit.rates.water_fill_max_grid`.  Every row's bit rate and
similarity are then :func:`~sembit.rates.rates_rows`' of its own
allocation, so each reported row is the plug-back of that allocation by
construction.  The overlay's closed-form sweep and the region's two
intercepts (:func:`oma_extremes`' corner allocations) are allocations
evaluated the same way, so no boundary code states a rate or similarity
equation of its own.  A traced boundary, :class:`RegionBoundary`, is
columns too: sigma, bit rate and similarity, which the containment check
and the CSV writer read as they are.

The orthogonal and overlay solutions are hybrid corner cases, so the
hybrid folds in the oma and noma rows it is given for the same targets
(:func:`sembit.rates.fold_corners`): its boundary dominates the other two
at finite grid resolution by construction, not merely up to search luck.
:func:`trace_region` is the one region driver, for any set of schemes:
it picks each scheme's sigma grid, solves oma once on the hybrid's grid
and lets the hybrid reuse those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, Scenario
from .errors import DomainMismatch, EmptyRegion
from .jsontext import write_text
from .rates import (
    ALLOC_FIELDS,
    RatePair,
    Scheme,
    bit_rates,
    eps_seeded_bands,
    fold_corners,
    hybrid_max_rate,
    lemma1_bounds,
    orth_inv_slope,
    orth_max_rate,
    overlay_inv_slope,
    rates_rows,
    sem_power,
    water_fill_max_grid,
)
from .search import DEFAULT_GRID_N, search_rows
from .similarity import power_for_similarity_grid, required_power_for_similarity

# Bracket zoom of the boundary searches: 17-point brackets over 6 levels.
# A region solves about 185 rows per coarse objective call, so a search
# costs about one unit per candidate, and narrow brackets score the fewest.
SEARCH_ZOOM = 8


@dataclass(frozen=True)
class Extremes:
    """Axis intercepts of the orthogonal/hybrid region.

    sigma_max: largest feasible semantic rate (bit stream silenced).
    r_max: largest feasible bit rate (semantic stream silenced).
    power_limited: True when the similarity floor, not bandwidth, caps
        sigma_max (the budget cannot lift the full band to the floor).
    w_sem: the semantic band of the sigma_max corner, which spends the
        whole budget on it; power_limited is w_sem < W.
    """

    sigma_max: float
    r_max: float
    power_limited: bool
    w_sem: float


@dataclass(frozen=True)
class BoundaryRows:
    """One scheme's boundary points over a sigma grid, one 1-D column per field.

    A row whose target the budget cannot meet has no allocation:
    ``solved`` is False there, its bit rate and similarity are 0 and its
    six :class:`Allocation` fields NaN.
    """

    bit_rate: np.ndarray
    similarity: np.ndarray
    w_shared: np.ndarray
    w_sem: np.ndarray
    w_bit: np.ndarray
    p_sem: np.ndarray
    p_bit_shared: np.ndarray
    p_bit_orth: np.ndarray
    solved: np.ndarray


@dataclass(frozen=True)
class RegionBoundary:
    """A swept boundary: one 1-D column per field, ordered by increasing semantic rate."""

    scheme: Scheme
    sigma: np.ndarray
    bit_rate: np.ndarray
    similarity: np.ndarray

    @property
    def points(self) -> tuple[RatePair, ...]:
        return tuple(RatePair(*row) for row in self._rows())

    def _rows(self):
        """(sigma, bit rate, similarity) per row, as plain floats."""
        return zip(self.sigma.tolist(), self.bit_rate.tolist(), self.similarity.tolist())

    def write_csv(self, path) -> None:
        """Write the columns as CSV, one float repr per field, in one call.

        No field can need quoting, so the lines are those of ``csv.writer``.
        """
        # A plain float's repr is plain digits, where a numpy scalar's is not.
        lines = [f"{s!r},{b!r},{e!r}\r\n" for s, b, e in self._rows()]
        write_text(path, "sigma,bit_rate,similarity\r\n" + "".join(lines), newline="")


@dataclass(frozen=True)
class Containment:
    """Verdict of a pointwise boundary-dominance check."""

    contained: bool
    witness_sigma: float | None
    max_violation: float
    checked: int


def oma_extremes(scenario: Scenario, real: ChannelRealization) -> Extremes:
    """Endpoints of the orthogonal region for one channel draw: two corner allocations.

    The bit-rate intercept gets the full band and budget.  The semantic
    intercept gets the whole budget on the band w_sem = min(W, P / p_unit),
    where p_unit is the power that lifts 1 Hz to the similarity floor:
    the full band when the budget lifts it to the floor (bandwidth-limited),
    else the widest band it lifts there, the spare spectrum idle
    (power-limited).  A floor at or below the curve's floor costs nothing
    (w_sem = W); one at or above its ceiling costs +inf (w_sem = 0, so
    sigma_max = 0).  Both intercepts are :func:`rates_rows`' of their corner.
    """
    w = scenario.total_bandwidth
    p = scenario.max_power
    p_unit = power_for_similarity_grid(
        scenario.logistic, scenario.min_similarity, 1.0, real.gain_s, scenario.noise_psd
    )
    with np.errstate(divide="ignore"):
        w_sem = min(w, float(p / p_unit))
    # The semantic corner, then the bit corner.
    corners = np.array(
        [[0.0, 0.0], [w_sem, 0.0], [w - w_sem, w], [p, 0.0], [0.0, 0.0], [0.0, p]]
    )
    sem, bit, _ = rates_rows(scenario, real.gain_s, real.gain_b, real.gain_eff, corners)
    return Extremes(sigma_max=sem.item(0), r_max=bit.item(1), power_limited=w_sem < w, w_sem=w_sem)


def _seeds(scenario: Scenario, sigma: np.ndarray) -> np.ndarray:
    """The :func:`eps_seeded_bands` of the nonzero targets of ``sigma``, which are searched."""
    return eps_seeded_bands(scenario, sigma[sigma != 0.0], scenario.min_similarity)


def _oma_points(
    scenario: Scenario,
    real: ChannelRealization,
    sigma: np.ndarray,
    grid_n: int,
    bands: np.ndarray,
) -> BoundaryRows:
    """Orthogonal boundary rows: the largest bit rate at each target of ``sigma``.

    Each row searches the semantic band over its :func:`lemma1_bounds`
    interval [sigma*k/a_high, min(sigma*k/floor, W)], with its
    similarity-seeded bands ``bands`` (the :func:`_seeds` of ``sigma``)
    added to the grid, one search per row batch.  A candidate pays the
    exact power that meets the semantic target and hands the rest to the
    bit band; one whose power need exceeds the budget scores zero.  Ties
    break toward the smaller semantic band.  A zero target is the bit
    intercept: no semantic band, and the whole budget on the full bit band.
    A positive target equal to sigma_max is the semantic intercept, the
    :func:`oma_extremes` corner: band w_sem and the whole budget.
    """
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    floor = scenario.min_similarity
    live = sigma != 0.0
    s = sigma[live]
    lo, hi = lemma1_bounds(scenario, s, floor)

    def score(s_col: np.ndarray, ws: np.ndarray) -> np.ndarray:
        p_req = sem_power(scenario, real.gain_s, s_col, floor, ws)
        return orth_max_rate(w, ws, p_req, p_max, real.gain_b, scenario.noise_psd)

    ws, p_sem = np.zeros((2, len(sigma)))
    ws[live] = search_rows(
        score, s[:, None], lo, hi, bands, grid_n, maximize=True, zoom=SEARCH_ZOOM
    )[0]
    p_sem[live] = sem_power(scenario, real.gain_s, s, floor, ws[live])
    ext = oma_extremes(scenario, real)
    corner = live & (sigma == ext.sigma_max)
    ws[corner], p_sem[corner] = ext.w_sem, p_max
    zero = np.zeros_like(ws)
    fields = np.array([zero, ws, w - ws, p_sem, zero, p_max - p_sem])
    return _columns(scenario, real, fields, p_sem <= p_max)


def _columns(scenario, real, alloc, solved) -> BoundaryRows:
    """BoundaryRows of the allocations whose :data:`ALLOC_FIELDS` lines are ``alloc``.

    Rows outside ``solved`` are blanked to NaN fields.  Every row's bit
    rate and similarity are then :func:`~sembit.rates.rates_rows`' of its
    own allocation, in one call, so an unsolved row gets 0 for both.
    """
    alloc[:, ~solved] = np.nan
    _, bit, eps = rates_rows(scenario, real.gain_s, real.gain_b, real.gain_eff, alloc)
    return BoundaryRows(bit, eps, *alloc, solved=solved)


def _fields(rows: BoundaryRows) -> np.ndarray:
    """A bit-rate line, then the :data:`ALLOC_FIELDS` lines of ``rows``: a corner to fold."""
    return np.array([rows.bit_rate, *(getattr(rows, f) for f in ALLOC_FIELDS)])


def noma_sigma_min(scenario: Scenario) -> float:
    """Smallest semantic rate any full-band overlay point can have.

    The overlay always carries the semantic stream across the whole band
    at at least the similarity floor (or the curve's own floor when the
    constraint is slack), so the semantic rate cannot drop below this.

    Raises:
        EmptyRegion: the similarity floor sits at or above the curve's
            ceiling, so no overlay point exists for any budget.
    """
    params = scenario.logistic
    if scenario.min_similarity >= params.a_high:
        raise EmptyRegion(
            f"similarity floor {scenario.min_similarity} is unreachable "
            f"(curve ceiling {params.a_high})"
        )
    eps = max(scenario.min_similarity, params.a_low)
    return scenario.total_bandwidth * eps / scenario.k


def noma_power_floor(scenario: Scenario, real: ChannelRealization) -> float:
    """Semantic power that meets the similarity floor over the full band."""
    return required_power_for_similarity(
        scenario.logistic,
        scenario.min_similarity,
        scenario.total_bandwidth,
        real.gain_s,
        scenario.noise_psd,
    )


def _overlay_rows(scenario: Scenario, real: ChannelRealization, p_s: np.ndarray) -> BoundaryRows:
    """Full-band overlay rows, one per semantic power of ``p_s``.

    The allocation of row i is [W, 0, 0, p_s[i], P - p_s[i], 0]: the rest
    of the budget goes to the superposed bit stream.  A power over the
    budget is an unsolved row.
    """
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    zero = np.zeros_like(p_s)
    fields = np.array([zero + w, zero, zero, p_s, p_max - p_s, zero])
    return _columns(scenario, real, fields, p_s <= p_max)


def _noma_points(scenario: Scenario, real: ChannelRealization, sigma: np.ndarray) -> BoundaryRows:
    """Overlay rows at each target of ``sigma``, in closed form.

    The semantic power is pinned by whichever is harder, the rate target
    over the full band or the similarity floor.  An unreachable
    similarity costs +inf, which fails the budget, so its row is unsolved.
    """
    w = scenario.total_bandwidth
    p_s = sem_power(scenario, real.gain_s, sigma, scenario.min_similarity, w)
    return _overlay_rows(scenario, real, p_s)


def noma_boundary(
    scenario: Scenario,
    real: ChannelRealization,
    n_points: int = 200,
) -> RegionBoundary:
    """Full overlay boundary: sweep the semantic power from floor to budget.

    Each point is an :func:`_overlay_rows` allocation, so its bit rate and
    similarity are :func:`~sembit.rates.rates_rows`', and its semantic
    rate is W * similarity / k.

    Raises:
        EmptyRegion: the similarity floor cannot be met within the budget
            on this draw (power-limited), or is unreachable outright.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    p_max = scenario.max_power
    noma_sigma_min(scenario)  # raises EmptyRegion for an unreachable floor
    p_floor = noma_power_floor(scenario, real)
    if p_floor > p_max:
        raise EmptyRegion(
            f"power-limited draw: similarity floor needs {p_floor:.6g} W of "
            f"{p_max:.6g} W before the bit stream gets anything"
        )
    rows = _overlay_rows(scenario, real, np.linspace(p_floor, p_max, n_points))
    sigma = scenario.total_bandwidth * rows.similarity / scenario.k
    return RegionBoundary(Scheme.NOMA, sigma, rows.bit_rate, rows.similarity)


def _semi_points(
    scenario: Scenario,
    real: ChannelRealization,
    sigma: np.ndarray,
    grid_n: int,
    bands: np.ndarray,
    oma: BoundaryRows,
    noma: BoundaryRows,
) -> BoundaryRows:
    """Hybrid boundary rows: the largest bit rate at each target of ``sigma``.

    Each row searches the shared band over [sigma*k/a_high, W], seeded
    with its similarity-seeded bands (``bands``, the :func:`_seeds` of
    ``sigma``) and the oma band, one search per row batch.
    A candidate pays the semantic power pinned by the harder of the rate
    target and the similarity floor, then water-fills the rest between
    the superposed and clean bit pipes.  Ties break toward the wider
    shared band.  ``oma`` and ``noma`` hold those schemes' rows for the
    same targets: the oma band seeds each row's search, and both are
    folded in as corners once it is done, so no row falls below either.
    """
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    floor = scenario.min_similarity
    live = np.flatnonzero(sigma != 0.0)
    s = sigma[live]
    lo = lemma1_bounds(scenario, s, floor)[0]
    hi = np.full(len(s), w)
    # The oma band seeds a row's search when it fits; w, the grid's last
    # point, pads the other rows.
    w_o = oma.w_sem[live]
    seed = np.where(oma.solved[live] & (w_o >= lo), w_o, w)

    def score(s_col: np.ndarray, wm: np.ndarray) -> np.ndarray:
        p_s = sem_power(scenario, real.gain_s, s_col, floor, wm)
        return hybrid_max_rate(w, wm, p_s, p_max, real.gain_eff, real.gain_b, scenario.noise_psd)

    extra = np.column_stack([bands, seed])
    wm, rate = search_rows(
        score, s[:, None], lo, hi, extra, grid_n, maximize=True, zoom=SEARCH_ZOOM, tie_high=True
    )
    p_s = sem_power(scenario, real.gain_s, s, floor, wm)
    interior = (p_s <= p_max) & (rate > 0.0)
    # An interior optimum water-fills the rest of the budget for the largest rate.
    wm, p_s = wm[interior], p_s[interior]
    w_b = w - wm
    inv_m = overlay_inv_slope(wm, p_s, real.gain_eff, scenario.noise_psd)
    inv_b = orth_inv_slope(w_b, real.gain_b, scenario.noise_psd)
    p_bm, p_bo = water_fill_max_grid(wm, inv_m, w_b, inv_b, p_max - p_s)
    found = np.array([wm, np.zeros_like(wm), w_b, p_s, p_bm, p_bo])
    # A row without an interior optimum scores -inf and has no allocation
    # until a corner beats it, even a solved one with zero bit rate (the
    # semantic intercept); scoring each one by the bit rate its
    # allocation realises keeps the dominance exact.
    best = np.full((1 + len(ALLOC_FIELDS), len(sigma)), np.nan)
    best[0] = -np.inf
    best[1:, live[interior]] = found
    best[0, live[interior]] = bit_rates(scenario, real.gain_b, real.gain_eff, found)
    fold_corners(best, _fields(oma), _fields(noma), np.greater)
    return _columns(scenario, real, best[1:], ~np.isnan(best[1]))


def _lifted(scheme, sigma, rows: BoundaryRows, on=slice(None)):
    """The boundary through ``sigma``, each bit rate lifted to its running right-max.

    The bit rates and similarities are the rows ``on`` of ``rows``.  Point
    i carries those of the leftmost maximum of the bit rate at or after i:
    anything achievable at a higher semantic rate is achievable at a lower
    one, so the lift stays inside the region and irons out
    grid-resolution dents.
    """
    rate, eps = rows.bit_rate[on], rows.similarity[on]
    top = np.maximum.accumulate(rate[::-1])[::-1]
    at = np.where(rate == top, np.arange(len(rate)), len(rate))
    src = np.minimum.accumulate(at[::-1])[::-1]
    return RegionBoundary(scheme, sigma, rate[src], eps[src])


def trace_region(
    scenario: Scenario,
    real: ChannelRealization,
    schemes: Sequence[Scheme | str],
    n_points: int = 200,
    grid_n: int = DEFAULT_GRID_N,
) -> tuple[dict[Scheme, RegionBoundary], EmptyRegion | None]:
    """The boundaries of ``schemes`` for one draw, with oma solved once.

    The overlay goes first, with its own closed-form sweep
    (:func:`noma_boundary`).  The orthogonal boundary lifts (see
    :func:`_lifted`) its rows on the uniform grid of ``n_points`` sigma
    values over [0, sigma_max].  The hybrid's grid is that uniform grid,
    merged with the overlay's sigma samples (``np.unique`` of both) when
    the overlay is traced, so containment checks interpolate at exact
    hybrid knots.  Oma is solved once, on the hybrid's grid; the hybrid
    folds in all of its rows and lifts its own.  Points are solved in row
    batches, one search per batch.

    Returns the boundaries by scheme, and the :class:`EmptyRegion` that
    left out the overlay on a power-limited draw (else None).
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    schemes = {Scheme(s) for s in schemes}
    if not schemes:
        raise ValueError("no scheme to trace: the scheme set is empty")
    found: dict[Scheme, RegionBoundary] = {}
    empty = None
    if Scheme.NOMA in schemes:
        try:
            found[Scheme.NOMA] = noma_boundary(scenario, real, n_points)
        except EmptyRegion as exc:
            empty = exc
    if schemes - {Scheme.NOMA}:
        uniform = sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, n_points)
        on_uniform = slice(None)
        if Scheme.SEMI in schemes and Scheme.NOMA in found:
            merged = np.concatenate([uniform, found[Scheme.NOMA].sigma])
            sigma, inverse = np.unique(merged, return_inverse=True)
            on_uniform = inverse[:n_points]
        bands = _seeds(scenario, sigma)
        oma = _oma_points(scenario, real, sigma, grid_n, bands)
        if Scheme.OMA in schemes:
            found[Scheme.OMA] = _lifted(Scheme.OMA, uniform, oma, on_uniform)
        if Scheme.SEMI in schemes:
            noma = _noma_points(scenario, real, sigma)
            semi = _semi_points(scenario, real, sigma, grid_n, bands, oma, noma)
            found[Scheme.SEMI] = _lifted(Scheme.SEMI, sigma, semi)
    return found, empty


def check_containment(
    inner: RegionBoundary, outer: RegionBoundary, tol: float = 1e-6
) -> Containment:
    """Is every inner boundary point dominated by the outer boundary?

    Each inner point (sigma, R) is covered when the outer boundary,
    linearly interpolated at sigma, reaches at least R * (1 - tol).  Inner
    semantic rates outside the outer sweep's range (beyond a 1e-9 relative
    slack) are uncovered: the outer region has no point there at all.

    Raises:
        DomainMismatch: the two sigma ranges do not overlap at all.
    """
    if not len(inner.sigma) or not len(outer.sigma):
        raise DomainMismatch("cannot compare an empty boundary")
    s_in = inner.sigma
    r_in = inner.bit_rate
    s_out = outer.sigma
    r_out = outer.bit_rate
    order = np.argsort(s_out, kind="stable")
    s_out, r_out = s_out[order], r_out[order]
    slack = 1e-9 * max(s_out[-1], s_in.max(), 1e-300)
    if s_in.min() > s_out[-1] + slack or s_in.max() < s_out[0] - slack:
        raise DomainMismatch(
            f"no overlap: inner sigma in [{s_in.min():.6g}, {s_in.max():.6g}], "
            f"outer in [{s_out[0]:.6g}, {s_out[-1]:.6g}]"
        )
    outside = (s_in < s_out[0] - slack) | (s_in > s_out[-1] + slack)
    reach = np.interp(s_in, s_out, r_out)
    short = ~outside & (reach < r_in * (1.0 - tol))
    uncovered = outside | short
    witness = float(s_in[np.argmax(uncovered)]) if uncovered.any() else None
    gap = short & (r_in > 0)
    worst = float(np.max((r_in - reach)[gap] / r_in[gap], initial=0.0))
    if outside.any():
        worst = math.inf
    return Containment(
        contained=witness is None,
        witness_sigma=witness,
        max_violation=worst,
        checked=len(s_in),
    )
