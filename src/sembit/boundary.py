"""Achievable-region boundaries for the three downlink schemes.

Every boundary is traced over the normalised semantic rate axis sigma
(suts/s per symbol-content unit): for each sigma target the searches
below find the largest bit rate the power budget supports.  The
orthogonal scheme optimises one bandwidth split, the overlay has a closed
form, and the hybrid optimises a shared-band width with the residual
power water-filled between its two bit pipes.

Candidate pools for the hybrid search are seeded with the orthogonal and
overlay solutions (both are hybrid corner cases), so the hybrid boundary
dominates the other two at finite grid resolution by construction, not
merely up to search luck.

A sweep solves its semantic-rate targets in row batches, one search per
batch; each point equals what the one-target solver returns for it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, Scenario
from .errors import DomainMismatch, EmptyRegion, TargetUnreachable
from .rates import (
    Allocation,
    RatePair,
    Scheme,
    lemma1_bounds,
    orth_inv_slope,
    overlay_inv_slope,
    pipe_rate,
    sem_power,
    shannon_rate,
    snr_db,
    water_fill_max_grid,
)
from .search import REFINE_LEVELS, REFINE_ZOOM, refine_search, row_batches
from .similarity import eval_similarity, required_power_for_similarity


@dataclass(frozen=True)
class Extremes:
    """Axis intercepts of the orthogonal/hybrid region.

    sigma_max: largest feasible semantic rate (bit stream silenced).
    r_max: largest feasible bit rate (semantic stream silenced).
    power_limited: True when the similarity floor, not bandwidth, caps
        sigma_max (the budget cannot lift the full band to the floor).
    """

    sigma_max: float
    r_max: float
    power_limited: bool


@dataclass(frozen=True)
class BoundaryPoint:
    """One solved boundary point with its optimising allocation."""

    sigma: float
    bit_rate: float
    similarity: float
    alloc: Allocation | None


@dataclass(frozen=True)
class RegionBoundary:
    """A swept boundary: rate pairs ordered by increasing semantic rate."""

    scheme: Scheme
    points: tuple[RatePair, ...]
    grid_spec: dict
    power_limited: bool = False

    @property
    def sigma(self) -> np.ndarray:
        return np.array([p.sem_rate for p in self.points])

    @property
    def bit_rate(self) -> np.ndarray:
        return np.array([p.bit_rate for p in self.points])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sigma", "bit_rate", "similarity"])
            for p in self.points:
                # float() strips any numpy scalar so repr stays plain digits.
                writer.writerow(
                    [repr(float(p.sem_rate)), repr(float(p.bit_rate)), repr(float(p.similarity))]
                )


@dataclass(frozen=True)
class Containment:
    """Verdict of a pointwise boundary-dominance check."""

    contained: bool
    witness_sigma: float | None
    max_violation: float
    checked: int


def oma_extremes(scenario: Scenario, real: ChannelRealization) -> Extremes:
    """Endpoints of the orthogonal region for one channel draw.

    The bit-rate intercept always gets the full band and budget.  The
    semantic intercept is bandwidth-limited when the budget can push the
    full band to the similarity floor, else power-limited: the band
    shrinks until the floor is met exactly and the spare spectrum idles.
    """
    w = scenario.total_bandwidth
    p = scenario.max_power
    n0 = scenario.noise_psd
    params = scenario.logistic
    r_max = shannon_rate(w, p, real.gain_b, n0)
    eps_full = eval_similarity(params, snr_db(p, real.gain_s, w, n0))
    if scenario.min_similarity <= eps_full:
        return Extremes(sigma_max=w * eps_full / scenario.k, r_max=r_max, power_limited=False)
    try:
        p_unit = required_power_for_similarity(
            params, scenario.min_similarity, 1.0, real.gain_s, n0
        )
    except TargetUnreachable:
        # Floor above the curve's ceiling: no semantic point exists at all.
        return Extremes(sigma_max=0.0, r_max=r_max, power_limited=True)
    w_reach = p / p_unit  # widest band the budget lifts to the floor
    return Extremes(
        sigma_max=w_reach * scenario.min_similarity / scenario.k,
        r_max=r_max,
        power_limited=True,
    )


def solve_oma_point(
    scenario: Scenario,
    real: ChannelRealization,
    sigma_target: float,
    grid_n: int = 512,
) -> BoundaryPoint:
    """Orthogonal boundary point: max bit rate at one semantic-rate target.

    Searches the semantic bandwidth over the interval from
    :func:`lemma1_bounds`; each candidate pays the exact power that meets
    the semantic target and hands the rest to the bit band.  Candidates
    whose power need exceeds the budget score zero.  Ties break toward the
    smaller semantic band.
    """
    return _oma_points(scenario, real, np.array([sigma_target], dtype=float), grid_n)[0]


def _oma_points(
    scenario: Scenario, real: ChannelRealization, sigma: np.ndarray, grid_n: int
) -> list[BoundaryPoint]:
    """:func:`solve_oma_point` at each target of ``sigma``, one search for all."""
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    r_max = shannon_rate(w, p_max, real.gain_b, scenario.noise_psd)
    zero = BoundaryPoint(0.0, r_max, 0.0, Allocation.orthogonal(0.0, w, 0.0, p_max))
    s = sigma[sigma != 0.0]
    ws, p_req, rate = _oma_search(scenario, real, s, grid_n)
    ok = p_req <= p_max
    eps = _similarities(scenario, real, ws, p_req, ok)
    solved = (
        BoundaryPoint(x_s, r, e, Allocation.orthogonal(x, w - x, p, p_max - p))
        if keep
        else BoundaryPoint(x_s, 0.0, 0.0, None)
        for x_s, x, r, p, e, keep in zip(
            s.tolist(), ws.tolist(), rate.tolist(), p_req.tolist(), eps.tolist(), ok.tolist()
        )
    )
    return _with_zeros(sigma, zero, solved)


def _oma_search(
    scenario: Scenario, real: ChannelRealization, s: np.ndarray, grid_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(semantic band, its power, bit rate) of the oma optimum at each nonzero target.

    A target whose power exceeds the budget gets bit rate 0.
    """
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    n0 = scenario.noise_psd
    floor = scenario.min_similarity
    lo, hi = np.array([lemma1_bounds(scenario, x, floor) for x in s]).reshape(-1, 2).T
    s_col = s[:, None]

    def score(ws: np.ndarray) -> np.ndarray:
        p_req = sem_power(scenario, real, s_col, floor, ws)
        w_bit = w - ws
        p_bit = np.where(p_req <= p_max, p_max - p_req, 0.0)
        return pipe_rate(w_bit, p_bit, orth_inv_slope(w_bit, real.gain_b, n0))

    ws, rate = refine_search(score, lo, hi, grid_n, maximize=True, tie_high=False)
    return ws, sem_power(scenario, real, s, floor, ws), rate


def _similarities(
    scenario: Scenario,
    real: ChannelRealization,
    band: np.ndarray,
    p_sem: np.ndarray,
    ok: np.ndarray,
) -> np.ndarray:
    """Similarity of each semantic (band, power) pair where ``ok``, else 0, in one curve call."""
    n0 = scenario.noise_psd
    snr = [snr_db(p, real.gain_s, x, n0) for x, p in zip(band[ok].tolist(), p_sem[ok].tolist())]
    eps = np.zeros(len(band))
    eps[ok] = eval_similarity(scenario.logistic, np.array(snr, dtype=float))
    return eps


def _with_zeros(sigma: np.ndarray, zero: BoundaryPoint, solved) -> list[BoundaryPoint]:
    """Points in ``sigma`` order: ``zero`` at each zero target, ``solved`` at the rest."""
    solved = iter(solved)
    return [zero if x == 0.0 else next(solved) for x in sigma]


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


def solve_noma_point(
    scenario: Scenario,
    real: ChannelRealization,
    sigma_target: float,
) -> BoundaryPoint:
    """Overlay operating point at one semantic-rate target (closed form).

    The semantic power is pinned by whichever is harder: the rate target
    over the full band or the similarity floor.  All remaining budget
    goes to the superposed bit stream.  Returns a zero-rate point with no
    allocation when the target cannot be met within budget.
    """
    return _noma_points(scenario, real, np.array([sigma_target], dtype=float))[0]


def _noma_points(
    scenario: Scenario, real: ChannelRealization, sigma: np.ndarray
) -> list[BoundaryPoint]:
    """:func:`solve_noma_point` at each target of ``sigma``."""
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    p_s, rate = _noma_rates(scenario, real, sigma)
    ok = p_s <= p_max  # false also for an unreachable similarity, which costs +inf
    eps = _similarities(scenario, real, np.full(len(sigma), w), p_s, ok)
    return [
        BoundaryPoint(x, r, e, Allocation.overlay(w, p, p_max - p))
        if keep
        else BoundaryPoint(x, 0.0, 0.0, None)
        for x, p, r, e, keep in zip(
            sigma.tolist(), p_s.tolist(), rate.tolist(), eps.tolist(), ok.tolist()
        )
    ]


def _noma_rates(
    scenario: Scenario, real: ChannelRealization, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(semantic power, bit rate) of the overlay at each target of ``sigma``."""
    w = scenario.total_bandwidth
    p_s = sem_power(scenario, real, sigma, scenario.min_similarity, w)
    inv_h = overlay_inv_slope(w, p_s, real.gain_eff, scenario.noise_psd)
    return p_s, pipe_rate(w, scenario.max_power - p_s, inv_h)


def noma_boundary(
    scenario: Scenario,
    real: ChannelRealization,
    n_points: int = 200,
) -> RegionBoundary:
    """Full overlay boundary: sweep the semantic power from floor to budget.

    Raises:
        EmptyRegion: the similarity floor cannot be met within the budget
            on this draw (power-limited), or is unreachable outright.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    n0 = scenario.noise_psd
    params = scenario.logistic
    if scenario.min_similarity >= params.a_high:
        raise EmptyRegion(
            f"similarity floor {scenario.min_similarity} is unreachable "
            f"(curve ceiling {params.a_high})"
        )
    p_floor = noma_power_floor(scenario, real)
    if p_floor > p_max:
        raise EmptyRegion(
            f"power-limited draw: similarity floor needs {p_floor:.6g} W of "
            f"{p_max:.6g} W before the bit stream gets anything"
        )
    p_s = np.linspace(p_floor, p_max, n_points)
    with np.errstate(divide="ignore"):
        gamma_db = 10.0 * np.log10(p_s * real.gain_s / (w * n0))
    eps = eval_similarity(params, gamma_db)
    bit = pipe_rate(w, p_max - p_s, overlay_inv_slope(w, p_s, real.gain_eff, n0))
    points = tuple(
        RatePair(sem_rate=float(w * e / scenario.k), bit_rate=float(r), similarity=float(e))
        for e, r in zip(eps, bit)
    )
    return RegionBoundary(
        scheme=Scheme.NOMA,
        points=points,
        grid_spec={"n_points": n_points},
        power_limited=False,
    )


def _hybrid_rate_grid(
    scenario: Scenario,
    real: ChannelRealization,
    w_m: np.ndarray,
    p_s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Water-filled hybrid bit rate for candidate (shared band, sem power).

    Returns (rate, p_bm, p_bo); candidates whose semantic power already
    spends the budget get no bit power and rate 0.
    """
    n0 = scenario.noise_psd
    budget = np.maximum(scenario.max_power - p_s, 0.0)
    w_b = scenario.total_bandwidth - w_m
    inv_hm = overlay_inv_slope(w_m, p_s, real.gain_eff, n0)
    inv_hb = orth_inv_slope(w_b, real.gain_b, n0)
    p_bm, p_bo = water_fill_max_grid(w_m, inv_hm, w_b, inv_hb, budget)
    return pipe_rate(w_m, p_bm, inv_hm) + pipe_rate(w_b, p_bo, inv_hb), p_bm, p_bo


def solve_semi_point(
    scenario: Scenario,
    real: ChannelRealization,
    sigma_target: float,
    grid_n: int = 512,
) -> BoundaryPoint:
    """Hybrid boundary point: max bit rate at one semantic-rate target.

    One search coordinate: the shared-band width.  Each candidate pays the
    semantic power pinned by the harder of the rate target and the
    similarity floor, then water-fills the rest between the superposed and
    orthogonal bit pipes.  The orthogonal and overlay solutions join the
    candidate pool, so the result never falls below either.  Ties break
    toward the wider shared band.
    """
    return _semi_points(scenario, real, np.array([sigma_target], dtype=float), grid_n)[0]


def _semi_points(
    scenario: Scenario, real: ChannelRealization, sigma: np.ndarray, grid_n: int
) -> list[BoundaryPoint]:
    """:func:`solve_semi_point` at each target of ``sigma``, one search for all."""
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    floor = scenario.min_similarity
    r_max = shannon_rate(w, p_max, real.gain_b, scenario.noise_psd)
    zero = BoundaryPoint(0.0, r_max, 0.0, Allocation.hybrid(0.0, w, 0.0, 0.0, p_max))
    s = sigma[sigma != 0.0]
    lo = np.array([lemma1_bounds(scenario, x, floor)[0] for x in s])
    w_o, p_o, r_o = _oma_search(scenario, real, s, grid_n)
    p_v, r_v = _noma_rates(scenario, real, s)
    ok_o, ok_v = p_o <= p_max, p_v <= p_max
    # The oma band seeds a row's search when it fits; w pads the other rows.
    seed = np.where(ok_o & (w_o >= lo), w_o, w)
    s_col = s[:, None]

    def score(wm: np.ndarray) -> np.ndarray:
        p_s = sem_power(scenario, real, s_col, floor, wm)
        feasible = p_s <= p_max
        rate, _, _ = _hybrid_rate_grid(scenario, real, wm, np.where(feasible, p_s, 0.0))
        return np.where(feasible, rate, 0.0)

    extra = np.column_stack([np.full(len(s), w), seed])
    wm, rate = refine_search(score, lo, w, grid_n, maximize=True, tie_high=True, extra=extra)
    p_s = sem_power(scenario, real, s, floor, wm)
    interior = (p_s <= p_max) & (rate > 0.0)
    r, p_bm, p_bo = _hybrid_rate_grid(scenario, real, wm, np.where(interior, p_s, 0.0))
    # Corner seeds win outright if the interior search could not beat
    # them; comparing realised numbers keeps the dominance exact.  The oma
    # corner is a hybrid whose shared band carries no bit power, the noma
    # corner one with no bit-only band.
    best = np.where(interior, r, 0.0)
    use_o = ok_o & (r_o > best)
    best = np.where(use_o, r_o, best)
    use_v = ok_v & (r_v > best)
    best = np.where(use_v, r_v, best)
    won = use_v | use_o | interior
    band = np.select([use_v, use_o], [w, w_o], wm)
    p_sem = np.select([use_v, use_o], [p_v, p_o], p_s)
    p_bm = np.select([use_v, use_o], [p_max - p_v, 0.0], p_bm)
    p_bo = np.select([use_v, use_o], [0.0, p_max - p_o], p_bo)
    eps = _similarities(scenario, real, band, p_sem, won)
    splits = np.column_stack([band, p_sem, p_bm, p_bo]).tolist()
    solved = (
        BoundaryPoint(x_s, r, e, Allocation.hybrid(x, w - x, p, pm, po))
        if keep
        else BoundaryPoint(x_s, 0.0, 0.0, None)
        for x_s, r, e, (x, p, pm, po), keep in zip(
            s.tolist(), best.tolist(), eps.tolist(), splits, won.tolist()
        )
    )
    return _with_zeros(sigma, zero, solved)


def sweep_boundary(
    scenario: Scenario,
    real: ChannelRealization,
    scheme: Scheme,
    n_points: int = 200,
    grid_n: int = 512,
    sigma_values: Sequence[float] | None = None,
) -> RegionBoundary:
    """Trace one scheme's boundary over a semantic-rate grid.

    For the orthogonal and hybrid schemes the grid spans [0, sigma_max]
    evenly (or ``sigma_values`` when given) and the swept rates are lifted
    to their running right-max: anything achievable at a higher semantic
    rate is achievable at a lower one, so the lift stays inside the
    region and irons out grid-resolution dents.  The points are solved
    in row batches, one search per batch.  The overlay scheme has its own
    closed-form sweep.

    Raises:
        EmptyRegion: overlay sweep on a power-limited draw.
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.NOMA:
        if sigma_values is not None:
            points = _noma_points(scenario, real, np.asarray(sigma_values, dtype=float))
            pairs = tuple(RatePair(p.sigma, p.bit_rate, p.similarity) for p in points)
            return RegionBoundary(scheme, pairs, {"n_points": len(pairs)}, False)
        return noma_boundary(scenario, real, n_points)
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    ext = oma_extremes(scenario, real)
    if sigma_values is None:
        sigma_values = np.linspace(0.0, ext.sigma_max, n_points)
    sigma = np.asarray(sigma_values, dtype=float)
    solver = _oma_points if scheme is Scheme.OMA else _semi_points
    solved = [
        p
        for rows in row_batches(len(sigma), grid_n)
        for p in solver(scenario, real, sigma[rows], grid_n)
    ]
    rates = np.array([p.bit_rate for p in solved])
    # Lift to the right-tail max, carrying the achieving point's similarity.
    best_idx = len(solved) - 1
    lifted = []
    for i in range(len(solved) - 1, -1, -1):
        if rates[i] >= rates[best_idx]:
            best_idx = i
        src = solved[best_idx]
        lifted.append(RatePair(float(sigma[i]), src.bit_rate, src.similarity))
    lifted.reverse()
    return RegionBoundary(
        scheme=scheme,
        points=tuple(lifted),
        grid_spec={
            "n_points": int(n_points),
            "grid_n": int(grid_n),
            "refine_levels": REFINE_LEVELS,
            "refine_zoom": REFINE_ZOOM,
        },
        power_limited=ext.power_limited,
    )


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
    if not inner.points or not outer.points:
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
