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
    MIN_BAND_FRACTION,
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
from .search import REFINE_LEVELS, REFINE_ZOOM, refine_search
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
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    n0 = scenario.noise_psd
    params = scenario.logistic
    if sigma_target == 0.0:
        rate = shannon_rate(w, p_max, real.gain_b, n0)
        alloc = Allocation.orthogonal(0.0, w, 0.0, p_max)
        return BoundaryPoint(0.0, rate, 0.0, alloc)
    floor = scenario.min_similarity
    w_low, w_up = lemma1_bounds(scenario, sigma_target, floor)

    def score(ws: np.ndarray) -> np.ndarray:
        p_req = sem_power(scenario, real, sigma_target, floor, ws)
        w_bit = w - ws
        p_bit = np.where(p_req <= p_max, p_max - p_req, 0.0)
        return pipe_rate(w_bit, p_bit, orth_inv_slope(w_bit, real.gain_b, n0))

    ws, rate = refine_search(score, w_low, w_up, grid_n, maximize=True, tie_high=False)
    p_req = float(sem_power(scenario, real, sigma_target, floor, ws))
    if p_req > p_max:
        return BoundaryPoint(sigma_target, 0.0, 0.0, None)
    eps = eval_similarity(params, snr_db(p_req, real.gain_s, ws, n0))
    alloc = Allocation.orthogonal(ws, w - ws, p_req, p_max - p_req)
    return BoundaryPoint(sigma_target, rate, eps, alloc)


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
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    n0 = scenario.noise_psd
    p_s = float(sem_power(scenario, real, sigma_target, scenario.min_similarity, w))
    if not p_s <= p_max:  # also an unreachable similarity, which costs +inf
        return BoundaryPoint(sigma_target, 0.0, 0.0, None)
    p_b = p_max - p_s
    rate = float(pipe_rate(w, p_b, overlay_inv_slope(w, p_s, real.gain_eff, n0)))
    eps = eval_similarity(scenario.logistic, snr_db(p_s, real.gain_s, w, n0))
    return BoundaryPoint(sigma_target, rate, eps, Allocation.overlay(w, p_s, p_b))


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
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    n0 = scenario.noise_psd
    params = scenario.logistic
    if sigma_target == 0.0:
        rate = shannon_rate(w, p_max, real.gain_b, n0)
        return BoundaryPoint(0.0, rate, 0.0, Allocation.hybrid(0.0, w, 0.0, 0.0, p_max))
    w_low, _ = lemma1_bounds(scenario, sigma_target, scenario.min_similarity)
    w_low = max(w_low, w * MIN_BAND_FRACTION)
    oma_pt = solve_oma_point(scenario, real, sigma_target, grid_n)
    noma_pt = solve_noma_point(scenario, real, sigma_target)
    extra = [w]
    if oma_pt.alloc is not None and oma_pt.alloc.w_sem >= w_low:
        extra.append(oma_pt.alloc.w_sem)

    def score(wm: np.ndarray) -> np.ndarray:
        p_s = sem_power(scenario, real, sigma_target, scenario.min_similarity, wm)
        feasible = p_s <= p_max
        p_s_safe = np.where(feasible, p_s, 0.0)
        rate, _, _ = _hybrid_rate_grid(scenario, real, wm, p_s_safe)
        return np.where(feasible, rate, 0.0)

    wm, rate = refine_search(
        score, w_low, w, grid_n, maximize=True, tie_high=True, extra=extra
    )

    best = BoundaryPoint(sigma_target, 0.0, 0.0, None)
    p_s = float(sem_power(scenario, real, sigma_target, scenario.min_similarity, wm))
    if p_s <= p_max and rate > 0.0:
        r, p_bm, p_bo = _hybrid_rate_grid(scenario, real, np.array(wm), np.array(p_s))
        eps = eval_similarity(params, snr_db(p_s, real.gain_s, wm, n0))
        alloc = Allocation.hybrid(wm, w - wm, p_s, float(p_bm), float(p_bo))
        best = BoundaryPoint(sigma_target, float(r), eps, alloc)
    # Corner seeds win outright if the interior search could not beat them;
    # comparing realised numbers keeps the dominance exact, not approximate.
    if oma_pt.alloc is not None and oma_pt.bit_rate > best.bit_rate:
        a = oma_pt.alloc
        best = BoundaryPoint(
            sigma_target,
            oma_pt.bit_rate,
            oma_pt.similarity,
            Allocation.hybrid(a.w_sem, a.w_bit, a.p_sem, 0.0, a.p_bit_orth),
        )
    if noma_pt.alloc is not None and noma_pt.bit_rate > best.bit_rate:
        a = noma_pt.alloc
        best = BoundaryPoint(
            sigma_target,
            noma_pt.bit_rate,
            noma_pt.similarity,
            Allocation.hybrid(a.w_shared, 0.0, a.p_sem, a.p_bit_shared, 0.0),
        )
    return best


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
    region and irons out grid-resolution dents.  The overlay scheme has
    its own closed-form sweep.

    Raises:
        EmptyRegion: overlay sweep on a power-limited draw.
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.NOMA:
        if sigma_values is not None:
            points = [solve_noma_point(scenario, real, float(s)) for s in sigma_values]
            pairs = tuple(
                RatePair(float(p.sigma), p.bit_rate, p.similarity)
                for p in points
            )
            return RegionBoundary(scheme, pairs, {"n_points": len(pairs)}, False)
        return noma_boundary(scenario, real, n_points)
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    ext = oma_extremes(scenario, real)
    if sigma_values is None:
        sigma_values = np.linspace(0.0, ext.sigma_max, n_points)
    solver = solve_oma_point if scheme is Scheme.OMA else solve_semi_point
    solved = [solver(scenario, real, float(s), grid_n) for s in sigma_values]
    rates = np.array([p.bit_rate for p in solved])
    # Lift to the right-tail max, carrying the achieving point's similarity.
    best_idx = len(solved) - 1
    lifted = []
    for i in range(len(solved) - 1, -1, -1):
        if rates[i] >= rates[best_idx]:
            best_idx = i
        src = solved[best_idx]
        lifted.append(RatePair(float(sigma_values[i]), src.bit_rate, src.similarity))
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
    witness = None
    worst = 0.0
    for s, r in zip(s_in, r_in):
        if s < s_out[0] - slack or s > s_out[-1] + slack:
            if witness is None:
                witness = float(s)
            worst = math.inf
            continue
        reach = float(np.interp(s, s_out, r_out))
        if reach < r * (1.0 - tol):
            if witness is None:
                witness = float(s)
            if r > 0:
                worst = max(worst, (r - reach) / r)
    return Containment(
        contained=witness is None,
        witness_sigma=witness,
        max_violation=worst,
        checked=len(s_in),
    )
