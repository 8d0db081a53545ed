"""Minimum transmit power to hit a (semantic rate, similarity, bit rate) triple.

The dual problem to the region boundaries: instead of spending a fixed
budget, find the cheapest allocation meeting all three targets at once.
No budget cap applies here; the answer may exceed any particular
scenario's max_power and it is the caller's business to compare.

Same structural trick as the boundary module: the hybrid solver folds the
orthogonal and overlay solutions into its candidate set, so its reported
minimum never exceeds either (they are hybrid corner cases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, Scenario
from .errors import Infeasible, require_finite
from .rates import (
    MIN_BAND_FRACTION,
    Allocation,
    Scheme,
    lemma1_bounds,
    orth_inv_slope,
    overlay_inv_slope,
    pipe_power,
    sem_power,
    water_fill_min_grid,
)
from .search import refine_search

_EPS_EDGE = 1e-9  # keep similarity candidates off the open asymptote


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


def _check_feasible(scenario: Scenario, targets: PowerTargets, scheme: Scheme) -> None:
    """Structural feasibility: independent of the channel draw.

    The three causes, checked hardest-first:
      bandwidth-bound      the semantic rate needs more than the carrier
                           even at similarity 1;
      rate-asymptote       the full band cannot reach the similarity the
                           rate target implies (curve ceiling);
      similarity-asymptote the floor itself sits at or above the ceiling.
    A zero semantic-rate target drops the semantic stream for the split
    schemes, so their floor constraint is vacuous then; the overlay always
    carries the semantic stream and keeps its floor.
    """
    w = scenario.total_bandwidth
    params = scenario.logistic
    need_bw = targets.sigma_target * scenario.k
    if need_bw > w:
        raise Infeasible(
            f"semantic rate {targets.sigma_target:.6g} needs {need_bw:.6g} Hz "
            f"at similarity 1; carrier has {w:.6g} Hz",
            cause="bandwidth-bound",
        )
    if need_bw >= w * params.a_high:
        raise Infeasible(
            f"semantic rate {targets.sigma_target:.6g} needs similarity "
            f"{need_bw / w:.6g} on the full band; curve ceiling is {params.a_high}",
            cause="rate-asymptote",
        )
    floor_active = targets.sigma_target > 0 or scheme is Scheme.NOMA
    if floor_active and targets.min_similarity >= params.a_high:
        raise Infeasible(
            f"similarity floor {targets.min_similarity} is at or above the "
            f"curve ceiling {params.a_high}",
            cause="similarity-asymptote",
        )


def _eps_seeded_bands(scenario: Scenario, targets: PowerTargets, n: int = 64) -> np.ndarray:
    """Extra band candidates spaced evenly in required similarity.

    A uniform bandwidth grid can miss the narrow feasible sliver next to
    the curve ceiling when the floor sits close to it; gridding the
    similarity axis instead covers that sliver deterministically.
    """
    params = scenario.logistic
    span = params.a_high - params.a_low
    eps_lo = max(
        targets.min_similarity, targets.sigma_target * scenario.k / scenario.total_bandwidth
    )
    eps_hi = params.a_high - span * _EPS_EDGE
    if eps_lo >= eps_hi or targets.sigma_target <= 0:
        return np.empty(0)
    eps = np.linspace(max(eps_lo, span * _EPS_EDGE + params.a_low), eps_hi, n)
    return targets.sigma_target * scenario.k / eps


def _min_grid_search(objective, lo: float, hi: float, grid_n: int, extra: np.ndarray):
    return refine_search(
        objective, lo, hi, grid_n, maximize=False, tie_high=False, extra=tuple(extra)
    )


def solve_oma_min_power(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
    grid_n: int = 512,
) -> PowerSolution:
    """Cheapest orthogonal allocation meeting the target triple.

    Searches the semantic band width; each candidate pays exactly the
    semantic power for max(rate-implied similarity, floor) and exactly the
    bit power inverting the AWGN rate on the leftover band.  Ties break
    toward the smaller semantic band.

    Raises:
        Infeasible: structurally unreachable targets (see _check_feasible),
            or "bandwidth-bound" when every band that meets the semantic
            targets leaves too little bit band for a finite bit power.
    """
    _check_feasible(scenario, targets, Scheme.OMA)
    w = scenario.total_bandwidth
    sigma, floor = targets.sigma_target, targets.min_similarity

    def bit_power(ws):
        w_bit = w - ws
        inv_h = orth_inv_slope(w_bit, real.gain_b, scenario.noise_psd)
        return pipe_power(w_bit, targets.bit_target, inv_h)

    def total(ws):
        return sem_power(scenario, real, sigma, floor, ws) + bit_power(ws)

    if sigma == 0.0:
        ws, best = 0.0, float(bit_power(0.0))
    else:
        w_low, w_up = lemma1_bounds(scenario, sigma, floor)
        extra = _eps_seeded_bands(scenario, targets)
        ws, best = _min_grid_search(total, w_low, w_up, grid_n, extra)
    if not math.isfinite(best):
        a_high = scenario.logistic.a_high
        raise Infeasible(
            f"bit rate {targets.bit_target:.6g} needs infinite power: a semantic band "
            f"below the curve ceiling {a_high} leaves a bit band of at most "
            f"{w - sigma * scenario.k / a_high:.6g} Hz",
            cause="bandwidth-bound",
        )
    p_sem = float(sem_power(scenario, real, sigma, floor, ws)) if ws > 0 else 0.0
    p_bit = float(bit_power(ws))
    return PowerSolution(p_sem + p_bit, Allocation.orthogonal(ws, w - ws, p_sem, p_bit))


def solve_noma_min_power(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
) -> PowerSolution:
    """Cheapest full-band overlay meeting the target triple (closed form).

    The semantic power is pinned by the harder of the rate target and the
    floor; the bit power then inverts the superposed-pipe rate with that
    interference.  Exactly constant in the semantic-rate target while the
    floor is the binding constraint.

    Raises:
        Infeasible: structurally unreachable targets.
    """
    _check_feasible(scenario, targets, Scheme.NOMA)
    w = scenario.total_bandwidth
    p_s = float(sem_power(scenario, real, targets.sigma_target, targets.min_similarity, w))
    inv_h = overlay_inv_slope(w, p_s, real.gain_eff, scenario.noise_psd)
    p_b = float(pipe_power(w, targets.bit_target, inv_h))
    return PowerSolution(p_s + p_b, Allocation.overlay(w, p_s, p_b))


def _hybrid_power(scenario, real, targets, wm):
    """(p_sem, p_bit_shared, p_bit_orth) for shared-band candidates ``wm``.

    The semantic power is pinned by the harder of the rate target and the
    floor; inverse water-filling then splits the bit target between the
    superposed and orthogonal pipes.  Candidates needing a similarity at
    or above the curve ceiling cost +inf.
    """
    w = scenario.total_bandwidth
    n0 = scenario.noise_psd
    p_s = sem_power(scenario, real, targets.sigma_target, targets.min_similarity, wm)
    p_m = np.full_like(p_s, np.inf)
    p_o = np.zeros_like(p_s)
    ok = np.isfinite(p_s)
    w_m, w_b = wm[ok], w - wm[ok]
    p_m[ok], p_o[ok] = water_fill_min_grid(
        w_m,
        overlay_inv_slope(w_m, p_s[ok], real.gain_eff, n0),
        w_b,
        orth_inv_slope(w_b, real.gain_b, n0),
        targets.bit_target,
    )
    return p_s, p_m, p_o


def _fold_semi(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
    grid_n: int,
    oma: PowerSolution | Infeasible,
    noma: PowerSolution | Infeasible,
) -> PowerSolution:
    """Hybrid minimum from its interior search and the two corner solutions.

    The interior searches the shared-band width over [sigma*k, W]; the
    orthogonal and overlay solutions, when feasible, then compete on their
    exact totals, so the hybrid never exceeds either.  Ties break toward
    the narrower shared band and then toward the interior.
    """
    _check_feasible(scenario, targets, Scheme.SEMI)
    w = scenario.total_bandwidth
    best = None
    if targets.sigma_target > 0:
        w_low = lemma1_bounds(scenario, targets.sigma_target, targets.min_similarity)[0]

        def total(wm: np.ndarray) -> np.ndarray:
            p_s, p_m, p_o = _hybrid_power(scenario, real, targets, wm)
            return p_s + (p_m + p_o)

        extra = np.append(_eps_seeded_bands(scenario, targets), w)
        wm, best_total = _min_grid_search(
            total, max(w_low, w * MIN_BAND_FRACTION), w, grid_n, extra
        )
        if math.isfinite(best_total):
            powers = _hybrid_power(scenario, real, targets, np.array([wm]))
            p_s, p_m, p_o = (float(p[0]) for p in powers)
            best = PowerSolution(best_total, Allocation.hybrid(wm, w - wm, p_s, p_m, p_o))
    if isinstance(oma, PowerSolution) and (best is None or oma.total < best.total):
        a = oma.alloc
        alloc = Allocation.hybrid(a.w_sem, a.w_bit, a.p_sem, 0.0, a.p_bit_orth)
        best = PowerSolution(oma.total, alloc)
    if isinstance(noma, PowerSolution) and (best is None or noma.total < best.total):
        a = noma.alloc
        alloc = Allocation.hybrid(a.w_shared, 0.0, a.p_sem, a.p_bit_shared, 0.0)
        best = PowerSolution(noma.total, alloc)
    if best is None:
        # Semi's structural checks are oma's, so only oma's own bit-band
        # bound can leave it without any candidate.
        raise oma
    return best


def _attempt(solve, *args) -> PowerSolution | Infeasible:
    try:
        return solve(*args)
    except Infeasible as exc:
        return exc


def solve_semi_min_power(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
    grid_n: int = 512,
) -> PowerSolution:
    """Cheapest hybrid allocation meeting the target triple.

    Searches the shared-band width over [sigma*k, W]; each candidate pays
    the pinned semantic power, then splits the bit target between the
    superposed and orthogonal pipes by inverse water-filling.  The
    feasible ones of the orthogonal and overlay optima join the comparison
    at the end, so the hybrid result never exceeds either.  Ties break
    toward the narrower shared band.

    Raises:
        Infeasible: structurally unreachable targets.
    """
    oma = _attempt(solve_oma_min_power, scenario, real, targets, grid_n)
    noma = _attempt(solve_noma_min_power, scenario, real, targets)
    return _fold_semi(scenario, real, targets, grid_n, oma, noma)


def solve_min_powers(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
    grid_n: int,
) -> dict[Scheme, PowerSolution | Infeasible]:
    """All three schemes' minima for one draw, each solved once.

    Maps each scheme, in oma, noma, semi order, to its solution or to the
    :class:`Infeasible` its solver raised.  The semi fold reuses the oma
    and noma results instead of solving them again.
    """
    oma = _attempt(solve_oma_min_power, scenario, real, targets, grid_n)
    noma = _attempt(solve_noma_min_power, scenario, real, targets)
    semi = _attempt(_fold_semi, scenario, real, targets, grid_n, oma, noma)
    return {Scheme.OMA: oma, Scheme.NOMA: noma, Scheme.SEMI: semi}
