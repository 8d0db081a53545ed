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
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, Scenario
from .errors import Infeasible, require_finite
from .rates import (
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
_EPS_BANDS = 64  # similarity-seeded band candidates per search


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


def _eps_seeded_bands(scenario: Scenario, targets: PowerTargets) -> np.ndarray:
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
    eps = np.linspace(max(eps_lo, span * _EPS_EDGE + params.a_low), eps_hi, _EPS_BANDS)
    return targets.sigma_target * scenario.k / eps


def _gain_columns(reals: Sequence[ChannelRealization]) -> SimpleNamespace:
    """The draws' link gains as (draws, 1) columns, in place of one realization."""
    g_s, g_b = (np.array([[getattr(r, g)] for r in reals]) for g in ("gain_s", "gain_b"))
    return SimpleNamespace(gain_s=g_s, gain_b=g_b, gain_eff=np.minimum(g_s, g_b))


def _solved(result: PowerSolution | Infeasible) -> PowerSolution:
    if isinstance(result, Infeasible):
        raise result
    return result


def _attempt_rows(rows: int, solve_rows, *args) -> list[PowerSolution | Infeasible]:
    """``solve_rows(*args)``, or the structural Infeasible it raised, once per row."""
    try:
        return solve_rows(*args)
    except Infeasible as exc:
        return [exc] * rows


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
    return _solved(_oma_rows(scenario, _gain_columns([real]), targets, grid_n)[0])


def _oma_rows(
    scenario: Scenario, gains: SimpleNamespace, targets: PowerTargets, grid_n: int
) -> list[PowerSolution | Infeasible]:
    """:func:`solve_oma_min_power` for each draw of ``gains``, one search for all."""
    _check_feasible(scenario, targets, Scheme.OMA)
    w = scenario.total_bandwidth
    sigma, floor = targets.sigma_target, targets.min_similarity
    rows = len(gains.gain_s)

    def bit_power(ws):
        w_bit = w - ws
        inv_h = orth_inv_slope(w_bit, gains.gain_b, scenario.noise_psd)
        return pipe_power(w_bit, targets.bit_target, inv_h)

    def total(ws):
        return sem_power(scenario, gains, sigma, floor, ws) + bit_power(ws)

    if sigma == 0.0:
        ws = p_sem = np.zeros((rows, 1))
    else:
        w_low, w_up = lemma1_bounds(scenario, sigma, floor)
        extra = _eps_seeded_bands(scenario, targets)
        ws = refine_search(
            total, np.full(rows, w_low), w_up, grid_n, maximize=False, extra=extra
        )[0][:, None]
        p_sem = sem_power(scenario, gains, sigma, floor, ws)
    p_bit = bit_power(ws)
    a_high = scenario.logistic.a_high
    return [
        PowerSolution(p_s + p_b, Allocation.orthogonal(x, w - x, p_s, p_b))
        if math.isfinite(p_s + p_b)
        else Infeasible(
            f"bit rate {targets.bit_target:.6g} needs infinite power: a semantic band "
            f"below the curve ceiling {a_high} leaves a bit band of at most "
            f"{w - sigma * scenario.k / a_high:.6g} Hz",
            cause="bandwidth-bound",
        )
        for x, p_s, p_b in zip(ws.ravel().tolist(), p_sem.ravel().tolist(), p_bit.ravel().tolist())
    ]


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
    return _solved(_noma_rows(scenario, _gain_columns([real]), targets)[0])


def _noma_rows(
    scenario: Scenario, gains: SimpleNamespace, targets: PowerTargets
) -> list[PowerSolution]:
    """:func:`solve_noma_min_power` for each draw of ``gains``."""
    _check_feasible(scenario, targets, Scheme.NOMA)
    w = scenario.total_bandwidth
    p_s = sem_power(scenario, gains, targets.sigma_target, targets.min_similarity, w)
    inv_h = overlay_inv_slope(w, p_s, gains.gain_eff, scenario.noise_psd)
    p_b = pipe_power(w, targets.bit_target, inv_h)
    return [
        PowerSolution(s + b, Allocation.overlay(w, s, b))
        for s, b in zip(p_s.ravel().tolist(), p_b.ravel().tolist())
    ]


def _hybrid_power(scenario, gains, targets, wm):
    """(p_sem, p_bit_shared, p_bit_orth) for shared-band candidates ``wm``.

    The semantic power is pinned by the harder of the rate target and the
    floor; inverse water-filling then splits the bit target between the
    superposed and orthogonal pipes.  Candidates needing a similarity at
    or above the curve ceiling cost +inf.
    """
    w = scenario.total_bandwidth
    n0 = scenario.noise_psd
    p_s = sem_power(scenario, gains, targets.sigma_target, targets.min_similarity, wm)
    ok = np.isfinite(p_s)
    w_b = w - wm
    p_m, p_o = water_fill_min_grid(
        wm,
        overlay_inv_slope(wm, np.where(ok, p_s, 0.0), gains.gain_eff, n0),
        w_b,
        orth_inv_slope(w_b, gains.gain_b, n0),
        targets.bit_target,
    )
    return p_s, np.where(ok, p_m, np.inf), np.where(ok, p_o, 0.0)


def _fold_semi_rows(
    scenario: Scenario,
    gains: SimpleNamespace,
    targets: PowerTargets,
    grid_n: int,
    oma: list[PowerSolution | Infeasible],
    noma: list[PowerSolution | Infeasible],
) -> list[PowerSolution | Infeasible]:
    """Hybrid minimum per draw from its interior search and the two corners.

    The interior searches the shared-band width over [sigma*k, W]; the
    orthogonal and overlay solutions, when feasible, then compete on their
    exact totals, so the hybrid never exceeds either.  Ties break toward
    the narrower shared band and then toward the interior.
    """
    _check_feasible(scenario, targets, Scheme.SEMI)
    w = scenario.total_bandwidth
    rows = len(gains.gain_s)
    interior = [None] * rows
    if targets.sigma_target > 0:
        w_low = lemma1_bounds(scenario, targets.sigma_target, targets.min_similarity)[0]

        def total(wm: np.ndarray) -> np.ndarray:
            p_s, p_m, p_o = _hybrid_power(scenario, gains, targets, wm)
            return p_s + (p_m + p_o)

        extra = np.append(_eps_seeded_bands(scenario, targets), w)
        wm, best_total = refine_search(
            total, np.full(rows, w_low), w, grid_n, maximize=False, extra=extra
        )
        powers = _hybrid_power(scenario, gains, targets, wm[:, None])
        interior = [
            PowerSolution(t, Allocation.hybrid(x, w - x, p_s, p_m, p_o))
            if math.isfinite(t)
            else None
            for x, t, p_s, p_m, p_o in zip(
                wm.tolist(), best_total.tolist(), *(p.ravel().tolist() for p in powers)
            )
        ]
    out = []
    for best, o, v in zip(interior, oma, noma):
        if isinstance(o, PowerSolution) and (best is None or o.total < best.total):
            a = o.alloc
            alloc = Allocation.hybrid(a.w_sem, a.w_bit, a.p_sem, 0.0, a.p_bit_orth)
            best = PowerSolution(o.total, alloc)
        if isinstance(v, PowerSolution) and (best is None or v.total < best.total):
            a = v.alloc
            alloc = Allocation.hybrid(a.w_shared, 0.0, a.p_sem, a.p_bit_shared, 0.0)
            best = PowerSolution(v.total, alloc)
        # Semi's structural checks are oma's, so only oma's own bit-band
        # bound can leave it without any candidate.
        out.append(o if best is None else best)
    return out


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
    return _solved(solve_min_powers(scenario, real, targets, grid_n)[Scheme.SEMI])


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
    return solve_min_powers_rows(scenario, [real], targets, grid_n)[0]


def solve_min_powers_rows(
    scenario: Scenario,
    reals: Sequence[ChannelRealization],
    targets: PowerTargets,
    grid_n: int,
) -> list[dict[Scheme, PowerSolution | Infeasible]]:
    """:func:`solve_min_powers` for each draw of ``reals``, one search per scheme."""
    gains = _gain_columns(reals)
    rows = len(reals)
    oma = _attempt_rows(rows, _oma_rows, scenario, gains, targets, grid_n)
    noma = _attempt_rows(rows, _noma_rows, scenario, gains, targets)
    semi = _attempt_rows(rows, _fold_semi_rows, scenario, gains, targets, grid_n, oma, noma)
    return [
        {Scheme.OMA: o, Scheme.NOMA: v, Scheme.SEMI: s} for o, v, s in zip(oma, noma, semi)
    ]
