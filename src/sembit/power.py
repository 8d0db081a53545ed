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
columns.  The one-row solvers below are one-row sets whose object is
built from row 0.

Infeasibility is one code per row, an index into :data:`CAUSES`: the
structural checks give it once per distinct target triple, and oma's
search adds its bit-band code.  The :class:`Infeasible` a one-row solve
raises is built from that code and the row's targets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .search import DEFAULT_GRID_N, search_rows

TARGET_FIELDS = ("sigma_target", "min_similarity", "bit_target")
# The columns of a row set's data matrix, in order.
ROW_COLUMNS = ("gain_s", "gain_b", "gain_eff", *TARGET_FIELDS)
# Infeasible.cause values by PowerRows.cause code; code 0 is a feasible row.
# Codes 1-3 are structural (see _structural); code _BIT_BAND is a split
# scheme whose every semantic band leaves too little bit band.
CAUSES = ("", "bandwidth-bound", "rate-asymptote", "similarity-asymptote", "bandwidth-bound")
_BIT_BAND = 4
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
    row).  The one-row solvers build their objects from row 0.
    """

    total: np.ndarray
    w_shared: np.ndarray
    w_sem: np.ndarray
    w_bit: np.ndarray
    p_sem: np.ndarray
    p_bit_shared: np.ndarray
    p_bit_orth: np.ndarray
    cause: np.ndarray


def _structural(scenario: Scenario, targets: PowerTargets, scheme: Scheme) -> int:
    """The :data:`CAUSES` code of a structural infeasibility, independent of the draw; 0 if none.

    The three causes, checked hardest-first:
      1 bandwidth-bound      the semantic rate needs more than the carrier
                             even at similarity 1;
      2 rate-asymptote       the full band cannot reach the similarity the
                             rate target implies (curve ceiling);
      3 similarity-asymptote the floor itself sits at or above the ceiling.
    A zero semantic-rate target drops the semantic stream for the split
    schemes, so their floor constraint is vacuous then; the overlay always
    carries the semantic stream and keeps its floor.
    """
    w = scenario.total_bandwidth
    a_high = scenario.logistic.a_high
    need_bw = targets.sigma_target * scenario.k
    if need_bw > w:
        return 1
    if need_bw >= w * a_high:
        return 2
    floor_active = targets.sigma_target > 0 or scheme is Scheme.NOMA
    return 3 if floor_active and targets.min_similarity >= a_high else 0


def _row_set(
    scenario: Scenario, reals: Sequence[ChannelRealization], targets: Sequence[PowerTargets]
) -> tuple:
    """Rows of (draw, target triple): (data, oma_cause, noma_cause, live, w_low, w_up, bands).

    ``data`` is one (rows, 6) matrix whose columns follow
    :data:`ROW_COLUMNS`.  The structural checks are worked out once per
    distinct triple: per row come the ``oma_cause`` and ``noma_cause``
    codes (semi's checks are oma's).  ``live`` holds the indices of the
    rows that need a search, ``w_low`` and ``w_up`` their Lemma-1
    interval, and ``bands`` their similarity-seeded bands.
    """
    index: dict[PowerTargets, int] = {}
    tri = [index.setdefault(t, len(index)) for t in targets]
    triples = list(index)
    values = [[getattr(t, f) for f in TARGET_FIELDS] for t in triples]
    data = [(r.gain_s, r.gain_b, min(r.gain_s, r.gain_b), *values[i]) for r, i in zip(reals, tri)]
    data = np.array(data)
    codes = [[_structural(scenario, t, s) for s in (Scheme.OMA, Scheme.NOMA)] for t in triples]
    oma_cause, noma_cause = np.array([codes[i] for i in tri]).T
    searched = [c[0] == 0 and t.sigma_target > 0 for c, t in zip(codes, triples)]
    live = np.flatnonzero([searched[i] for i in tri])
    sigma, floor = data[live, 3], data[live, 4]
    interval = lemma1_bounds(scenario, sigma, floor)
    bands = eps_seeded_bands(scenario, sigma, floor)
    return data, oma_cause, noma_cause, live, *interval, bands


def _columns(cause: np.ndarray, fields: np.ndarray) -> PowerRows:
    """PowerRows from ``fields``, one line per field in order, blanked to NaN on infeasible rows."""
    fields[:, cause != 0] = np.nan
    return PowerRows(*fields, cause=cause)


def _fields(rows: PowerRows) -> np.ndarray:
    """The (7, rows) matrix :func:`_columns` builds ``rows`` from."""
    return np.array([rows.total, *(getattr(rows, f) for f in ALLOC_FIELDS)])


def _infeasible(scenario: Scenario, targets: PowerTargets, code: int) -> Infeasible:
    """The :class:`Infeasible` of a row with :data:`CAUSES` code ``code`` and targets ``targets``."""
    w = scenario.total_bandwidth
    a_high = scenario.logistic.a_high
    sigma = targets.sigma_target
    need_bw = sigma * scenario.k
    message = (
        None,
        f"semantic rate {sigma:.6g} needs {need_bw:.6g} Hz at similarity 1; carrier has {w:.6g} Hz",
        f"semantic rate {sigma:.6g} needs similarity {need_bw / w:.6g} on the full band; "
        f"curve ceiling is {a_high}",
        f"similarity floor {targets.min_similarity} is at or above the curve ceiling {a_high}",
        f"bit rate {targets.bit_target:.6g} needs infinite power: a semantic band "
        f"below the curve ceiling {a_high} leaves a bit band of at most "
        f"{w - need_bw / a_high:.6g} Hz",
    )[code]
    return Infeasible(message, cause=CAUSES[code])


def _solution(
    scenario: Scenario, targets: PowerTargets, scheme: Scheme, rows: PowerRows, i: int
) -> PowerSolution | Infeasible:
    """Row ``i`` of ``rows`` as the object a one-row solve of ``targets`` returns."""
    if rows.cause[i]:
        return _infeasible(scenario, targets, rows.cause.item(i))
    alloc = {f: getattr(rows, f).item(i) for f in ALLOC_FIELDS}
    return PowerSolution(rows.total.item(i), Allocation(scheme, **alloc))


def _row_solutions(
    scenario: Scenario, targets: PowerTargets, solved: dict[Scheme, PowerRows], i: int
) -> dict[Scheme, PowerSolution | Infeasible]:
    """Row ``i`` of every scheme in ``solved``, as :func:`solve_min_powers` returns it."""
    return {s: _solution(scenario, targets, s, rows, i) for s, rows in solved.items()}


def _solved(result: PowerSolution | Infeasible) -> PowerSolution:
    if isinstance(result, Infeasible):
        raise result
    return result


def solve_oma_min_power(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
    grid_n: int = DEFAULT_GRID_N,
) -> PowerSolution:
    """Cheapest orthogonal allocation meeting the target triple.

    Searches the semantic band width; each candidate pays exactly the
    semantic power for max(rate-implied similarity, floor) and exactly the
    bit power inverting the AWGN rate on the leftover band.  Ties break
    toward the smaller semantic band.

    Raises:
        Infeasible: structurally unreachable targets (see _structural),
            or "bandwidth-bound" when every band that meets the semantic
            targets leaves too little bit band for a finite bit power.
    """
    rows = _oma_rows(scenario, _row_set(scenario, [real], [targets]), grid_n)
    return _solved(_solution(scenario, targets, Scheme.OMA, rows, 0))


def _oma_rows(scenario: Scenario, rs: tuple, grid_n: int) -> PowerRows:
    """:func:`solve_oma_min_power` for each row of the :func:`_row_set` ``rs``."""
    w = scenario.total_bandwidth
    data, oma_cause, _, live, w_low, w_up, bands = rs

    def semantic_power(g, ws):
        gain_s, _, _, sigma, floor, _ = g.T[:, :, None]
        return sem_power(scenario, gain_s, sigma, floor, ws)

    def bit_power(g, ws):
        _, gain_b, _, _, _, bit_target = g.T[:, :, None]
        w_bit = w - ws
        return pipe_power(w_bit, bit_target, orth_inv_slope(w_bit, gain_b, scenario.noise_psd))

    def total(g, ws):
        return semantic_power(g, ws) + bit_power(g, ws)

    # Rows without a search carry no semantic stream (or are infeasible):
    # no band, no power.
    ws, p_sem = np.zeros((2, len(data)))
    g = data[live]
    ws[live] = search_rows(
        total, g, w_low, w_up, bands, grid_n, maximize=False, zoom=SEARCH_ZOOM
    )[0]
    p_sem[live] = semantic_power(g, ws[live, None])[:, 0]
    p_bit = bit_power(data, ws[:, None])[:, 0]
    tot = p_sem + p_bit
    cause = np.where((oma_cause == 0) & ~np.isfinite(tot), _BIT_BAND, oma_cause)
    zero = np.zeros_like(ws)
    return _columns(cause, np.array([tot, zero, ws, w - ws, p_sem, zero, p_bit]))


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
    rows = _noma_rows(scenario, _row_set(scenario, [real], [targets]))
    return _solved(_solution(scenario, targets, Scheme.NOMA, rows, 0))


def _noma_rows(scenario: Scenario, rs: tuple) -> PowerRows:
    """:func:`solve_noma_min_power` for each row of ``rs``.

    Structurally infeasible rows are evaluated too (at +inf semantic power)
    and then blanked by their cause.
    """
    w = scenario.total_bandwidth
    data, _, cause = rs[:3]
    gain_s, _, gain_eff, sigma, floor, bit_target = data.T[:, :, None]
    p_s = sem_power(scenario, gain_s, sigma, floor, w)
    inv_h = overlay_inv_slope(w, p_s, gain_eff, scenario.noise_psd)
    p_b = pipe_power(w, bit_target, inv_h)[:, 0]
    p_s = p_s[:, 0]
    zero = np.zeros_like(p_s)
    return _columns(cause, np.array([p_s + p_b, zero + w, zero, zero, p_s, p_b, zero]))


def _hybrid_power(scenario: Scenario, g: np.ndarray, wm):
    """(p_sem, p_bit_shared, p_bit_orth) of the row set rows ``g`` for shared bands ``wm``.

    The semantic power is pinned by the harder of the rate target and the
    floor; inverse water-filling then splits the bit target between the
    superposed and orthogonal pipes.  Candidates needing a similarity at
    or above the curve ceiling cost +inf.
    """
    w = scenario.total_bandwidth
    n0 = scenario.noise_psd
    gain_s, gain_b, gain_eff, sigma, floor, bit_target = g.T[:, :, None]
    p_s = sem_power(scenario, gain_s, sigma, floor, wm)
    ok = np.isfinite(p_s)
    w_b = w - wm
    p_m, p_o = water_fill_min_grid(
        wm,
        overlay_inv_slope(wm, np.where(ok, p_s, 0.0), gain_eff, n0),
        w_b,
        orth_inv_slope(w_b, gain_b, n0),
        bit_target,
    )
    return p_s, np.where(ok, p_m, np.inf), np.where(ok, p_o, 0.0)


def _semi_rows(
    scenario: Scenario, rs: tuple, grid_n: int, oma: PowerRows, noma: PowerRows
) -> PowerRows:
    """Hybrid minimum per row from its interior search and the two corners.

    The interior searches the shared-band width over [sigma*k/a_high, W]; the
    orthogonal and overlay solutions, when feasible, then compete on their
    exact totals, so the hybrid never exceeds either.  Ties break toward
    the narrower shared band and then toward the interior.
    """
    w = scenario.total_bandwidth
    data, _, _, live, w_low, _, bands = rs

    def total(g, wm):
        p_s, p_m, p_o = _hybrid_power(scenario, g, wm)
        return p_s + (p_m + p_o)

    # One line per PowerRows field, in order; a row without a candidate costs +inf.
    best = np.zeros((1 + len(ALLOC_FIELDS), len(data)))
    best[0] = np.inf
    g = data[live]
    full = np.full(len(live), w)
    extra = np.column_stack([bands, full])
    wm, f = search_rows(total, g, w_low, full, extra, grid_n, maximize=False, zoom=SEARCH_ZOOM)
    p_s, p_m, p_o = (p[:, 0] for p in _hybrid_power(scenario, g, wm[:, None]))
    found = np.isfinite(f)
    best[:, live[found]] = np.array([f, wm, np.zeros_like(wm), w - wm, p_s, p_m, p_o])[:, found]
    fold_corners(best, _fields(oma), _fields(noma), np.less)
    # Semi's structural checks are oma's, so only oma's own bit-band
    # bound can leave a row without any candidate, and oma's cause is semi's.
    return _columns(np.where(np.isfinite(best[0]), 0, oma.cause), best)


def solve_semi_min_power(
    scenario: Scenario,
    real: ChannelRealization,
    targets: PowerTargets,
    grid_n: int = DEFAULT_GRID_N,
) -> PowerSolution:
    """Cheapest hybrid allocation meeting the target triple.

    Searches the shared-band width over [sigma*k/a_high, W], with
    similarity-seeded bands added to the grid; each candidate pays
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
    solved = solve_min_powers_rows(scenario, [real], [targets], grid_n)
    return _row_solutions(scenario, targets, solved, 0)


def solve_min_powers_rows(
    scenario: Scenario,
    reals: Sequence[ChannelRealization],
    targets: Sequence[PowerTargets],
    grid_n: int,
) -> dict[Scheme, PowerRows]:
    """Each scheme's minima over rows (draw ``reals[i]``, triple ``targets[i]``).

    Maps each scheme, in oma, noma, semi order, to its columns.  The rows
    that need a search (a positive rate target, structurally feasible)
    are solved by one :func:`sembit.search.search_rows` call for oma and
    one for semi, which cut them into row batches; every row gets exactly
    the result a one-row solve would.
    """
    rs = _row_set(scenario, reals, targets)
    oma = _oma_rows(scenario, rs, grid_n)
    noma = _noma_rows(scenario, rs)
    semi = _semi_rows(scenario, rs, grid_n, oma, noma)
    return {Scheme.OMA: oma, Scheme.NOMA: noma, Scheme.SEMI: semi}
