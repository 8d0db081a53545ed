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
and lets the hybrid reuse those rows.  Closed-form certificates leave
rows out of the searches where no search could change an output: an oma
row that no output reports is not searched where the overlay beats
:func:`_oma_rate_bound`.  Three certificates give a hybrid row its
optimum, the top of its Lemma 1 interval or an oma split, without a
search, each proved in its docstring: :func:`_noma_optimal` where no
shared band beats the full band W, so the fold gives the row the noma
corner; :func:`_kink_optimal` where none beats the kink sigma*k/floor,
below W, at which the similarity floor starts to bind, so the row takes
that band; and :func:`_over_budget` where the overlay alone overspends,
so the superposed pipe shuts on every band and the fold gives the row
its oma split.  :func:`_rises_to` is the slope bound the first two share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
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
from .similarity import LN10_OVER_10, power_for_similarity_grid, required_power_for_similarity

# Bracket zoom of the boundary searches: 17-point brackets over 6 levels.
# A region solves about 185 rows per coarse objective call, so a search
# costs about one unit per candidate, and narrow brackets score the fewest.
SEARCH_ZOOM = 8
# Relative margin by which the overlay must beat :func:`_oma_rate_bound`
# before a region skips an oma row, so that rounding cannot flip the test.
BOUND_RTOL = 1e-12
# Edges of the cells of required similarity over which :func:`_rises_to`
# bounds the hybrid objective's slope, as fractions of its range: 8 cells.
_CERT_STEPS = np.linspace(0.0, 1.0, 9)[:, None]


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
        """Write the columns as CSV, one float repr per field, in one call."""
        write_text(path, _csv_texts([self])[0], newline="")


def write_csvs(boundaries: Sequence[RegionBoundary], out_dir) -> None:
    """Write each boundary to ``<scheme>.csv`` in ``out_dir``, one call per file."""
    for boundary, text in zip(boundaries, _csv_texts(boundaries)):
        write_text(Path(out_dir) / f"{boundary.scheme.value}.csv", text, newline="")


def _csv_texts(boundaries: Sequence[RegionBoundary]) -> list[str]:
    """Each boundary's CSV text: a header, then sigma, bit rate and similarity per row.

    No field can need quoting, so the lines are those of ``csv.writer``.
    A region's boundaries share many floats (semi's sigma column is oma's
    and noma's together), so each distinct float of all of them is
    rendered once, keyed by its bits: -0.0 and 0.0 stay apart.
    """
    columns = [c for b in boundaries for c in (b.sigma, b.bit_rate, b.similarity)]
    bits, inverse = np.unique(np.concatenate(columns, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    # A plain float's repr is plain digits, where a numpy scalar's is not.
    reprs = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    fields = reprs[inverse]
    texts, start = [], 0
    for b in boundaries:
        n = len(b.sigma)
        sigma, bit_rate, similarity = fields[start:start + 3 * n].reshape(3, n).tolist()
        rows = "".join(f"{s},{r},{e}\r\n" for s, r, e in zip(sigma, bit_rate, similarity))
        texts.append("sigma,bit_rate,similarity\r\n" + rows)
        start += 3 * n
    return texts


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
    ext: Extremes,
    need: np.ndarray | None = None,
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
    corner of the draw's :func:`oma_extremes` ``ext``: band w_sem and the
    whole budget.  Rows outside the mask ``need`` (default: every row) are
    not searched and stay unsolved.
    """
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    floor = scenario.min_similarity
    need = np.ones(len(sigma), bool) if need is None else need
    live = sigma != 0.0
    run = live & need
    s = sigma[run]
    lo, hi = lemma1_bounds(scenario, s, floor)

    def score(s_col: np.ndarray, ws: np.ndarray) -> np.ndarray:
        p_req = sem_power(scenario, real.gain_s, s_col, floor, ws)
        return orth_max_rate(w, ws, p_req, p_max, real.gain_b, scenario.noise_psd)

    ws, p_sem = np.zeros((2, len(sigma)))
    ws[run] = search_rows(
        score, s[:, None], lo, hi, bands[need[live]], grid_n, maximize=True, zoom=SEARCH_ZOOM
    )[0]
    p_sem[run] = sem_power(scenario, real.gain_s, s, floor, ws[run])
    corner = run & (sigma == ext.sigma_max)
    ws[corner], p_sem[corner] = ext.w_sem, p_max
    zero = np.zeros_like(ws)
    fields = np.array([zero, ws, w - ws, p_sem, zero, p_max - p_sem])
    return _columns(scenario, real, fields, need & (p_sem <= p_max))


def _oma_rate_bound(scenario: Scenario, real: ChannelRealization, sigma: np.ndarray) -> np.ndarray:
    """An upper bound on the bit rate of every orthogonal split at each target of ``sigma``.

    The bit rate of the corner that puts the whole budget on the widest
    bit band Lemma 1 leaves, W - w_low: infeasible, as it spends nothing
    on the semantic stream, but B*log2(1 + Q/(B*k_b)) grows in both the
    band B and the power Q, so no split whose semantic band lies in
    [w_low, w_up] carries more.
    """
    w_low = lemma1_bounds(scenario, sigma, scenario.min_similarity)[0]
    zero = np.zeros_like(w_low)
    w_bit = scenario.total_bandwidth - w_low
    corner = np.array([zero, w_low, w_bit, zero, zero, zero + scenario.max_power])
    return bit_rates(scenario, real.gain_b, real.gain_eff, corner)


def _rises_to(
    scenario: Scenario, real: ChannelRealization, sigma: np.ndarray, a_top, e_start
) -> np.ndarray:
    """Rows of ``sigma`` where the hybrid objective provably rises with the band up to its top.

    The hybrid objective's slope, derived in :func:`_noma_optimal`, is
    f'(x)*ln2 = A(x) + B(e) on a band x whose required similarity
    e = sigma*k/x binds.  ``a_top`` is A at the top band of the interval
    the caller certifies, so A(x) >= ``a_top`` on every band below it, and
    ``e_start`` is the similarity that top band needs.  A row passes when
    a lower bound on B over [``e_start``, e_cap], e_cap the last similarity
    a band within the budget can need, is at least -``a_top``: then
    f' >= 0 on every band below the top that fits the budget.

    The bound splits [e_start, e_cap] into 8 cells [e_lo, e_hi] and takes
    B >= eta(clip(e*, e_lo, e_hi)) * s(e_lo) - ln(1 + min(q(e_hi), q_cap))
    on each: eta falls up to e* = sqrt(a_low*a_high) and rises after it,
    while s and ln(1 + q) rise with e, and a band within the budget has
    q < q_cap.  (At e_cap the odds (e - a_low)/(a_high - e) are
    (q_cap/q0)^(1/c), with q0 = q/g, and e_cap = a_low + (a_high -
    a_low)/(1 + 1/odds) gives a_high, not NaN, where the odds overflow.)
    A NaN bound fails the test.
    """
    params = scenario.logistic
    a_low, a_high = params.a_low, params.a_high
    c = LN10_OVER_10 / params.growth
    k_m = scenario.noise_psd / real.gain_eff
    ln_q0 = math.log(real.gain_eff / real.gain_s) - c * params.offset
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q_cap = scenario.max_power * a_high / (sigma * (scenario.k * k_m))
        odds = np.exp((np.log(q_cap) - ln_q0) / c)
        e_cap = a_low + (a_high - a_low) / (1.0 + 1.0 / odds)
        # One line per cell edge, one column per row.
        e = _CERT_STEPS * (e_cap - e_start) + e_start
        q = np.exp(ln_q0 + c * np.log((e - a_low) / (a_high - e)))
        at = np.minimum(np.maximum(math.sqrt(a_low * a_high), e[:-1]), e[1:])
        eta = c * (a_high - a_low) * at / ((at - a_low) * (a_high - at))
        slope = eta * (q[:-1] / (1.0 + q[:-1])) - np.log1p(np.minimum(q[1:], q_cap))
        return slope.min(axis=0) >= -a_top


def _noma_optimal(
    scenario: Scenario, real: ChannelRealization, sigma: np.ndarray, beats: np.ndarray
) -> np.ndarray:
    """Rows of ``sigma`` where no hybrid band beats the overlay corner, shared band W.

    ``beats`` marks the rows where the overlay's bit rate beats
    :func:`_oma_rate_bound` by ``BOUND_RTOL``.  A row is certified when
    (i) e0 = sigma*k/W exceeds both the similarity floor and a_low, so the
    rate target binds on every band; (ii) ``beats`` holds; and (iii)
    :func:`_rises_to` the full band: a closed-form lower bound on the
    hybrid objective's slope is non-negative on every band that can fit
    the budget.

    Why no band x in [w_low, W) then beats W.  Write k_m = N0/g_eff and
    k_b = N0/g_b (k_m >= k_b, as g_eff = min(g_s, g_b)), c =
    ln10/(10*growth) and g(e) = ((e - a_low)/(a_high - e))^c.  By (i),
    band x needs similarity e = sigma*k/x >= e0, and its semantic power is
    x*k_m*q(e), with q(e) = (g_eff/g_s) * exp(-c*offset) * g(e).  With
    both pipes open, :func:`~sembit.rates.hybrid_max_rate` scores, with
    T(x) = P + W*k_b + x*(k_m - k_b),

        f(x)*ln2 = W*ln T(x) - x*ln(k_m/k_b) - x*ln(1 + q(e)) - W*ln(W*k_b),
        f'(x)*ln2 = A(x) + B(e),
        A(x) = W*(k_m - k_b)/T(x) + ln(k_b/k_m) >= A(W), as T grows with x,
        B(e) = eta(e)*s(e) - ln(1 + q(e)), with s = q/(1 + q),

    where eta(e) = c*e*(a_high - a_low)/((e - a_low)*(a_high - e)), the
    elasticity of g, falls up to e* = sqrt(a_low*a_high) and rises after
    it, while q, s and ln(1 + q) all rise with e.  The expression f is
    defined wherever q is finite, whether or not x fits the budget.  A
    band within the budget has q < P*e/(sigma*k*k_m) <= q_cap =
    P*a_high/(sigma*k*k_m), so a band whose e exceeds e_cap, where q
    reaches q_cap, is over it.  (iii) bounds B over [e0, e_cap] by at
    least -A(W), so f' >= 0 on every band whose e is at most e_cap, and
    f(x) <= f(W), the overlay's rate.  A band with both pipes open scores
    f(x); one whose superposed pipe shuts scores the orthogonal rate at
    band x, which (ii) puts below the overlay; and one over the budget
    scores 0.  So the search cannot beat the noma corner, which the
    hybrid's fold then gives the row.  (ii) also puts the overlay itself
    within the budget, so e0 <= e_cap.
    """
    params = scenario.logistic
    w, p_max = scenario.total_bandwidth, scenario.max_power
    k_m = scenario.noise_psd / real.gain_eff
    k_b = scenario.noise_psd / real.gain_b
    a_w = w * (k_m - k_b) / (p_max + w * k_m) + math.log(k_b / k_m)
    e0 = sigma * scenario.k / w
    cert = beats & (e0 > max(scenario.min_similarity, params.a_low))
    cert[cert] = _rises_to(scenario, real, sigma[cert], a_w, e0[cert])
    return cert


def _kink_optimal(scenario: Scenario, real: ChannelRealization, sigma: np.ndarray) -> np.ndarray:
    """Rows of ``sigma`` where no hybrid band beats the kink x_k = sigma*k/floor.

    The kink is the top of the row's :func:`lemma1_bounds` interval where
    the similarity floor binds on the full band: for a positive target,
    e0 = sigma*k/W and a_low both lie below the floor, so x_k < W.  In
    the notation of :func:`_noma_optimal`, a band x >= x_k needs the
    floor itself, so its semantic power is x*k_m*q(floor), and with both
    pipes open the hybrid objective's slope there is f'(x)*ln2 = A(x) -
    ln(1 + q(floor)).  A row is certified when:

    (a) A(x_k) - ln(1 + q(floor)) <= 0.  A falls as x grows, so f cannot
        rise on [x_k, W].  (c) implies (a), so it is not tested apart:
        the open pipe gives T(x_k) > W*k_m*(1 + q(floor)), so A(x_k) <
        (1 - k_b/k_m)/(1 + q(floor)) - ln(k_m/k_b) <= 0, as ln r >= 1 - 1/r;
    (b) :func:`_rises_to` x_k: the slope bound over e in [floor, e_cap] is
        at least -A(x_k).  A(x) >= A(x_k) for x <= x_k, so f cannot fall
        on the way up to x_k;
    (c) the superposed pipe is open at x_k, with a margin of
        ``BOUND_RTOL``: x_k*T(x_k) > W*inv_m(x_k), the fill of
        :func:`~sembit.rates.hybrid_max_rate` above 1.  The semantic
        power is linear in the band on the floor piece, x*rho with
        rho = k_m*q(floor), so inv_m(x_k) = x_k*(k_m + rho) and the test
        reads T(x_k) > W*(k_m + rho).  It also puts the kink within the
        budget: P > W*rho + (W - x_k)*(k_m - k_b) >= x_k*rho.

    By (c) the hybrid scores f(x_k) at the kink.  A band whose superposed
    pipe shuts scores the orthogonal rate at band x: that split is a
    feasible point of the water-fill, whose relaxation to any power of
    the superposed pipe above -inv_m is concave with its maximum f(x), so
    it scores at most f(x).  A band over the budget scores 0.  So by (a)
    and (b) no band beats x_k, which the search scores as its first
    similarity seed, x_k rounded up one ulp.
    """
    params = scenario.logistic
    w, p_max = scenario.total_bandwidth, scenario.max_power
    floor = scenario.min_similarity
    n0 = scenario.noise_psd
    k_m, k_b = n0 / real.gain_eff, n0 / real.gain_b
    # The semantic power per hertz at the floor, k_m*q(floor): inv_m(x_k) = x_k*(k_m + rho).
    rho = power_for_similarity_grid(params, floor, 1.0, real.gain_s, n0)
    # A zero floor puts the kink at +inf, and a floor at the ceiling costs rho = +inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_k = sigma * scenario.k / floor
        total = (p_max + w * k_b) + x_k * (k_m - k_b)
        a_k = w * (k_m - k_b) / total + math.log(k_b / k_m)
    opens = total > w * (k_m + rho) * (1.0 + BOUND_RTOL)
    e0 = sigma * scenario.k / w
    cert = (e0 > 0.0) & (e0 < floor) & (params.a_low < floor) & opens
    cert[cert] = _rises_to(scenario, real, sigma[cert], a_k[cert], floor)
    return cert


def _over_budget(scenario: Scenario, real: ChannelRealization, sigma: np.ndarray) -> np.ndarray:
    """Rows of ``sigma`` where the overlay alone overspends, so the hybrid is an orthogonal split.

    A row is certified when the full-band overlay's semantic power p_s(W)
    is at least the budget P by ``BOUND_RTOL``.  A shared band w opens its
    superposed pipe, the fill of :func:`~sembit.rates.hybrid_max_rate`
    above 1, exactly when w*(P - (W - w)*(k_m - k_b)) > W*p_s(w).  The
    required similarity only rises as the band narrows, so the power per
    hertz does too: p_s(w) >= w*p_s(W)/W.  With k_m >= k_b, opening the
    pipe would need P > p_s(W).  So on every band the superposed pipe
    shuts and the hybrid scores the orthogonal rate at that band, the
    objective of :func:`_oma_points`.  Above the top of the oma interval,
    w_up, the floor pins the power per hertz, so a wider band leaves the
    bit stream less band and less power: the best band lies in the oma
    interval, whose own search the hybrid's fold gives the row.
    """
    w, floor = scenario.total_bandwidth, scenario.min_similarity
    p_s = sem_power(scenario, real.gain_s, sigma, floor, w)
    return p_s >= scenario.max_power * (1.0 + BOUND_RTOL)


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
    certified: np.ndarray | None = None,
    kink: np.ndarray | None = None,
    over: np.ndarray | None = None,
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
    Three row masks (default: none) leave rows out of the search, each a
    closed-form certificate of the row's optimum.  Rows in ``certified``
    (:func:`_noma_optimal`) and ``over`` (:func:`_over_budget`) are left
    to the fold, which gives them the noma and the oma corner, as it does
    a row whose search finds nothing better.  A row in ``kink``
    (:func:`_kink_optimal`) takes its first similarity seed, the kink
    rounded up one ulp, in place of the search's band.
    """
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    floor = scenario.min_similarity
    none = np.zeros(len(sigma), bool)
    certified, kink, over = (none if m is None else m for m in (certified, kink, over))
    run = sigma != 0.0
    skip = certified | kink | over
    live = np.flatnonzero(run & ~skip)
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

    extra = np.column_stack([bands[~skip[run]], seed])
    wm, rate = search_rows(
        score, s[:, None], lo, hi, extra, grid_n, maximize=True, zoom=SEARCH_ZOOM, tie_high=True
    )
    # A kink row takes its first seed, clipped into its interval as the search clips it.
    at_kink = np.flatnonzero(run & kink)
    live = np.concatenate([live, at_kink])
    wm = np.concatenate([wm, np.minimum(bands[kink[run], 0], w)])
    fits = np.concatenate([rate > 0.0, np.ones(len(at_kink), bool)])
    p_s = sem_power(scenario, real.gain_s, sigma[live], floor, wm)
    interior = (p_s <= p_max) & fits
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
    folds in all of its rows and lifts its own.  An oma row that the
    orthogonal boundary does not report is searched only where the
    overlay fails to beat :func:`_oma_rate_bound` there: elsewhere the
    overlay corner wins the hybrid's fold over any orthogonal split.
    Likewise a hybrid row is searched only where no certificate gives its
    optimum: :func:`_noma_optimal` the overlay corner, which the fold then
    gives it, :func:`_kink_optimal` the kink band, at which it is
    evaluated, and :func:`_over_budget` an orthogonal split, which the
    fold gives it from the oma row.  A power-limited draw's overlay
    overspends at every target, so there the hybrid boundary is the
    orthogonal one.
    Points are solved in row batches, one search per batch.

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
        ext = oma_extremes(scenario, real)
        uniform = sigma = np.linspace(0.0, ext.sigma_max, n_points)
        on_uniform = slice(None)
        if Scheme.SEMI in schemes and Scheme.NOMA in found:
            merged = np.concatenate([uniform, found[Scheme.NOMA].sigma])
            sigma, inverse = np.unique(merged, return_inverse=True)
            on_uniform = inverse[:n_points]
        bands = _seeds(scenario, sigma)
        need = np.ones(len(sigma), bool)
        if Scheme.SEMI in schemes:
            noma = _noma_points(scenario, real, sigma)
            # An oma row no output reports only feeds the hybrid; skip it
            # where the overlay beats every orthogonal split.
            beats = noma.bit_rate > _oma_rate_bound(scenario, real, sigma) * (1.0 + BOUND_RTOL)
            certified = _noma_optimal(scenario, real, sigma, beats)
            kink = _kink_optimal(scenario, real, sigma)
            over = _over_budget(scenario, real, sigma)
            need = ~beats
            if Scheme.OMA in schemes:
                need[on_uniform] = True
        oma = _oma_points(scenario, real, sigma, grid_n, bands, ext, need)
        if Scheme.OMA in schemes:
            found[Scheme.OMA] = _lifted(Scheme.OMA, uniform, oma, on_uniform)
        if Scheme.SEMI in schemes:
            semi = _semi_points(
                scenario, real, sigma, grid_n, bands, oma, noma, certified, kink, over
            )
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
