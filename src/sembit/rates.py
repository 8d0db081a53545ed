"""Link equations and the achieved rates of a concrete allocation.

Orthogonal (oma): the two streams get disjoint sub-bands.
Overlay (noma): both streams superpose on the full band; the bit user
decodes and cancels the semantic signal first, so its rate sees the
semantic power as interference through the weaker of the two link gains.
Hybrid (semi): a shared sub-band carries the overlay, the remainder is an
orthogonal bit-only band.  The other two are its corners: oma is a hybrid
with no bit power on its shared band, noma one with no bit-only band, so
:func:`rates_for` evaluates every allocation as a hybrid and
:func:`fold_corners` folds their solutions into the hybrid's.

Every bit pipe is described by its width w and its inverse slope inv_h,
the noise (plus interference) power over the gain, so that it carries
w * log2(1 + p / inv_h).  The kernels below state each equation once as
an array function that broadcasts; the boundary and power solvers and
the plug-back checks all call them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, Scenario
from .errors import InfeasibleTarget, require_finite
from .similarity import eval_similarity, power_for_similarity_grid

LN2 = math.log(2.0)
_SUM_RTOL = 1e-9
# Narrowest band any search considers, as a fraction of the carrier.  A
# narrower band's noise power w * N0 underflows into subnormal numbers, and
# the semantic power that meets a target on it loses its significant bits.
# The exact-zero shared band is the orthogonal solution, which every hybrid
# solve compares against.
MIN_BAND_FRACTION = 1e-9
# Similarity-seeded band candidates per search; the last one stays this
# fraction of the curve's span below its open asymptote, the ceiling.
# Against tools/search_quality.py's reference (256 seeds, a 4096-point
# grid, brackets 64 times deeper; 150 scenarios on each of seeds 0-9), 24
# seeds miss no row: the worst gap is 3.5e-11, where 64 seeds gave 9.3e-11.
# The count has a floor, set by rows where the first seed, an exact kink,
# nearly ties an under-sampled smooth basin: 16 seeds lose an oma row by
# 6.1e-5 of its boundary's maximum, and 8 a semi row by 3.2e-5; the
# harness's 1,500 scenarios catch neither, so tests pin both rows.
EPS_BANDS = 24
_EPS_EDGE = 1e-9
_EPS_STEPS = np.linspace(0.0, 1.0, EPS_BANDS)


def sem_power(scenario: Scenario, gain_s, sigma_target, floor, bandwidth):
    """Semantic power over ``bandwidth`` for the harder of two targets.

    The rate target needs similarity sigma*k/w, the floor needs ``floor``;
    +inf where the harder one sits at or above the curve ceiling.
    ``gain_s``, the semantic user's gain, is one number or a column of
    them, one per row.
    """
    eps_need = np.maximum(sigma_target * scenario.k / bandwidth, floor)
    return power_for_similarity_grid(
        scenario.logistic, eps_need, bandwidth, gain_s, scenario.noise_psd
    )


def orth_inv_slope(bandwidth, gain, noise_psd):
    """Inverse slope of a clean band: its noise power over the gain, w * (N0 / g)."""
    return bandwidth * (noise_psd / gain)


def overlay_inv_slope(bandwidth, p_sem, gain_eff, noise_psd):
    """Inverse slope of the bit stream superposed on a semantic stream.

    The semantic power stays in the band as interference, both seen
    through the weaker link gain ``gain_eff``: p_sem + w * (N0 / g_eff).
    """
    return p_sem + bandwidth * (noise_psd / gain_eff)


def _log_rate(bandwidth, power, inv_slope):
    """w * log2(1 + p / inv_h), unmasked: NaN or at most 0 without a band or power."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return bandwidth * np.log1p(np.divide(power, inv_slope)) / LN2


def pipe_rate(bandwidth, power, inv_slope):
    """Bit rate w * log2(1 + p / inv_h); no band or no power carries nothing."""
    rate = _log_rate(bandwidth, power, inv_slope)
    return np.where((np.asarray(bandwidth) > 0) & (np.asarray(power) > 0), rate, 0.0)


def orth_max_rate(w, w_sem, p_sem, p_max, gain_b, noise_psd):
    """Bit rate of an orthogonal split's clean band w - w_sem with the rest of the budget.

    Scores every candidate band of a rows x candidates matrix at once:
    the semantic stream spends ``p_sem`` on ``w_sem`` and the bit stream
    gets p_max - p_sem over the clean band,
    (w - w_sem) * log2(1 + (p_max - p_sem) / ((w - w_sem) * N0 / g_b)),
    bit for bit :func:`pipe_rate`'s.  Over the budget, with no budget
    left or with no clean band, that rate is NaN or at most 0, so one
    ``fmax`` scores all of those 0.
    """
    w_b = w - w_sem
    return np.fmax(_log_rate(w_b, p_max - p_sem, orth_inv_slope(w_b, gain_b, noise_psd)), 0.0)


def hybrid_max_rate(w, w_m, p_sem, p_max, gain_eff, gain_b, noise_psd):
    """Water-filled bit rate of a hybrid with shared band ``w_m``, in closed form.

    Scores every candidate of a rows x candidates matrix at once: the
    semantic stream spends ``p_sem`` on the shared band, and the rest of
    the budget is water-filled for the largest rate
    (:func:`water_fill_max_grid`) between the superposed pipe on w_m,
    inv_m = p_sem + w_m * k_m, and the clean band w_b = w - w_m,
    inv_b = w_b * k_b, with k_m = N0 / g_eff and k_b = N0 / g_b.
    Candidates at or over the budget have no bit power and score 0.

    Two facts hold on every candidate within the budget.  The level's
    denominator does not depend on the semantic power:

        total = (p_max - p_sem) + inv_m + inv_b = p_max + w * k_b + w_m * (k_m - k_b).

    And the bit-only pipe never shuts: g_eff = min(g_s, g_b) <= g_b, so
    k_m >= k_b and total >= w * k_b, and its fill at the level w / total,
    1 + p_b / inv_b = total / (w * k_b), is at least 1.  With both pipes
    open, 1 + p_m / inv_m = w_m * total / (w * inv_m) and

        rate * ln2 = w_m * ln(w_m * total / (w * inv_m)) + w_b * ln(total / (w * k_b)),

    two logarithms per candidate.  Where that first fill drops below 1,
    the superposed pipe shuts and the clean band takes the whole rest of
    the budget: the rate is :func:`orth_max_rate` at band w_m.  One
    reduction over the candidates within the budget finds that case, and
    only then is it patched.
    """
    k_b = noise_psd / gain_b
    inv_m = overlay_inv_slope(w_m, p_sem, gain_eff, noise_psd)
    total = (p_max + w * k_b) + w_m * (noise_psd / gain_eff - k_b)
    fits = p_sem < p_max
    # An unreachable similarity costs p_sem = +inf, so its fill is 0, and log(0) = -inf.
    with np.errstate(divide="ignore"):
        fill_m = w_m * total / (w * inv_m)
        rate = (w_m * np.log(fill_m) + (w - w_m) * np.log(total / (w * k_b))) / LN2
    if np.min(fill_m, where=fits, initial=np.inf) < 1.0:
        shut = orth_max_rate(w, w_m, p_sem, p_max, gain_b, noise_psd)
        rate = np.where(fill_m < 1.0, shut, rate)
    return np.where(fits, rate, 0.0)


def pipe_power(bandwidth, rate, inv_slope):
    """Inverse of :func:`pipe_rate`: inv_h * expm1(R * ln2 / w).

    No rate costs nothing; a positive rate over no band costs +inf.  Those
    cases (and NaN) show as a negative or NaN power, so one reduction
    finds them and only then are they patched.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        power = inv_slope * np.expm1(np.divide(LN2 * rate, bandwidth))
    if np.size(power) and not power.min() >= 0:
        power = np.where(np.asarray(bandwidth) > 0, power, np.inf)
        power = np.where(np.asarray(rate) <= 0, 0.0, power)
    return power


def water_fill_max_grid(w_m, inv_m, w_b, inv_b, budget):
    """Split ``budget`` between two pipes for the largest total rate.

    Standard water level clamped to the box [0, budget]; the clamped pair
    still spends the whole budget.  A pipe of zero width and zero inverse
    slope gets nothing, so the w_b = 0 corner needs no branch.
    Returns (p_m, p_b), elementwise.
    """
    level = (w_m + w_b) / (budget + inv_m + inv_b)
    return np.clip(w_m / level - inv_m, 0.0, budget), np.clip(w_b / level - inv_b, 0.0, budget)


def water_fill_min_grid(w_m, inv_m, w_b, inv_b, rate):
    """Cheapest split of ``rate`` between two pipes (inverse water-filling).

    With both pipes open, the water level L that meets
    rate_m + rate_b = R at the least total power is

        ln L = (R * ln2 - w_m * ln(w_m / inv_m) - w_b * ln(w_b / inv_b)) / (w_m + w_b)

    and pipe i gets inv_i * expm1(y_i), y_i = ln(L * w_i / inv_i).  In
    the log domain that is y_m = (R * ln2 + w_b * d) / (w_m + w_b) and
    y_b = y_m - d, with one logarithm d = ln((w_m / inv_m) / (w_b / inv_b)).
    The both-open fill stays below a pipe's fill alone, R * ln2 / w_i as
    in :func:`pipe_power`, exactly while the other pipe stays open, so
    each pipe takes the smaller of the two; a pipe whose fill comes out
    negative shuts, and its power is floored at 0.  A superposed pipe of
    zero width or infinite inverse slope is never used: its power comes
    out NaN or negative and is floored to 0 too.  The bit-only pipe is
    unused at zero width only when it is dead, its inverse slope 0 as
    well (what :func:`orth_inv_slope` gives a zero width); a zero-width
    bit-only pipe with a positive inverse slope costs +inf for a positive
    rate.  No rate costs nothing.  A positive rate with no band at all
    costs +inf on the superposed pipe; one reduction finds that case, and
    only then is it patched.  So two zero-width pipes with finite positive
    inverse slopes return (inf, inf), and two dead pipes (inf, 0.0).
    Returns (p_m, p_b), elementwise.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # numpy calls, not operators: plain floats would raise on a zero width.
        ln_rate = np.multiply(LN2, rate)
        w = w_m + w_b
        d = np.log(np.divide(w_m, inv_m) / np.divide(w_b, inv_b))
        y_m = (ln_rate + w_b * d) / w
        p_m = np.fmax(inv_m * np.expm1(np.fmin(y_m, ln_rate / w_m)), 0.0)
        p_b = np.fmax(inv_b * np.expm1(np.fmin(y_m - d, ln_rate / w_b)), 0.0)
    if np.size(w) and not np.min(w) > 0:
        p_m = np.where((np.asarray(w) == 0) & (np.asarray(rate) > 0), np.inf, p_m)
    return p_m, p_b


def lemma1_bounds(scenario: Scenario, sigma_target, floor):
    """Semantic-band interval [w_low, w_up] for a rate target.

    A band w needs similarity sigma*k/w.  Below w_low = min(sigma*k/a_high, W)
    that reaches the curve's ceiling ``a_high``, where the semantic power
    is +inf; above w_up = min(sigma*k/floor, W) the required similarity drops
    under the similarity floor ``floor``, so the floor constraint is
    implied everywhere inside the interval.  A target that needs the
    ceiling even on the full band gets the point interval {W}.  Neither
    end goes below ``MIN_BAND_FRACTION`` of the carrier.  A zero target
    carries no semantic stream and collapses the interval to {0}, and a
    zero floor caps nothing below the carrier.  Broadcasts over an array
    of targets, with one floor or a floor per target; a scalar target
    with its floor gives a pair of floats.

    Raises:
        ValueError: a negative target.
        InfeasibleTarget: sigma*k, the band at similarity 1, exceeds the
            carrier bandwidth.
    """
    s = np.asarray(sigma_target, dtype=float)
    if (s < 0).any():
        raise ValueError("sigma_target must be non-negative")
    w = scenario.total_bandwidth
    w_need = s * scenario.k
    if (w_need > w).any():
        raise InfeasibleTarget(
            f"semantic rate {np.max(s):.6g} needs at least {np.max(w_need):.6g} Hz "
            f"even at similarity 1; carrier has {w:.6g} Hz"
        )
    zero = s == 0.0
    w_edge = np.minimum(w_need / scenario.logistic.a_high, w)
    w_low = np.where(zero, 0.0, np.maximum(w_edge, w * MIN_BAND_FRACTION))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_up = np.where(np.greater(floor, 0.0), np.minimum(w_need / floor, w), w)
    w_up = np.where(zero, 0.0, np.maximum(w_up, w_low))
    return (float(w_low), float(w_up)) if s.ndim == 0 else (w_low, w_up)


def _next_up(x: np.ndarray) -> np.ndarray:
    """``np.nextafter(x, inf)`` of an array of positive, finite doubles, in place.

    The next double up from such a number has its bit pattern plus one,
    subnormals included; returns ``x``.
    """
    bits = x.view(np.int64)
    bits += 1
    return x


def eps_seeded_bands(scenario: Scenario, sigma_target, floor) -> np.ndarray:
    """``EPS_BANDS`` band candidates per target, spaced evenly in required similarity.

    Row i holds sigma_i*k/eps for eps evenly from
    max(floor_i, sigma_i*k/W, a_low) to just below the curve ceiling
    ``a_high``.  A uniform band grid can miss the narrow feasible sliver by
    the ceiling when the floor sits close to it, and a second basin near
    the curve floor ``a_low``, where a wide band needs almost no semantic
    power; the similarity axis covers both deterministically.  The first
    candidate is the kink where the floor, or the curve floor, starts to
    bind, and an optimum can sit exactly there; each band is rounded up by
    one ulp so that it needs no more than its own similarity.  The bands
    lie in the target's :func:`lemma1_bounds` interval, but for that ulp,
    which the search's clipping takes back.  A target with no room
    between its floor and the ceiling gets sigma*k/a_high, the start of
    that interval, in every column, so every row has as many candidates.
    Broadcasts over a 1-D array of targets, with one floor or a floor per
    target; returns a (targets, ``EPS_BANDS``) matrix.

    Every quotient sigma*k/eps is a positive, finite double: both callers
    pass only the positive targets they search, and each eps lies between
    two positive similarities, the lower end and one just below
    ``a_high``.  The lower end is at least sigma*k/W, and at least the
    smallest positive double where that quotient underflows to 0 on a
    curve with a_low = 0 and no floor; its band is then below W rather
    than infinite.  So :func:`_next_up` is ``np.nextafter(x, inf)``
    exactly, at a twentieth of its cost.
    """
    params = scenario.logistic
    span = params.a_high - params.a_low
    w_need = np.asarray(sigma_target, dtype=float) * scenario.k
    eps_min = max(params.a_low, np.finfo(float).smallest_subnormal)
    eps_lo = np.maximum(np.maximum(floor, w_need / scenario.total_bandwidth), eps_min)
    eps_hi = params.a_high - span * _EPS_EDGE
    eps = eps_lo[:, None] + (eps_hi - eps_lo)[:, None] * _EPS_STEPS
    # One ulp up, so that no band needs more than its similarity: at a_low
    # the power rises from 0 with infinite slope.
    bands = _next_up(w_need[:, None] / eps)
    return np.where((eps_lo < eps_hi)[:, None], bands, (w_need / params.a_high)[:, None])


class Scheme(str, enum.Enum):
    OMA = "oma"
    NOMA = "noma"
    SEMI = "semi"


# Allocation's numeric fields, in order.
ALLOC_FIELDS = ("w_shared", "w_sem", "w_bit", "p_sem", "p_bit_shared", "p_bit_orth")
# The fields each scheme leaves at zero.
_UNUSED = {
    Scheme.OMA: ("w_shared", "p_bit_shared"),
    Scheme.NOMA: ("w_sem", "w_bit", "p_bit_orth"),
    Scheme.SEMI: ("w_sem",),
}


@dataclass(frozen=True)
class Allocation:
    """Bandwidth/power split for one transmission scheme.

    ``w_shared`` carries both streams (overlay); ``w_sem``/``w_bit`` are
    exclusive sub-bands.  ``p_bit_shared`` rides on the shared band,
    ``p_bit_orth`` on the bit-only band.  Every field is finite and
    non-negative, and a field the scheme does not use is zero; use the
    constructors below rather than filling fields by hand.
    """

    scheme: Scheme
    w_shared: float = 0.0
    w_sem: float = 0.0
    w_bit: float = 0.0
    p_sem: float = 0.0
    p_bit_shared: float = 0.0
    p_bit_orth: float = 0.0

    def __post_init__(self):
        require_finite(self, *ALLOC_FIELDS)
        for name in ALLOC_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        scheme = Scheme(self.scheme)
        for name in _UNUSED[scheme]:
            if getattr(self, name) != 0:
                raise ValueError(f"{name} must be 0 under scheme {scheme.value}")

    @classmethod
    def orthogonal(cls, w_sem: float, w_bit: float, p_sem: float, p_bit: float) -> "Allocation":
        return cls(Scheme.OMA, w_sem=w_sem, w_bit=w_bit, p_sem=p_sem, p_bit_orth=p_bit)

    @classmethod
    def overlay(cls, w: float, p_sem: float, p_bit: float) -> "Allocation":
        return cls(Scheme.NOMA, w_shared=w, p_sem=p_sem, p_bit_shared=p_bit)

    @classmethod
    def hybrid(
        cls,
        w_shared: float,
        w_bit: float,
        p_sem: float,
        p_bit_shared: float,
        p_bit_orth: float,
    ) -> "Allocation":
        return cls(
            Scheme.SEMI,
            w_shared=w_shared,
            w_bit=w_bit,
            p_sem=p_sem,
            p_bit_shared=p_bit_shared,
            p_bit_orth=p_bit_orth,
        )

    @property
    def total_bandwidth(self) -> float:
        return self.w_shared + self.w_sem + self.w_bit

    @property
    def total_power(self) -> float:
        return self.p_sem + self.p_bit_shared + self.p_bit_orth

    def check_budget(self, scenario: Scenario) -> None:
        """Raise if the allocation does not fit the scenario's resources."""
        w = scenario.total_bandwidth
        if not math.isclose(self.total_bandwidth, w, rel_tol=_SUM_RTOL, abs_tol=w * _SUM_RTOL):
            raise ValueError(
                f"bandwidth parts sum to {self.total_bandwidth:.9g}, carrier has {w:.9g}"
            )
        if self.total_power > scenario.max_power * (1.0 + _SUM_RTOL):
            raise ValueError(
                f"power parts sum to {self.total_power:.9g}, budget is {scenario.max_power:.9g}"
            )


def fold_corners(best: np.ndarray, oma: np.ndarray, noma: np.ndarray, better) -> None:
    """Fold the oma and noma corners into the hybrid's rows ``best``, in place.

    Each matrix is (1 + 6, rows): a score line, then the
    :data:`ALLOC_FIELDS` lines.  An orthogonal split is a hybrid whose
    shared band is the semantic band (w_shared and w_sem swap); an overlay
    is a hybrid as it stands.  A corner takes a row only where
    ``better(corner score, best score)`` holds, a strict improvement, so
    the interior wins ties, then the oma corner; a NaN score never wins.
    """
    for corner in (oma[[0, 2, 1, 3, 4, 5, 6]], noma):
        take = better(corner[0], best[0])
        best[:, take] = corner[:, take]


@dataclass(frozen=True)
class RatePair:
    """One achieved operating point.

    sem_rate is the normalised semantic rate (suts/s per transmitted
    symbol-content unit): bandwidth * similarity / k.  bit_rate is in
    bit/s.  similarity is the raw decoder score behind sem_rate.
    """

    sem_rate: float
    bit_rate: float
    similarity: float


def shannon_rate(bandwidth: float, power: float, gain: float, noise_psd: float) -> float:
    """AWGN capacity in bit/s; zero bandwidth or power carries nothing."""
    return float(pipe_rate(bandwidth, power, orth_inv_slope(bandwidth, gain, noise_psd)))


def snr_db(power: float, gain: float, bandwidth: float, noise_psd: float) -> float:
    """Receive SNR in dB over ``bandwidth``; zero power maps to -inf."""
    if power <= 0:
        return -math.inf
    return 10.0 * math.log10(power * gain / (bandwidth * noise_psd))


def rates_for(scenario: Scenario, real: ChannelRealization, alloc: Allocation) -> RatePair:
    """Rates that ``alloc`` achieves, evaluated as a hybrid whatever its scheme.

    The semantic stream rides on w_shared + w_sem, one of which is always
    zero.  The bit rate adds an overlay pipe on w_shared, where the bit
    user first decodes and cancels the semantic signal, so both see the
    weaker gain gain_eff and the semantic power stays as interference,
    and a clean pipe on w_bit.  A pipe of zero width carries exactly 0,
    so an orthogonal split (no shared band) and an overlay (no bit band)
    need no case of their own.  A zero semantic band is the bit-only
    corner: semantic rate and reported similarity are both zero.
    """
    alloc.check_budget(scenario)
    n0 = scenario.noise_psd
    band = alloc.w_shared + alloc.w_sem
    eps = sem = 0.0
    if band > 0:
        eps = eval_similarity(scenario.logistic, snr_db(alloc.p_sem, real.gain_s, band, n0))
        sem = band * eps / scenario.k
    # The overlay pipe on w_shared and the clean one on w_bit in one kernel
    # call, which costs little more than one pipe alone.
    widths = np.array([alloc.w_shared, alloc.w_bit])
    powers = np.array([alloc.p_bit_shared, alloc.p_bit_orth])
    inv_m = overlay_inv_slope(alloc.w_shared, alloc.p_sem, real.gain_eff, n0)
    inv = np.array([inv_m, orth_inv_slope(alloc.w_bit, real.gain_b, n0)])
    shared, orth = pipe_rate(widths, powers, inv)
    return RatePair(sem_rate=sem, bit_rate=float(shared + orth), similarity=eps)
