"""Link equations and the achieved rates of a concrete allocation.

Orthogonal (oma): the two streams get disjoint sub-bands.
Overlay (noma): both streams superpose on the full band; the bit user
decodes and cancels the semantic signal first, so its rate sees the
semantic power as interference through the weaker of the two link gains.
Hybrid (semi): a shared sub-band carries the overlay, the remainder is an
orthogonal bit-only band.

Every bit pipe is described by its width w and its inverse slope inv_h,
the noise (plus interference) power over the gain, so that it carries
w * log2(1 + p / inv_h).  The kernels below state each equation once as
an array function that broadcasts; the scalar helpers, boundary and power
solvers, and plug-back checks all call them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, Scenario
from .errors import InfeasibleBandwidth, InfeasibleTarget
from .similarity import eval_similarity, power_for_similarity_grid

LN2 = math.log(2.0)
_SUM_RTOL = 1e-9
# Narrowest shared band a hybrid search considers, as a fraction of the
# carrier; keeps a zero-width band from sneaking in through underflow.  The
# exact-zero corner is the orthogonal solution, which every hybrid solve
# compares against.
MIN_BAND_FRACTION = 1e-9


def sem_power(scenario: Scenario, real: ChannelRealization, sigma_target, floor, bandwidth):
    """Semantic power over ``bandwidth`` for the harder of two targets.

    The rate target needs similarity sigma*k/w, the floor needs ``floor``;
    +inf where the harder one sits at or above the curve ceiling.
    """
    eps_need = np.maximum(sigma_target * scenario.k / bandwidth, floor)
    return power_for_similarity_grid(
        scenario.logistic, eps_need, bandwidth, real.gain_s, scenario.noise_psd
    )


def orth_inv_slope(bandwidth, gain, noise_psd):
    """Inverse slope of a clean band: its noise power over the gain."""
    return bandwidth * noise_psd / gain


def overlay_inv_slope(bandwidth, p_sem, gain_eff, noise_psd):
    """Inverse slope of the bit stream superposed on a semantic stream.

    The semantic power stays in the band as interference, both seen
    through the weaker link gain ``gain_eff``.
    """
    return (p_sem * gain_eff + bandwidth * noise_psd) / gain_eff


def pipe_rate(bandwidth, power, inv_slope):
    """Bit rate w * log2(1 + p / inv_h); no band or no power carries nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = bandwidth * np.log1p(np.divide(power, inv_slope)) / LN2
    return np.where((np.asarray(bandwidth) > 0) & (np.asarray(power) > 0), rate, 0.0)


def pipe_power(bandwidth, rate, inv_slope):
    """Inverse of :func:`pipe_rate`: inv_h * (2**(R/w) - 1).

    No rate costs nothing; a positive rate over no band costs +inf.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        power = inv_slope * np.expm1(np.divide(LN2 * rate, bandwidth))
    power = np.where(np.asarray(bandwidth) > 0, power, np.inf)
    return np.where(np.asarray(rate) <= 0, 0.0, power)


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

    The water level meets rate_m + rate_b = rate at the least total power;
    when it would push one pipe's power to or below zero, that pipe shuts
    off and the other inverts the whole rate.  A pipe of zero width is
    never used.  Returns (p_m, p_b), elementwise.
    """
    w = w_m + w_b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        term_m = np.where(w_m > 0, (w_m / w) * np.log2(np.divide(w_m, inv_m)), 0.0)
        term_b = np.where(w_b > 0, (w_b / w) * np.log2(np.divide(w_b, inv_b)), 0.0)
        level = 2.0 ** (rate / w - term_m - term_b)
    p_m = level * w_m - inv_m
    p_b = level * w_b - inv_b
    shut_m = p_m <= 0
    shut_b = p_b <= 0
    live = np.asarray(rate) > 0
    p_m = np.where(shut_b, pipe_power(w_m, rate, inv_m), np.where(shut_m, 0.0, p_m))
    p_b = np.where(shut_b, 0.0, np.where(shut_m, pipe_power(w_b, rate, inv_b), p_b))
    return np.where(live, p_m, 0.0), np.where(live, p_b, 0.0)


def water_fill_max(
    h_m: float, h_b: float, w_m: float, w_b: float, budget: float
) -> tuple[float, float]:
    """Split ``budget`` W between two parallel bit pipes to maximise rate.

    ``h_m`` and ``h_b`` are channel gain over total in-band noise (plus
    interference) power, so pipe i carries rate_i = w_i * log2(1 + p_i * h_i).
    Standard water level with clamping at the box edges; the clamped pair
    still spends the whole budget.
    """
    if h_m <= 0 or h_b <= 0:
        raise ValueError("pipe slopes must be positive")
    if w_m < 0 or w_b < 0 or w_m + w_b <= 0:
        raise ValueError("pipe bandwidths must be non-negative and not both zero")
    if budget <= 0:
        return 0.0, 0.0
    p_m, p_b = water_fill_max_grid(w_m, 1.0 / h_m, w_b, 1.0 / h_b, budget)
    return float(p_m), float(p_b)


def water_fill_min(
    h_m: float, h_b: float, w_m: float, w_b: float, rate_target: float
) -> tuple[float, float]:
    """Cheapest split of a rate target between two parallel bit pipes.

    ``h_m`` and ``h_b`` are channel gain over total in-band noise (plus
    interference) power, so pipe i carries rate_i = w_i * log2(1 + p_i * h_i).
    Inverse water-filling meets rate_m + rate_b = rate_target at minimum
    total power; when the unconstrained water level would push one pipe's
    power negative, that pipe shuts off and the other inverts the full
    target exactly.

    Raises:
        InfeasibleBandwidth: positive target with both pipes at zero width.
    """
    if rate_target <= 0:
        return 0.0, 0.0
    # A pipe without width or slope is dead: zero width, zero inverse slope.
    w_m, inv_m = (w_m, 1.0 / h_m) if w_m > 0 and h_m > 0 else (0.0, 0.0)
    w_b, inv_b = (w_b, 1.0 / h_b) if w_b > 0 and h_b > 0 else (0.0, 0.0)
    if w_m == 0 and w_b == 0:
        raise InfeasibleBandwidth("a positive bit target needs at least one live pipe")
    p_m, p_b = water_fill_min_grid(w_m, inv_m, w_b, inv_b, rate_target)
    return float(p_m), float(p_b)


def lemma1_bounds(scenario: Scenario, sigma_target: float, floor: float) -> tuple[float, float]:
    """Semantic-band interval [sigma*k, min(sigma*k/floor, W)] for a rate target.

    Below w_low = sigma*k the required similarity exceeds 1; above
    w_up = sigma*k/floor the required similarity drops under the
    similarity floor ``floor``, so the floor constraint is implied
    everywhere inside the interval.  A zero target carries no semantic
    stream and collapses the interval to {0}.

    Raises:
        InfeasibleTarget: w_low exceeds the carrier bandwidth.
    """
    if sigma_target < 0:
        raise ValueError("sigma_target must be non-negative")
    if sigma_target == 0.0:
        return 0.0, 0.0
    w = scenario.total_bandwidth
    w_low = sigma_target * scenario.k
    if w_low > w:
        raise InfeasibleTarget(
            f"semantic rate {sigma_target:.6g} needs at least {w_low:.6g} Hz "
            f"even at similarity 1; carrier has {w:.6g} Hz"
        )
    w_up = min(w_low / floor, w) if floor > 0.0 else w
    return w_low, w_up


class Scheme(str, enum.Enum):
    OMA = "oma"
    NOMA = "noma"
    SEMI = "semi"


@dataclass(frozen=True)
class Allocation:
    """Bandwidth/power split for one transmission scheme.

    ``w_shared`` carries both streams (overlay); ``w_sem``/``w_bit`` are
    exclusive sub-bands.  ``p_bit_shared`` rides on the shared band,
    ``p_bit_orth`` on the bit-only band.  Unused fields stay zero; use the
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
        for name in ("w_shared", "w_sem", "w_bit", "p_sem", "p_bit_shared", "p_bit_orth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

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


def _semantic_outputs(scenario, gain, bandwidth, power):
    """(similarity, normalised sem rate) on a band; no band means neither."""
    if bandwidth <= 0:
        return 0.0, 0.0
    eps = eval_similarity(
        scenario.logistic, snr_db(power, gain, bandwidth, scenario.noise_psd)
    )
    return eps, bandwidth * eps / scenario.k


def oma_rates(scenario: Scenario, real: ChannelRealization, alloc: Allocation) -> RatePair:
    """Rates for an orthogonal split.  Zero semantic bandwidth is the
    bit-only corner: semantic rate and reported similarity are both zero."""
    if alloc.scheme is not Scheme.OMA:
        raise ValueError(f"expected an orthogonal allocation, got {alloc.scheme}")
    alloc.check_budget(scenario)
    eps, sem = _semantic_outputs(scenario, real.gain_s, alloc.w_sem, alloc.p_sem)
    bit = shannon_rate(alloc.w_bit, alloc.p_bit_orth, real.gain_b, scenario.noise_psd)
    return RatePair(sem_rate=sem, bit_rate=bit, similarity=eps)


def noma_rates(
    scenario: Scenario, real: ChannelRealization, alloc: Allocation
) -> tuple[RatePair, dict]:
    """Rates for a full-band overlay.

    Successive decoding at the bit user: it first decodes the semantic
    signal (treating its own as noise), cancels it, then decodes its own
    stream clean.  Both decode steps must succeed at the weaker gain, so
    the bit rate uses gain_eff = min(gain_s, gain_b).  Returns the rate
    pair plus the two decode-stage rates for diagnostics.
    """
    if alloc.scheme is not Scheme.NOMA:
        raise ValueError(f"expected an overlay allocation, got {alloc.scheme}")
    alloc.check_budget(scenario)
    w = alloc.w_shared
    n0 = scenario.noise_psd
    eps, sem = _semantic_outputs(scenario, real.gain_s, w, alloc.p_sem)
    p_b = alloc.p_bit_shared
    bit = float(pipe_rate(w, p_b, overlay_inv_slope(w, alloc.p_sem, real.gain_eff, n0)))
    r_b_to_b = shannon_rate(w, p_b, real.gain_b, n0)
    decode = {"r_b_to_s": bit, "r_b_to_b": r_b_to_b}
    return RatePair(sem_rate=sem, bit_rate=bit, similarity=eps), decode


def semi_rates(scenario: Scenario, real: ChannelRealization, alloc: Allocation) -> RatePair:
    """Rates for the hybrid: overlay on w_shared plus a clean bit band."""
    if alloc.scheme is not Scheme.SEMI:
        raise ValueError(f"expected a hybrid allocation, got {alloc.scheme}")
    alloc.check_budget(scenario)
    n0 = scenario.noise_psd
    w_m = alloc.w_shared
    eps, sem = _semantic_outputs(scenario, real.gain_s, w_m, alloc.p_sem)
    inv_m = overlay_inv_slope(w_m, alloc.p_sem, real.gain_eff, n0)
    bit_shared = float(pipe_rate(w_m, alloc.p_bit_shared, inv_m))
    bit_orth = shannon_rate(alloc.w_bit, alloc.p_bit_orth, real.gain_b, n0)
    return RatePair(sem_rate=sem, bit_rate=bit_shared + bit_orth, similarity=eps)


def rates_for(scenario: Scenario, real: ChannelRealization, alloc: Allocation) -> RatePair:
    """Scheme-dispatching convenience used by plug-back verification."""
    if alloc.scheme is Scheme.OMA:
        return oma_rates(scenario, real, alloc)
    if alloc.scheme is Scheme.NOMA:
        return noma_rates(scenario, real, alloc)[0]
    return semi_rates(scenario, real, alloc)
