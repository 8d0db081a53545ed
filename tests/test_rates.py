import math

import numpy as np
import pytest

from sembit import (
    Allocation,
    PowerTargets,
    RatePair,
    Scheme,
    eval_similarity,
    rates_for,
    sample_realization,
    shannon_rate,
    snr_db,
    solve_min_powers,
    solve_noma_point,
    solve_oma_point,
    solve_semi_point,
)
from sembit.rates import ALLOC_FIELDS, overlay_inv_slope, pipe_rate


# The per-scheme rate functions rates_for replaced, kept as references.
def _semantic_outputs(scenario, gain, bandwidth, power):
    if bandwidth <= 0:
        return 0.0, 0.0
    eps = eval_similarity(
        scenario.logistic, snr_db(power, gain, bandwidth, scenario.noise_psd)
    )
    return eps, bandwidth * eps / scenario.k


def oma_rates(scenario, real, alloc):
    alloc.check_budget(scenario)
    eps, sem = _semantic_outputs(scenario, real.gain_s, alloc.w_sem, alloc.p_sem)
    bit = shannon_rate(alloc.w_bit, alloc.p_bit_orth, real.gain_b, scenario.noise_psd)
    return RatePair(sem_rate=sem, bit_rate=bit, similarity=eps)


def noma_rates(scenario, real, alloc):
    alloc.check_budget(scenario)
    w = alloc.w_shared
    n0 = scenario.noise_psd
    eps, sem = _semantic_outputs(scenario, real.gain_s, w, alloc.p_sem)
    p_b = alloc.p_bit_shared
    bit = float(pipe_rate(w, p_b, overlay_inv_slope(w, alloc.p_sem, real.gain_eff, n0)))
    return RatePair(sem_rate=sem, bit_rate=bit, similarity=eps)


def semi_rates(scenario, real, alloc):
    alloc.check_budget(scenario)
    n0 = scenario.noise_psd
    w_m = alloc.w_shared
    eps, sem = _semantic_outputs(scenario, real.gain_s, w_m, alloc.p_sem)
    inv_m = overlay_inv_slope(w_m, alloc.p_sem, real.gain_eff, n0)
    bit_shared = float(pipe_rate(w_m, alloc.p_bit_shared, inv_m))
    bit_orth = shannon_rate(alloc.w_bit, alloc.p_bit_orth, real.gain_b, n0)
    return RatePair(sem_rate=sem, bit_rate=bit_shared + bit_orth, similarity=eps)


REFERENCE = {Scheme.OMA: oma_rates, Scheme.NOMA: noma_rates, Scheme.SEMI: semi_rates}


def _random_allocations(scenario, rng, n):
    """``n`` allocations of each scheme that fit the budget, zero bands and powers included."""
    w, p_max = scenario.total_bandwidth, scenario.max_power

    def share(size):
        # A third exactly 0, a third exactly 1, the rest uniform.
        u = rng.uniform(size=size)
        return np.where(u < 1 / 3, 0.0, np.where(u < 2 / 3, 1.0, rng.uniform(size=size)))

    allocs = []
    for _ in range(n):
        band = float(share(1)[0]) * w
        p = (share(3) * rng.dirichlet(np.ones(3)) * p_max).tolist()
        allocs.append(Allocation.orthogonal(band, w - band, p[0], p[1]))
        allocs.append(Allocation.overlay(w, p[0], p[1]))
        allocs.append(Allocation.hybrid(band, w - band, *p))
    return allocs


class TestReferences:
    """rates_for equals the per-scheme functions it replaced, bit for bit."""

    def test_random_allocations(self, scenario, rng):
        for seed in (0, 3, 4, 7):
            real = sample_realization(scenario, seed)
            for alloc in _random_allocations(scenario, rng, 200):
                want = REFERENCE[alloc.scheme](scenario, real, alloc)
                assert repr(rates_for(scenario, real, alloc)) == repr(want), alloc

    def test_solver_allocations(self, scenario):
        triples = [
            PowerTargets(150e3, 0.8, 1e6),
            PowerTargets(0.0, 0.8, 2e6),
            PowerTargets(210e3, 0.5, 1e6),
        ]
        checked = {s: 0 for s in Scheme}
        for seed in (0, 3, 4, 7):
            real = sample_realization(scenario, seed)
            allocs = []
            for sigma in np.linspace(0.0, 220e3, 12).tolist():
                for solve in (solve_oma_point, solve_noma_point, solve_semi_point):
                    allocs.append((scenario, solve(scenario, real, sigma).alloc))
            for targets in triples:
                for sol in solve_min_powers(scenario, real, targets, 64).values():
                    # Minimum powers may exceed the budget; plug back under a larger one.
                    total = getattr(sol, "total", math.inf)
                    if math.isfinite(total):
                        probe = scenario.with_updates(max_power=max(2 * total, 1.0))
                        allocs.append((probe, sol.alloc))
            for probe, alloc in allocs:
                if alloc is None:
                    continue
                want = REFERENCE[alloc.scheme](probe, real, alloc)
                assert repr(rates_for(probe, real, alloc)) == repr(want), alloc
                checked[alloc.scheme] += 1
        assert min(checked.values()) >= 20, checked


class TestShannon:
    def test_hand_value(self):
        # SNR = 1 * 1e-9 / (1e6 * 1e-17) = 100
        rate = shannon_rate(1e6, 1.0, 1e-9, 1e-17)
        assert rate == pytest.approx(1e6 * math.log2(101.0), rel=1e-12)

    def test_degenerate_inputs_carry_nothing(self):
        assert shannon_rate(0.0, 1.0, 1e-9, 1e-17) == 0.0
        assert shannon_rate(1e6, 0.0, 1e-9, 1e-17) == 0.0

    def test_monotone_in_power_and_band(self):
        base = shannon_rate(1e6, 0.5, 1e-9, 1e-17)
        assert shannon_rate(1e6, 0.6, 1e-9, 1e-17) > base
        assert shannon_rate(1.2e6, 0.5, 1e-9, 1e-17) > base

    def test_snr_db(self):
        assert snr_db(1.0, 1e-9, 1e6, 1e-17) == pytest.approx(20.0, abs=1e-12)
        assert snr_db(0.0, 1e-9, 1e6, 1e-17) == -math.inf


class TestAllocation:
    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            Allocation.orthogonal(-1.0, 1e6, 0.1, 0.1)
        with pytest.raises(ValueError):
            Allocation.overlay(1e6, 0.1, -0.1)

    def test_constructors_route_fields(self):
        a = Allocation.orthogonal(3e5, 7e5, 0.2, 0.6)
        assert a.scheme is Scheme.OMA
        assert (a.w_shared, a.p_bit_shared) == (0.0, 0.0)
        assert a.total_bandwidth == 1e6
        assert a.total_power == pytest.approx(0.8)
        b = Allocation.overlay(1e6, 0.2, 0.6)
        assert b.scheme is Scheme.NOMA
        assert b.w_shared == 1e6
        c = Allocation.hybrid(4e5, 6e5, 0.2, 0.3, 0.4)
        assert c.scheme is Scheme.SEMI
        assert c.total_power == pytest.approx(0.9)

    def test_budget_check(self, scenario):
        Allocation.orthogonal(3e5, 7e5, 0.5, 0.5).check_budget(scenario)
        with pytest.raises(ValueError, match="bandwidth"):
            Allocation.orthogonal(3e5, 6e5, 0.5, 0.5).check_budget(scenario)
        with pytest.raises(ValueError, match="power"):
            Allocation.orthogonal(3e5, 7e5, 0.6, 0.6).check_budget(scenario)

    def test_budget_check_tolerates_rounding(self, scenario):
        w = scenario.total_bandwidth
        Allocation.orthogonal(w / 3, w - w / 3, 0.5, 0.5).check_budget(scenario)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ALLOC_FIELDS)
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Allocation(Scheme.SEMI, **{field: value})

    @pytest.mark.parametrize(
        "scheme, field",
        [
            (Scheme.OMA, "w_shared"),
            (Scheme.OMA, "p_bit_shared"),
            (Scheme.NOMA, "w_sem"),
            (Scheme.NOMA, "w_bit"),
            (Scheme.NOMA, "p_bit_orth"),
            (Scheme.SEMI, "w_sem"),
        ],
    )
    def test_unused_fields_rejected(self, scheme, field):
        with pytest.raises(ValueError, match=f"{field} must be 0 under scheme {scheme.value}"):
            Allocation(scheme, **{field: 1.0})
        Allocation(scheme, **{field: 0.0})


class TestOma:
    def test_composition(self, scenario, realization):
        alloc = Allocation.orthogonal(4e5, 6e5, 0.3, 0.7)
        pair = rates_for(scenario, realization, alloc)
        snr = snr_db(0.3, realization.gain_s, 4e5, scenario.noise_psd)
        eps = eval_similarity(scenario.logistic, snr)
        assert pair.similarity == pytest.approx(eps, rel=1e-12)
        assert pair.sem_rate == pytest.approx(4e5 * eps / scenario.k, rel=1e-12)
        assert pair.bit_rate == pytest.approx(
            shannon_rate(6e5, 0.7, realization.gain_b, scenario.noise_psd), rel=1e-12
        )

    def test_bit_only_corner(self, scenario, realization):
        alloc = Allocation.orthogonal(0.0, 1e6, 0.0, 1.0)
        pair = rates_for(scenario, realization, alloc)
        assert pair.sem_rate == 0.0
        assert pair.similarity == 0.0
        assert pair.bit_rate > 0.0

    def test_scheme_mismatch(self):
        # A shared band in a split would carry a semantic stream that a
        # split's rates never counted; it is rejected when built.
        with pytest.raises(ValueError, match="w_shared must be 0 under scheme oma"):
            Allocation(Scheme.OMA, w_shared=4e5, w_bit=6e5, p_sem=0.3, p_bit_orth=0.7)


class TestNoma:
    def test_bit_rate_uses_weaker_gain_with_interference(self, scenario, realization):
        alloc = Allocation.overlay(1e6, 0.3, 0.7)
        pair = rates_for(scenario, realization, alloc)
        g_eff = min(realization.gain_s, realization.gain_b)
        expect = 1e6 * math.log2(
            1.0 + 0.7 * g_eff / (0.3 * g_eff + 1e6 * scenario.noise_psd)
        )
        assert pair.bit_rate == pytest.approx(expect, rel=1e-12)
        # Clean own-signal decode at the bit user's own gain is never slower.
        assert shannon_rate(1e6, 0.7, realization.gain_b, scenario.noise_psd) >= pair.bit_rate

    def test_interference_hurts(self, scenario, realization):
        quiet = rates_for(scenario, realization, Allocation.overlay(1e6, 0.0, 0.7))
        loud = rates_for(scenario, realization, Allocation.overlay(1e6, 0.3, 0.7))
        assert loud.bit_rate < quiet.bit_rate

    def test_semantic_stream_sees_no_interference(self, scenario, realization):
        # The semantic receiver decodes last in the cancellation order.
        alone = rates_for(scenario, realization, Allocation.overlay(1e6, 0.3, 0.0))
        shared = rates_for(scenario, realization, Allocation.overlay(1e6, 0.3, 0.7))
        assert shared.sem_rate == alone.sem_rate
        assert shared.similarity == alone.similarity

    def test_zero_power_floor_still_reported(self, scenario, realization):
        # The overlay keeps the semantic stream on: at zero power the
        # similarity sits at the curve floor, not at zero.
        pair = rates_for(scenario, realization, Allocation.overlay(1e6, 0.0, 1.0))
        assert pair.similarity == scenario.logistic.a_low
        assert pair.sem_rate == pytest.approx(
            1e6 * scenario.logistic.a_low / scenario.k
        )


class TestSemi:
    def test_reduces_to_overlay_when_shared_band_is_all(self, scenario, realization):
        overlay = Allocation.overlay(1e6, 0.3, 0.7)
        hybrid = Allocation.hybrid(1e6, 0.0, 0.3, 0.7, 0.0)
        pair_o = rates_for(scenario, realization, overlay)
        pair_h = rates_for(scenario, realization, hybrid)
        assert pair_h.sem_rate == pair_o.sem_rate
        assert pair_h.bit_rate == pair_o.bit_rate
        assert pair_h.similarity == pair_o.similarity

    def test_reduces_to_orthogonal_when_no_shared_bit_power(self, scenario, realization):
        orth = Allocation.orthogonal(4e5, 6e5, 0.3, 0.7)
        hybrid = Allocation.hybrid(4e5, 6e5, 0.3, 0.0, 0.7)
        pair_o = rates_for(scenario, realization, orth)
        pair_h = rates_for(scenario, realization, hybrid)
        assert pair_h.sem_rate == pair_o.sem_rate
        assert pair_h.bit_rate == pair_o.bit_rate

    def test_bit_rate_adds_both_bands(self, scenario, realization):
        hybrid = Allocation.hybrid(4e5, 6e5, 0.2, 0.3, 0.5)
        pair = rates_for(scenario, realization, hybrid)
        g_eff = realization.gain_eff
        shared = 4e5 * math.log2(
            1.0 + 0.3 * g_eff / (0.2 * g_eff + 4e5 * scenario.noise_psd)
        )
        orth = shannon_rate(6e5, 0.5, realization.gain_b, scenario.noise_psd)
        assert pair.bit_rate == pytest.approx(shared + orth, rel=1e-12)

    def test_dispatcher_routes_by_scheme(self, scenario, realization):
        allocs = [
            Allocation.orthogonal(4e5, 6e5, 0.3, 0.7),
            Allocation.overlay(1e6, 0.3, 0.7),
            Allocation.hybrid(4e5, 6e5, 0.2, 0.3, 0.5),
        ]
        for alloc in allocs:
            pair = rates_for(scenario, realization, alloc)
            assert isinstance(pair, RatePair)
            assert pair.bit_rate > 0.0
