import csv
import math
import sys

import numpy as np
import pytest

from sembit import boundary, rates, search
from sembit import (
    Allocation,
    ChannelRealization,
    DomainMismatch,
    EmptyRegion,
    InfeasibleTarget,
    RegionBoundary,
    Scenario,
    Scheme,
    check_containment,
    derive_seed,
    eval_similarity,
    lemma1_bounds,
    noma_boundary,
    noma_power_floor,
    noma_sigma_min,
    oma_extremes,
    rates_for,
    required_power_for_similarity,
    sample_realization,
    snr_db,
)
from sembit.cli import _VERIFY_RTOL
from sembit.rates import (
    ALLOC_FIELDS,
    EPS_BANDS,
    eps_seeded_bands,
    orth_inv_slope,
    overlay_inv_slope,
    rates_rows,
    sem_power,
    water_fill_max_grid,
)
from sembit.search import DEFAULT_GRID_N

from onerow import (
    _oma_points,
    _points,
    _semi_points,
    solve_noma_point,
    solve_oma_point,
    solve_semi_point,
    sweep_boundary,
)
from pipes import clean_rate, pipe_rate


class TestExtremes:
    def test_bandwidth_limited(self, scenario, realization):
        ext = oma_extremes(scenario, realization)
        assert not ext.power_limited
        eps_full = eval_similarity(
            scenario.logistic,
            snr_db(scenario.max_power, realization.gain_s, 1e6, scenario.noise_psd),
        )
        assert ext.sigma_max == pytest.approx(1e6 * eps_full / 4, rel=1e-12)
        assert ext.r_max == pytest.approx(
            clean_rate(1e6, 1.0, realization.gain_b, scenario.noise_psd), rel=1e-12
        )

    def test_power_limited(self, scenario, realization):
        tight = scenario.with_updates(max_power=1e-4)
        ext = oma_extremes(tight, realization)
        assert ext.power_limited
        assert 0 < ext.sigma_max < oma_extremes(scenario, realization).sigma_max
        # The reported intercept uses a band the budget lifts exactly to the
        # floor: reconstruct that band and check its power need is the budget.
        w_reach = ext.sigma_max * tight.k / tight.min_similarity
        need = required_power_for_similarity(
            tight.logistic, tight.min_similarity, w_reach, realization.gain_s, tight.noise_psd
        )
        assert need == pytest.approx(tight.max_power, rel=1e-9)

    def test_floor_above_ceiling(self, scenario, realization):
        hopeless = scenario.with_updates(min_similarity=0.93)  # ceiling is 0.918
        ext = oma_extremes(hopeless, realization)
        assert ext.power_limited
        assert ext.sigma_max == 0.0
        assert ext.r_max > 0.0

    @pytest.mark.parametrize(
        "floor, max_power, share",
        [(0.8, 1.0, 1.0), (0.0, 1.0, 1.0), (0.93, 1.0, 0.0), (0.8, 1e-4, None)],
        ids=["bandwidth-limited", "floor-under-a_low", "floor-above-ceiling", "power-limited"],
    )
    def test_intercepts_are_the_rates_of_their_corners(
        self, scenario, realization, floor, max_power, share
    ):
        # The semantic corner spends the whole budget on min(W, P / p_unit):
        # the full band, the full band again at a floor under a_low (free),
        # none at a floor above the ceiling, else the band the budget lifts
        # to the floor.
        tight = scenario.with_updates(min_similarity=floor, max_power=max_power)
        ext = oma_extremes(tight, realization)
        w, p = tight.total_bandwidth, tight.max_power
        assert ext.power_limited is (ext.w_sem < w)
        if share is None:
            assert 0.0 < ext.w_sem < w
        else:
            assert ext.w_sem == share * w
        corner = Allocation(Scheme.OMA, w_sem=ext.w_sem, w_bit=w - ext.w_sem, p_sem=p)
        sem = rates_for(tight, realization, corner)
        bit = rates_for(tight, realization, Allocation(Scheme.OMA, w_bit=w, p_bit_orth=p))
        assert (ext.sigma_max, ext.r_max) == (sem.sem_rate, bit.bit_rate)


class TestIntercepts:
    """Each scheme's semantic intercept is its corner allocation, with one similarity for all."""

    def test_last_rows_agree_on_default_draws(self, scenario):
        # A boundary's last row does not depend on the point count: oma's
        # is the oma_extremes corner at sigma_max, noma's spends the whole
        # budget on the semantic stream, and semi's row at sigma_max is
        # what its target alone gives.  So two points per boundary suffice.
        overlays = 0
        for seed in range(200):
            real = sample_realization(scenario, seed)
            found, empty = boundary.trace_region(scenario, real, list(Scheme), n_points=2)
            oma, semi = (found[s] for s in (Scheme.OMA, Scheme.SEMI))
            assert oma.similarity[-1] > 0.0
            if empty is not None:
                assert _columns(semi)[:, -1].tolist() == _columns(oma)[:, -1].tolist()
                continue
            overlays += 1
            noma = found[Scheme.NOMA]
            assert _columns(noma)[:, -1].tolist() == _columns(oma)[:, -1].tolist()
            # Semi may take the noma corner that sem_power rebuilds at
            # sigma_max, with a few ulps of the budget left for bits.
            assert semi.sigma[-1] == oma.sigma[-1]
            ulps = semi.similarity[-1:].view(np.int64) - oma.similarity[-1:].view(np.int64)
            assert abs(ulps.item()) <= 4
            assert 0.0 <= semi.bit_rate[-1] < 1e-3
        assert overlays == 198

    def test_power_limited_intercept_is_solved(self, scenario):
        real = sample_realization(scenario, 4)
        ext = oma_extremes(scenario, real)
        assert ext.power_limited
        rows = _oma_points(scenario, real, np.array([0.0, ext.sigma_max]), DEFAULT_GRID_N)
        assert rows.solved.all()
        corner = (rows.w_sem[1], rows.p_sem[1], rows.bit_rate[1])
        assert corner == (ext.w_sem, scenario.max_power, 0.0)
        assert rows.similarity[1] == pytest.approx(scenario.min_similarity, rel=1e-12)


class TestLemma1Bounds:
    def test_interval(self, scenario):
        # The band starts where the required similarity sigma*k/w falls to
        # the curve ceiling (0.918 at k=4), not where it falls to 1.
        w_low, w_up = lemma1_bounds(scenario, 150e3, scenario.min_similarity)
        assert w_low == pytest.approx(600e3 / scenario.logistic.a_high)
        assert w_up == pytest.approx(750e3)

    def test_cap_at_carrier(self, scenario):
        floor = scenario.min_similarity
        w_low, w_up = lemma1_bounds(scenario, 220e3, floor)
        assert w_low == pytest.approx(880e3 / scenario.logistic.a_high)
        assert w_up == 1e6
        # 920 kHz of band at similarity 1 needs the ceiling even on the full
        # band: the interval is the carrier alone.
        assert lemma1_bounds(scenario, 230e3, floor) == (1e6, 1e6)

    @pytest.mark.parametrize("k", [3, 4, 7])
    def test_bands_below_the_interval_cost_infinite_power(self, scenario, realization, k):
        # Every band in [sigma*k, sigma*k/a_high) needs a similarity at or
        # above the ceiling, so the interval leaves out no finite candidate.
        sc = scenario.with_updates(k=k)
        top = sc.total_bandwidth * sc.logistic.a_high / k
        sigma = np.array([1e-3, 1.0, 25e3, 0.5 * top, top * (1 - 1e-12)])
        w_low = lemma1_bounds(sc, sigma, 0.0)[0]
        w_need = sigma * k
        assert (w_need < w_low).all()
        bands = w_need[:, None] + np.linspace(0.0, 1.0, 257) * (w_low - w_need)[:, None]
        bands[:, -1] = np.nextafter(w_low, 0.0)
        assert (bands < w_low[:, None]).all()
        assert np.isposinf(sem_power(sc, realization.gain_s, sigma[:, None], 0.0, bands)).all()
        assert np.isfinite(sem_power(sc, realization.gain_s, sigma, 0.0, w_low * (1 + 1e-9))).all()

    def test_zero_target_collapses(self, scenario):
        assert lemma1_bounds(scenario, 0.0, scenario.min_similarity) == (0.0, 0.0)

    def test_no_floor_means_full_upper(self, scenario):
        _, w_up = lemma1_bounds(scenario, 150e3, 0.0)
        assert w_up == 1e6

    def test_tiny_target_keeps_a_minimum_band(self, scenario):
        # sigma*k = 4e-300 Hz would put the band's noise power w * N0 deep
        # among the subnormal numbers.
        assert lemma1_bounds(scenario, 1e-300, scenario.min_similarity) == (1e-3, 1e-3)

    def test_infeasible_target(self, scenario):
        with pytest.raises(InfeasibleTarget):
            # needs 1.04 MHz at similarity 1
            lemma1_bounds(scenario, 260e3, scenario.min_similarity)

    def test_negative_target(self, scenario):
        with pytest.raises(ValueError):
            lemma1_bounds(scenario, -1.0, scenario.min_similarity)

    @pytest.mark.parametrize("floor", [0.0, 0.8, 1.0 - 1e-12, "per target"])
    def test_array_equals_scalar_calls(self, scenario, rng, floor):
        top = scenario.total_bandwidth / scenario.k
        sigma = np.concatenate([[0.0, 1e-300, top], rng.uniform(0.0, top, 300)])
        sigma[rng.integers(3, len(sigma), 30)] = 0.0
        if floor == "per target":
            floor = rng.choice([0.0, -0.0, 1e-300, 0.5, 0.8, 1.0 - 1e-12], len(sigma))
        lo, hi = lemma1_bounds(scenario, sigma, floor)
        floors = np.broadcast_to(floor, sigma.shape).tolist()
        scalar = [lemma1_bounds(scenario, x, f) for x, f in zip(sigma.tolist(), floors)]
        assert {type(v) for pair in scalar for v in pair} == {float}
        np.testing.assert_array_equal(np.column_stack([lo, hi]), scalar)

    def test_array_raises_like_scalar(self, scenario):
        floor = scenario.min_similarity
        with pytest.raises(InfeasibleTarget, match="semantic rate 270000 needs at least 1.08e"):
            lemma1_bounds(scenario, np.array([0.0, 100e3, 260e3, 270e3]), floor)
        with pytest.raises(ValueError, match="non-negative"):
            lemma1_bounds(scenario, np.array([100e3, -1.0]), floor)
        assert lemma1_bounds(scenario, np.array([]), floor)[0].shape == (0,)


class TestEpsSeededBands:
    @pytest.mark.parametrize("floor", [0.0, 0.19, 0.8, "per target"])
    def test_rows_lie_in_the_interval_and_meet_their_similarity(
        self, scenario, realization, rng, floor
    ):
        top = scenario.total_bandwidth * scenario.logistic.a_high / scenario.k
        sigma = rng.uniform(0.01, 1.0, 300) * top
        if floor == "per target":
            floor = rng.choice([0.0, 0.1, 0.172, 0.19, 0.5, 0.8, 0.9175, 0.95], len(sigma))
        bands = eps_seeded_bands(scenario, sigma, floor)
        assert bands.shape == (len(sigma), EPS_BANDS)
        floors = np.broadcast_to(floor, sigma.shape)
        for i in range(0, len(sigma), 23):
            one = eps_seeded_bands(scenario, sigma[i : i + 1], floors[i])
            np.testing.assert_array_equal(bands[i], one[0])
        # Inside the Lemma-1 interval, but for the ulp each band is rounded up.
        lo, hi = lemma1_bounds(scenario, sigma, floor)
        assert (bands >= lo[:, None]).all()
        assert (bands <= hi[:, None] * (1 + 4 * np.finfo(float).eps)).all()
        # Where neither the floor nor the full band asks for more than the
        # curve floor, the first seed is the band whose semantic power is 0.
        w_need = sigma * scenario.k
        free = np.maximum(floors, w_need / scenario.total_bandwidth) <= scenario.logistic.a_low
        p_first = sem_power(scenario, realization.gain_s, sigma, floors, bands[:, 0])
        assert (p_first[free] == 0.0).all()
        assert (p_first[~free] > 0.0).all()
        assert free.any() == (floors.min() < scenario.logistic.a_low)


class TestOmaPoint:
    def test_zero_target_is_bit_intercept(self, scenario, realization):
        pt = solve_oma_point(scenario, realization, 0.0)
        ext = oma_extremes(scenario, realization)
        assert pt.bit_rate == pytest.approx(ext.r_max, rel=1e-12)
        assert pt.alloc.w_bit == 1e6
        assert pt.alloc.p_sem == 0.0

    def test_allocation_consistent_and_meets_target(self, scenario, realization):
        sigma = 120e3
        pt = solve_oma_point(scenario, realization, sigma)
        assert pt.alloc is not None
        pt.alloc.check_budget(scenario)
        pair = rates_for(scenario, realization, pt.alloc)
        assert pair.sem_rate >= sigma * (1 - 1e-9)
        assert pair.similarity >= scenario.min_similarity * (1 - 1e-12)
        assert pair.bit_rate == pytest.approx(pt.bit_rate, rel=1e-12)

    def test_boundary_decreases_with_target(self, scenario, realization):
        sigmas = [0.0, 50e3, 100e3, 150e3, 200e3]
        rates = [solve_oma_point(scenario, realization, s).bit_rate for s in sigmas]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_unreachable_target_scores_zero(self, scenario, realization):
        tight = scenario.with_updates(max_power=1e-5)
        pt = solve_oma_point(tight, realization, 200e3)
        assert pt.bit_rate == 0.0
        assert pt.alloc is None

    def test_matches_two_axis_brute_force(self, scenario, realization):
        # Independent check: enumerate (semantic band, semantic power) on a
        # dense grid and keep the best feasible bit rate.
        sigma = 120e3
        w = scenario.total_bandwidth
        p = scenario.max_power
        n0 = scenario.noise_psd
        ws = np.linspace(sigma * scenario.k, w, 400)[:, None]
        ps = np.linspace(0.0, p, 400)[None, :]
        with np.errstate(divide="ignore"):
            gamma = 10.0 * np.log10(ps * realization.gain_s / (ws * n0))
        eps = eval_similarity(scenario.logistic, gamma)
        feasible = (ws * eps / scenario.k >= sigma) & (eps >= scenario.min_similarity)
        w_bit = w - ws
        bit = np.where(
            w_bit > 0, w_bit * np.log1p((p - ps) * realization.gain_b / np.maximum(w_bit, 1.0) / n0) / math.log(2), 0.0
        )
        brute = float(np.max(np.where(feasible, bit, 0.0)))
        solved = solve_oma_point(scenario, realization, sigma).bit_rate
        assert solved >= brute * (1 - 1e-6)
        assert solved == pytest.approx(brute, rel=0.02)


class TestNomaClosedForm:
    def test_sigma_min_default(self, scenario):
        assert noma_sigma_min(scenario) == pytest.approx(200e3, rel=1e-12)

    def test_sigma_min_uses_curve_floor_when_constraint_slack(self, scenario):
        slack = scenario.with_updates(min_similarity=0.1)
        a_low = scenario.logistic.a_low
        assert noma_sigma_min(slack) == pytest.approx(1e6 * a_low / 4, rel=1e-12)

    def test_sigma_min_empty_when_floor_above_ceiling(self, scenario):
        with pytest.raises(EmptyRegion):
            noma_sigma_min(scenario.with_updates(min_similarity=0.93))

    def test_point_matches_manual_formula(self, scenario, realization):
        sigma = 210e3
        pt = solve_noma_point(scenario, realization, sigma)
        eps_need = sigma * scenario.k / 1e6  # 0.84, above the 0.8 floor
        p_s = required_power_for_similarity(
            scenario.logistic, eps_need, 1e6, realization.gain_s, scenario.noise_psd
        )
        g_eff = realization.gain_eff
        expect = 1e6 * math.log2(
            1.0 + (1.0 - p_s) * g_eff / (p_s * g_eff + 1e6 * scenario.noise_psd)
        )
        assert pt.bit_rate == pytest.approx(expect, rel=1e-12)
        assert pt.similarity == pytest.approx(eps_need, rel=1e-12)
        assert pt.alloc.w_shared == 1e6
        assert pt.alloc.total_power == pytest.approx(1.0, rel=1e-12)

    def test_floor_binds_below_sigma_min(self, scenario, realization):
        # Any target under sigma_min still pays the similarity-floor power.
        lo = solve_noma_point(scenario, realization, 50e3)
        mid = solve_noma_point(scenario, realization, 150e3)
        assert lo.alloc.p_sem == mid.alloc.p_sem
        assert lo.bit_rate == mid.bit_rate
        assert lo.similarity == pytest.approx(scenario.min_similarity, rel=1e-12)

    def test_infeasible_targets(self, scenario, realization):
        over_ceiling = solve_noma_point(scenario, realization, 230e3)  # needs eps 0.92
        assert over_ceiling.alloc is None
        tight = scenario.with_updates(max_power=1e-6)
        starved = solve_noma_point(tight, realization, 210e3)
        assert starved.alloc is None


class TestNomaBoundary:
    def test_sweep_shape(self, scenario, realization):
        b = noma_boundary(scenario, realization, n_points=100)
        assert b.scheme is Scheme.NOMA
        assert len(b.points) == 100
        assert b.points[0].similarity == pytest.approx(scenario.min_similarity, rel=1e-9)
        assert b.points[0].sem_rate == pytest.approx(noma_sigma_min(scenario), rel=1e-9)
        assert np.all(np.diff(b.sigma) > 0)
        assert np.all(np.diff(b.bit_rate) < 0)
        assert b.points[-1].bit_rate == 0.0  # all power on the semantic stream
        with pytest.raises(ValueError, match="n_points must be at least 1"):
            noma_boundary(scenario, realization, n_points=0)

    def test_power_limited_draw_raises(self, scenario):
        weak = ChannelRealization(gain_s=1e-13, gain_b=1e-9)
        with pytest.raises(EmptyRegion, match="power-limited"):
            noma_boundary(scenario.with_updates(max_power=1e-4), weak)

    def test_unreachable_floor_raises(self, scenario, realization):
        with pytest.raises(EmptyRegion, match=r"^similarity floor 0\.93 is unreachable \(curve"):
            noma_boundary(scenario.with_updates(min_similarity=0.93), realization)

    def test_power_floor_value(self, scenario, realization):
        p = noma_power_floor(scenario, realization)
        assert p == pytest.approx(
            required_power_for_similarity(
                scenario.logistic, 0.8, 1e6, realization.gain_s, scenario.noise_psd
            )
        )


class TestWaterFillMax:
    """``water_fill_max_grid`` on pipes of gain-over-noise slope h, inverse slope 1/h."""

    def test_interior_split_equalises_marginals(self):
        h_m, h_b, w_m, w_b, budget = 2.0, 5.0, 2e5, 8e5, 3.0
        p_m, p_b = water_fill_max_grid(w_m, 1 / h_m, w_b, 1 / h_b, budget)
        assert p_m > 0 and p_b > 0
        assert p_m + p_b == pytest.approx(budget, rel=1e-12)
        dm = w_m * h_m / (1.0 + p_m * h_m)
        db = w_b * h_b / (1.0 + p_b * h_b)
        assert dm == pytest.approx(db, rel=1e-9)

    def test_corner_pins_weak_pipe_to_zero(self):
        p_m, p_b = water_fill_max_grid(1e5, 1 / 1e-6, 9e5, 1 / 1e3, 1e-3)
        assert p_m == 0.0
        assert p_b == pytest.approx(1e-3, rel=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            h_m = float(rng.lognormal(0.0, 2.0))
            h_b = float(rng.lognormal(0.0, 2.0))
            w_m = float(rng.uniform(1e4, 9e5))
            w_b = float(rng.uniform(1e4, 9e5))
            budget = float(rng.uniform(0.1, 5.0))
            p_m, p_b = water_fill_max_grid(w_m, 1 / h_m, w_b, 1 / h_b, budget)
            got = w_m * np.log2(1 + p_m * h_m) + w_b * np.log2(1 + p_b * h_b)
            split = np.linspace(0.0, 1.0, 100_001)
            rates = w_m * np.log2(1 + split * budget * h_m) + w_b * np.log2(
                1 + (1 - split) * budget * h_b
            )
            assert got >= float(rates.max()) * (1 - 1e-9)

    def test_zero_budget(self):
        assert water_fill_max_grid(1e5, 1.0, 1e5, 1.0, 0.0) == (0.0, 0.0)

    def test_bad_inputs(self):
        # A dead pipe, of zero width and zero inverse slope, gets no power,
        # and the live one takes the whole budget.
        assert water_fill_max_grid(0.0, 0.0, 1e5, 1.0, 1.0) == (0.0, 1.0)
        assert water_fill_max_grid(1e5, 1.0, 0.0, 0.0, 1.0) == (1.0, 0.0)


class TestSemiPoint:
    def test_zero_target_is_bit_intercept(self, scenario, realization):
        pt = solve_semi_point(scenario, realization, 0.0)
        assert pt.bit_rate == pytest.approx(
            oma_extremes(scenario, realization).r_max, rel=1e-12
        )

    def test_dominates_both_pure_schemes(self, scenario):
        # Corner seeding makes this an exact >=, not an approximate one.
        for seed in range(1, 6):
            real = sample_realization(scenario, seed)
            ext = oma_extremes(scenario, real)
            for frac in (0.2, 0.5, 0.8):
                sigma = frac * ext.sigma_max
                r_semi = solve_semi_point(scenario, real, sigma, grid_n=128).bit_rate
                r_oma = solve_oma_point(scenario, real, sigma, grid_n=128).bit_rate
                r_noma = solve_noma_point(scenario, real, sigma).bit_rate
                assert r_semi >= r_oma
                assert r_semi >= r_noma

    def test_allocation_consistent_and_meets_target(self, scenario, realization):
        sigma = 180e3
        pt = solve_semi_point(scenario, realization, sigma)
        assert pt.alloc is not None
        pt.alloc.check_budget(scenario)
        pair = rates_for(scenario, realization, pt.alloc)
        assert pair.sem_rate >= sigma * (1 - 1e-9)
        assert pair.similarity >= scenario.min_similarity * (1 - 1e-12)
        assert pair.bit_rate == pytest.approx(pt.bit_rate, rel=1e-12)

    def test_interior_beats_both_corners_on_asymmetric_draw(self, scenario, realization):
        # The hybrid's value proposition: strictly better than either corner
        # somewhere in the middle of the semantic-rate range.
        sigma = 150e3
        r_semi = solve_semi_point(scenario, realization, sigma).bit_rate
        r_oma = solve_oma_point(scenario, realization, sigma).bit_rate
        r_noma = solve_noma_point(scenario, realization, sigma).bit_rate
        assert r_semi > max(r_oma, r_noma) * (1 + 1e-9)

    def test_infeasible_target(self, scenario, realization):
        tight = scenario.with_updates(max_power=1e-6)
        pt = solve_semi_point(tight, realization, 200e3)
        assert pt.bit_rate == 0.0
        assert pt.alloc is None


class TestSweepBoundary:
    def test_oma_sweep_monotone(self, scenario, realization):
        b = sweep_boundary(scenario, realization, Scheme.OMA, n_points=40, grid_n=128)
        assert b.points[0].sem_rate == 0.0
        assert b.points[0].bit_rate == pytest.approx(
            oma_extremes(scenario, realization).r_max, rel=1e-12
        )
        assert np.all(np.diff(b.sigma) > 0)
        assert np.all(np.diff(b.bit_rate) <= 0)

    def test_semi_dominates_oma_on_shared_grid(self, scenario, realization):
        b_oma = sweep_boundary(scenario, realization, Scheme.OMA, n_points=25, grid_n=128)
        b_semi = sweep_boundary(scenario, realization, Scheme.SEMI, n_points=25, grid_n=128)
        np.testing.assert_array_equal(b_oma.sigma, b_semi.sigma)
        assert np.all(b_semi.bit_rate >= b_oma.bit_rate)

    def test_noma_sweep_delegates(self, scenario, realization):
        via_sweep = sweep_boundary(scenario, realization, Scheme.NOMA, n_points=50)
        direct = noma_boundary(scenario, realization, n_points=50)
        np.testing.assert_array_equal(via_sweep.sigma, direct.sigma)
        np.testing.assert_array_equal(via_sweep.bit_rate, direct.bit_rate)

    def test_scheme_accepts_string(self, scenario, realization):
        b = sweep_boundary(scenario, realization, "oma", n_points=5, grid_n=64)
        assert b.scheme is Scheme.OMA

    def test_csv_round_trip(self, scenario, realization, tmp_path):
        b = sweep_boundary(scenario, realization, Scheme.OMA, n_points=10, grid_n=64)
        path = tmp_path / "boundary.csv"
        b.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "bit_rate", "similarity"]
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_array_equal(parsed[:, 0], b.sigma)
        np.testing.assert_array_equal(parsed[:, 1], b.bit_rate)


def _boundary(scheme, pairs):
    sigma, bit_rate = np.array(pairs, dtype=float).T
    return RegionBoundary(scheme, sigma, bit_rate, np.full(len(pairs), 0.8))


class TestBatchedPoints:
    """Batched boundary points equal one-sigma calls exactly."""

    @pytest.mark.parametrize("seed", [7, 4])  # 4 is a power-limited draw
    @pytest.mark.parametrize(
        "scheme, solve, solve_rows",
        [
            (Scheme.OMA, solve_oma_point, _oma_points),
            (Scheme.SEMI, solve_semi_point, _semi_points),
        ],
    )
    def test_sweep_equals_one_sigma_calls(
        self, scenario, monkeypatch, seed, scheme, solve, solve_rows
    ):
        real = sample_realization(scenario, seed)
        assert oma_extremes(scenario, real).power_limited is (seed == 4)
        sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 30)
        single = [solve(scenario, real, float(s), 64) for s in sigma]
        rates = np.array([p.bit_rate for p in single])

        rows = _points(scheme, solve_rows(scenario, real, sigma, 64), sigma)
        np.testing.assert_array_equal([p.bit_rate for p in rows], rates)
        np.testing.assert_array_equal(
            [p.similarity for p in rows], [p.similarity for p in single]
        )
        assert [p.alloc for p in rows] == [p.alloc for p in single]
        # A batch's similarities come from one curve call; the scalar
        # plug-back of each winning allocation is the reference.
        solved = [p for p in rows if p.alloc is not None]
        assert len(solved) > 1
        assert [p.similarity for p in solved] == [
            rates_for(scenario, real, p.alloc).similarity for p in solved
        ]

        # Seven rows per batch: the sweep spans five batches, the last short.
        monkeypatch.setattr(search, "BATCH_CANDIDATES", 7 * 64)
        swept = boundary._lifted(scheme, sigma, solve_rows(scenario, real, sigma, 64))
        best = [i + int(np.argmax(rates[i:])) for i in range(len(sigma))]
        np.testing.assert_array_equal(swept.bit_rate, rates[best])
        np.testing.assert_array_equal(
            [p.similarity for p in swept.points], [single[j].similarity for j in best]
        )

    @pytest.mark.parametrize("seed", [7, 4])  # 4 is a power-limited draw
    def test_default_region_rows_equal_one_sigma_calls(self, scenario, seed):
        # A default region searches its rows in batches of more than 100;
        # each lifted row is still the one-sigma solve at its target.
        real = sample_realization(scenario, seed)
        found, _ = boundary.trace_region(scenario, real, list(Scheme))
        assert len(found[Scheme.SEMI].sigma) > search.BATCH_CANDIDATES // (2 * 64 + 2)
        for scheme, solve in ((Scheme.OMA, solve_oma_point), (Scheme.SEMI, solve_semi_point)):
            region = found[scheme]
            rates = np.array([solve(scenario, real, float(s)).bit_rate for s in region.sigma])
            lifted = np.maximum.accumulate(rates[::-1])[::-1]
            np.testing.assert_array_equal(region.bit_rate, lifted)

    def test_noma_rows_equal_one_sigma_calls(self, scenario, realization):
        sigma = np.linspace(0.0, 260e3, 27)  # crosses the overlay's feasible range
        rows = _points(Scheme.NOMA, boundary._noma_points(scenario, realization, sigma), sigma)
        assert rows == [solve_noma_point(scenario, realization, float(s)) for s in sigma]
        assert rows[0].alloc is not None and rows[-1].alloc is None
        solved = [p for p in rows if p.alloc is not None]
        assert [p.similarity for p in solved] == [
            rates_for(scenario, realization, p.alloc).similarity for p in solved
        ]


def _full_oma_score(scenario, real, s_col, ws):
    """The oma objective as it scored every candidate, over budget or not."""
    w, p_max, floor = scenario.total_bandwidth, scenario.max_power, scenario.min_similarity
    p_req = sem_power(scenario, real.gain_s, s_col, floor, ws)
    w_bit = w - ws
    p_bit = np.where(p_req <= p_max, p_max - p_req, 0.0)
    return pipe_rate(w_bit, p_bit, orth_inv_slope(w_bit, real.gain_b, scenario.noise_psd))


def _full_semi_score(scenario, real, s_col, wm):
    """The semi objective as it scored every candidate, over budget or not.

    The rest of the budget is split by the clamped water-fill and each
    pipe's rate taken on its own.
    """
    n0 = scenario.noise_psd
    p_s = sem_power(scenario, real.gain_s, s_col, scenario.min_similarity, wm)
    feasible = p_s <= scenario.max_power
    p_s = np.where(feasible, p_s, 0.0)
    w_b = scenario.total_bandwidth - wm
    inv_m = overlay_inv_slope(wm, p_s, real.gain_eff, n0)
    inv_b = orth_inv_slope(w_b, real.gain_b, n0)
    budget = np.maximum(scenario.max_power - p_s, 0.0)
    p_bm, p_bo = water_fill_max_grid(wm, inv_m, w_b, inv_b, budget)
    rate = pipe_rate(wm, p_bm, inv_m) + pipe_rate(w_b, p_bo, inv_b)
    return np.where(feasible, rate, 0.0)


def _row_kinds(scenario, real, s_col, x):
    """Per row of candidates ``x``: all over budget, all within it, or mixed."""
    p_s = sem_power(scenario, real.gain_s, s_col, scenario.min_similarity, x)
    live = p_s <= scenario.max_power
    return [("dead", "mixed", "live")[int(a) + int(b)] for a, b in zip(live.any(1), live.all(1))]


class TestLiveOnlyScores:
    """The full-width boundary scores against scoring every candidate as before.

    The oma score is bit for bit the reference's.  The semi score's
    closed-form water-fill rounds differently from the reference's
    clamped split through two pipe rates: near a zero budget the rate is
    about 1e-6 bit/s and its relative error large, while its absolute
    error stays about 1e-15 of the row's best.  So each semi score lies
    within 1e-12 of its row's largest reference score.
    """

    @pytest.mark.parametrize("seed", [7, 4])  # 4 is a power-limited draw
    def test_scores_equal_full_grid_scoring(self, scenario, monkeypatch, seed):
        real = sample_realization(scenario, seed)
        full = {"_oma_points": _full_oma_score, "_semi_points": _full_semi_score}
        scores = {}
        kinds = set()
        original = boundary.search_rows

        def spy(objective, *args, **kw):
            owner = objective.__qualname__.split(".")[0]
            scores[owner] = objective

            def checked(s_col, x):
                got = objective(s_col, x)
                _assert_scores(owner, got, full[owner](scenario, real, s_col, x))
                kinds.update(_row_kinds(scenario, real, s_col, x))
                return got

            return original(checked, *args, **kw)

        monkeypatch.setattr(boundary, "search_rows", spy)
        sigma_max = oma_extremes(scenario, real).sigma_max
        boundary.trace_region(scenario, real, ["oma", "semi"], n_points=40, grid_n=64)
        assert set(scores) == set(full)  # the spy saw both searches
        assert kinds == {"dead", "live", "mixed"}

        # Rows past the region's edge score nothing; thin bands are dead flanks.
        s_col = np.linspace(0.0, 1.3 * sigma_max, 27)[:, None]
        x = np.tile(np.geomspace(1e-300, scenario.total_bandwidth, 300), (len(s_col), 1))
        assert {"dead", "mixed"} <= set(_row_kinds(scenario, real, s_col, x))
        for owner, score in scores.items():
            _assert_scores(owner, score(s_col, x), full[owner](scenario, real, s_col, x))


def _assert_scores(owner, got, want):
    """Oma scores equal ``want``; semi scores lie within 1e-12 of their row's largest."""
    if owner == "_oma_points":
        np.testing.assert_array_equal(got, want)
        return
    tol = 1e-12 * want.max(axis=1, keepdims=True)
    assert (np.abs(got - want) <= tol).all(), np.max(np.abs(got - want) / np.maximum(tol, 1e-300))


class TestSimilarityColumn:
    """Every boundary row's SNR and similarity are the scalar ``snr_db`` path's, bit for bit."""

    def test_rows_equal_the_scalar_snr_path(self, scenario, monkeypatch):
        # rates.rates_rows, which boundary._columns calls, takes one np.log10
        # over its SNR ratio array, and snr_db takes the same log of one
        # ratio; math.log10 differs by one ulp on some inputs.
        seen, snrs = [], []
        columns, curve = boundary._columns, rates.eval_similarity

        def columns_spy(*args):
            rows = columns(*args)
            seen.append((sys._getframe(1).f_code.co_name, args[1], snrs.pop(), rows))
            return rows

        def curve_spy(params, snr):
            if sys._getframe(2).f_code.co_name == "_columns":
                snrs.append(snr)
            return curve(params, snr)

        monkeypatch.setattr(boundary, "_columns", columns_spy)
        monkeypatch.setattr(rates, "eval_similarity", curve_spy)
        for seed in range(10):
            boundary.trace_region(scenario, sample_realization(scenario, seed), list(Scheme))
        params, n0 = scenario.logistic, scenario.noise_psd
        kinds = set()
        for caller, real, snr, rows in seen:
            band = rows.w_shared + rows.w_sem
            live = rows.solved & (band > 0)
            want = [snr_db(p, real.gain_s, w, n0) for w, p in zip(band[live].tolist(), rows.p_sem[live].tolist())]
            # The curve sees every row; rows without a semantic stream are masked to 0.
            np.testing.assert_array_equal(snr[live].view(np.int64), np.array(want).view(np.int64))
            eps = np.zeros(len(band))
            eps[live] = [eval_similarity(params, x) for x in want]
            np.testing.assert_array_equal(rows.similarity.view(np.int64), eps.view(np.int64))
            for ok, p in zip(rows.solved, rows.p_sem):
                kinds.add((caller, "unsolved" if not ok else "zero power" if p == 0 else "solved"))
        callers = ("_oma_points", "_overlay_rows", "_semi_points")
        assert {(c, "solved") for c in callers} <= kinds
        assert {k for _, k in kinds} == {"solved", "unsolved", "zero power"}


class TestRowsPlugBack:
    """Every solved region row, plugged back through ``rates_rows``, meets its own target."""

    def test_region_rows_meet_their_targets(self, scenario):
        # The rows trace_region solves: oma, noma and semi on the hybrid's
        # grid, the uniform grid merged with the overlay's sigmas.
        w, p_max, floor = scenario.total_bandwidth, scenario.max_power, scenario.min_similarity
        checked = 0
        for seed in range(10):
            real = sample_realization(scenario, seed)
            sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)
            found, empty = boundary.trace_region(scenario, real, [Scheme.NOMA])
            if empty is None:
                sigma = np.unique(np.concatenate([sigma, found[Scheme.NOMA].sigma]))
            bands = boundary._seeds(scenario, sigma)
            ext = oma_extremes(scenario, real)
            oma = boundary._oma_points(scenario, real, sigma, DEFAULT_GRID_N, bands, ext)
            noma = boundary._noma_points(scenario, real, sigma)
            semi = boundary._semi_points(scenario, real, sigma, DEFAULT_GRID_N, bands, oma, noma)
            for rows in (oma, noma, semi):
                ok = rows.solved
                alloc = np.array([getattr(rows, f)[ok] for f in ALLOC_FIELDS])
                gains = real.gain_s, real.gain_b, real.gain_eff
                sem, bit, eps = rates_rows(scenario, *gains, alloc)
                assert (sem >= sigma[ok] * (1 - _VERIFY_RTOL)).all()
                # Every semantic stream carries the floor, a zero target's too.
                streams = alloc[0] + alloc[1] > 0.0
                assert (eps[streams] >= floor * (1 - _VERIFY_RTOL)).all()
                assert (alloc[3] + alloc[4] + alloc[5] <= p_max * (1 + 1e-9)).all()
                np.testing.assert_allclose(alloc[0] + alloc[1] + alloc[2], w, rtol=1e-9)
                # Each reported row is the plug-back of its own allocation.
                np.testing.assert_array_equal(bit, rows.bit_rate[ok])
                np.testing.assert_array_equal(eps, rows.similarity[ok])
                checked += int(ok.sum())
        assert checked > 5000

    def test_overlay_sweep_rows_are_rates_rows_of_their_allocations(self, scenario):
        # noma_boundary's points: full band, semantic power from the floor's
        # to the budget, the rest superposed for the bit stream.
        w, p_max = scenario.total_bandwidth, scenario.max_power
        for seed in range(10):
            real = sample_realization(scenario, seed)
            if oma_extremes(scenario, real).power_limited:
                continue
            b = noma_boundary(scenario, real, 200)
            p_s = np.linspace(noma_power_floor(scenario, real), p_max, 200)
            zero = np.zeros_like(p_s)
            alloc = np.array([zero + w, zero, zero, p_s, p_max - p_s, zero])
            sem, bit, eps = rates_rows(scenario, real.gain_s, real.gain_b, real.gain_eff, alloc)
            np.testing.assert_array_equal(_columns(b), np.array([sem, bit, eps]))


def _columns(b):
    """A boundary's (sigma, bit rate, similarity) columns."""
    return np.array([b.sigma, b.bit_rate, b.similarity])


class TestTraceRegion:
    """One region solves oma once and matches the one-scheme sweeps exactly."""

    @pytest.mark.parametrize("seed", [7, 4])  # 4 is a power-limited draw
    @pytest.mark.parametrize(
        "schemes", [["oma", "noma", "semi"], ["oma", "semi"], ["semi"], ["noma", "semi"]]
    )
    def test_equals_standalone_sweeps(self, scenario, seed, schemes):
        real = sample_realization(scenario, seed)
        found, empty = boundary.trace_region(scenario, real, schemes, n_points=40, grid_n=64)
        assert set(found) | ({Scheme.NOMA} if empty else set()) == set(map(Scheme, schemes))
        assert (empty is not None) is (seed == 4 and "noma" in schemes)
        grid = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 40)
        if Scheme.NOMA in found:
            grid = np.unique(np.concatenate([grid, found[Scheme.NOMA].sigma]))
            assert len(grid) > 40
            np.testing.assert_array_equal(
                _columns(found[Scheme.NOMA]), _columns(noma_boundary(scenario, real, 40))
            )
        expect = {
            Scheme.OMA: sweep_boundary(scenario, real, Scheme.OMA, n_points=40, grid_n=64),
            Scheme.SEMI: boundary._lifted(
                Scheme.SEMI, grid, _semi_points(scenario, real, grid, 64)
            ),
        }
        for scheme in set(found) - {Scheme.NOMA}:
            np.testing.assert_array_equal(_columns(found[scheme]), _columns(expect[scheme]))

    @pytest.mark.parametrize("seed", [7, 4])  # 4 is a power-limited draw
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_sweep_boundary_is_one_scheme_region(self, scenario, seed, scheme):
        # A one-scheme region is that scheme of the region of all schemes.
        # The overlay's sigmas join the hybrid's grid, so the hybrid is
        # compared with the region that leaves the overlay out.
        real = sample_realization(scenario, seed)
        found, empty = boundary.trace_region(scenario, real, [scheme], n_points=40, grid_n=64)
        assert (empty is not None) == ((seed, scheme) == (4, Scheme.NOMA))
        others = [Scheme.OMA, Scheme.SEMI] if scheme is Scheme.SEMI else list(Scheme)
        whole, whole_empty = boundary.trace_region(scenario, real, others, n_points=40, grid_n=64)
        if empty is not None:
            assert scheme not in found and str(whole_empty) == str(empty)
            return
        assert found[scheme].scheme is scheme
        np.testing.assert_array_equal(_columns(found[scheme]), _columns(whole[scheme]))

    @pytest.mark.parametrize("seed, oma_calls, hybrid_calls", [(7, 2, 1), (4, 2, 2)])
    def test_default_region_search_count(
        self, scenario, monkeypatch, seed, oma_calls, hybrid_calls
    ):
        # Coarse phase: the hybrid search cuts the rows it needs into batches
        # of 184 rows of 89 candidates: the hybrid's grid but the zero
        # target, less the rows where the noma corner is provably optimal.
        # On seed 7 that is 174 of its 399 rows (224 certified), in 1 batch;
        # on the power-limited seed 4, with no overlay, all 199 of its 200
        # rows, in 2.  The oma search cuts the rows it needs into batches of
        # 186 rows of 88: the uniform rows but the zero target, and the knot
        # rows the overlay does not provably beat (none on seed 7), 199 rows
        # in 2, and there is no second oma pass.  Bracket phase: one
        # 17-point batch per search, one objective call for each of its 6
        # levels; 15 (16) objective calls in all.
        tie_highs, objective_calls = [], []
        original = boundary.search_rows

        def counting(objective, *args, **kwargs):
            tie_highs.append(kwargs.get("tie_high", False))

            def counted(s_col, x):
                objective_calls.append(x.shape[1])
                return objective(s_col, x)

            return original(counted, *args, **kwargs)

        monkeypatch.setattr(boundary, "search_rows", counting)
        real = sample_realization(scenario, seed)
        boundary.trace_region(scenario, real, ["oma", "noma", "semi"])
        # The oma search, then the hybrid search, each coarse phase first.
        assert tie_highs == [False, True]
        coarse, bracket = DEFAULT_GRID_N + EPS_BANDS, [2 * boundary.SEARCH_ZOOM + 1] * 6
        oma, hybrid = [coarse] * oma_calls, [coarse + 1] * hybrid_calls
        assert objective_calls == [*oma, *bracket, *hybrid, *bracket]
        assert len(objective_calls) == oma_calls + hybrid_calls + 2 * 6
        assert objective_calls.count(2 * boundary.SEARCH_ZOOM + 1) == 2 * 6


def _random_scenarios(n, seed, floors=(0.0, 0.9), distances=(5.0, 60.0), budgets=(0.03, 3.0)):
    """``n`` scenarios: k 3-7, and the floor, both distances (m) and a log-uniform budget (W)."""
    rng = np.random.default_rng(seed)
    return [
        Scenario(
            k=int(rng.integers(3, 8)),
            min_similarity=float(rng.uniform(*floors)),
            d_s=float(rng.uniform(*distances)),
            d_b=float(rng.uniform(*distances)),
            max_power=math.exp(rng.uniform(*map(math.log, budgets))),
        )
        for _ in range(n)
    ]


def _oma_calls(monkeypatch):
    """The (sigma, need, rows) of every ``_oma_points`` call made while the list is live."""
    calls = []
    original = boundary._oma_points

    def spy(scenario, real, sigma, grid_n, bands, ext, need=None):
        rows = original(scenario, real, sigma, grid_n, bands, ext, need)
        calls.append((sigma, need, rows))
        return rows

    monkeypatch.setattr(boundary, "_oma_points", spy)
    return calls


class TestOmaCertificate:
    """A region searches an oma row only where an output can use it.

    The overlay's bit rate above ``_oma_rate_bound``, the bit rate of all
    the budget on the widest bit band Lemma 1 leaves, proves that no
    orthogonal split at that target can win semi's fold.
    """

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("schemes", [list(Scheme), ["semi"]])
    def test_bound_caps_every_oma_row_and_skips_only_beaten_rows(self, monkeypatch, seed, schemes):
        calls = _oma_calls(monkeypatch)
        skipped = 0
        for i, scenario in enumerate(_random_scenarios(8, seed)):
            real = sample_realization(scenario, derive_seed(seed, i))
            boundary.trace_region(scenario, real, schemes)
            sigma, need, rows = calls.pop()
            bound = boundary._oma_rate_bound(scenario, real, sigma)
            # Every row a full search solves stays at or below the bound.
            full = _oma_points(scenario, real, sigma, DEFAULT_GRID_N)
            assert (full.bit_rate[full.solved] <= bound[full.solved]).all()
            # A skipped row is unsolved, and the overlay beats its bound.
            noma = boundary._noma_points(scenario, real, sigma)
            assert (noma.bit_rate[~need] > bound[~need]).all()
            assert not rows.solved[~need].any() and not rows.bit_rate[~need].any()
            assert np.isnan(rows.w_sem[~need]).all()
            # A searched row is the full search's, bit for bit.
            for field in ("bit_rate", "similarity", *ALLOC_FIELDS):
                np.testing.assert_array_equal(getattr(rows, field)[need], getattr(full, field)[need])
            if Scheme.OMA in map(Scheme, schemes):
                # oma.csv reports the uniform rows: none is skipped.
                uniform = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)
                assert not np.isin(sigma[~need], uniform).any()
            skipped += int((~need).sum())
        assert skipped > 0

    @pytest.mark.parametrize("schemes", [["semi"], ["oma", "semi"], list(Scheme)])
    def test_region_equals_a_trace_that_searches_every_oma_row(
        self, scenario, monkeypatch, schemes
    ):
        # Seeds 0-9 of the default scenario (4 is power-limited) and random scenarios.
        cases = [(scenario, sample_realization(scenario, seed)) for seed in range(10)]
        for i, other in enumerate(_random_scenarios(6, 11)):
            cases.append((other, sample_realization(other, derive_seed(11, i))))
        calls = _oma_calls(monkeypatch)
        skipping = [boundary.trace_region(sc, real, schemes) for sc, real in cases]
        # Without the overlay, every oma row is a uniform one, which oma.csv reports.
        skipped = sum(int((~need).sum()) for _, need, _ in calls)
        assert (skipped > 0) is (schemes != ["oma", "semi"])
        def no_bound(scenario, real, sigma):
            return np.full(len(sigma), np.inf)

        monkeypatch.setattr(boundary, "_oma_rate_bound", no_bound)
        calls.clear()
        for (sc, real), (found, empty) in zip(cases, skipping):
            want, want_empty = boundary.trace_region(sc, real, schemes)
            assert str(empty) == str(want_empty) and set(found) == set(want)
            for scheme in want:
                np.testing.assert_array_equal(_columns(found[scheme]), _columns(want[scheme]))
        assert all(need.all() for _, need, _ in calls)

    def test_share_of_certified_knot_rows(self, scenario, monkeypatch):
        # Default regions at seeds 0-39: the bound certifies 7,363 of the
        # 7,761 oma rows at the overlay's knots, 48.5% of all oma rows.
        calls = _oma_calls(monkeypatch)
        for seed in range(40):
            boundary.trace_region(scenario, sample_realization(scenario, seed), list(Scheme))
        knots = sum(len(sigma) - 200 for sigma, _, _ in calls)
        certified = sum(int((~need).sum()) for _, need, _ in calls)
        assert (knots, certified) == (7761, 7363)
        assert certified / sum(len(sigma) for sigma, _, _ in calls) == pytest.approx(0.467, abs=5e-4)


def _wide_scenarios(n, seed):
    """``n`` scenarios: k 3-7, floor 0-0.9, distances 2-80 m, budget log-uniform 0.01-10 W."""
    return _random_scenarios(n, seed, distances=(2.0, 80.0), budgets=(0.01, 10.0))


def _semi_calls(monkeypatch):
    """The (args, rows) of every ``_semi_points`` call made while the list is live."""
    calls = []
    original = boundary._semi_points

    def spy(*args):
        rows = original(*args)
        calls.append((args, rows))
        return rows

    monkeypatch.setattr(boundary, "_semi_points", spy)
    return calls


def _no_certificate(scenario, real, sigma, beats):
    return np.zeros(len(sigma), bool)


def _hybrid_slope(scenario, real, s, x):
    """The both-open hybrid objective's slope f'(x) * ln2 = A(x) + B(e) at band x, e = s*k/x."""
    params = scenario.logistic
    a_low, a_high = params.a_low, params.a_high
    w, p_max, n0 = scenario.total_bandwidth, scenario.max_power, scenario.noise_psd
    c = math.log(10.0) / (10.0 * params.growth)
    k_m, k_b = n0 / real.gain_eff, n0 / real.gain_b
    e = s * scenario.k / x
    odds = (e - a_low) / (a_high - e)
    q = real.gain_eff / real.gain_s * math.exp(-c * params.offset) * odds**c
    eta = c * e * (a_high - a_low) / ((e - a_low) * (a_high - e))
    a = w * (k_m - k_b) / (p_max + w * k_b + x * (k_m - k_b)) + math.log(k_b / k_m)
    return a + eta * q / (1.0 + q) - math.log1p(q)


class TestNomaCertificate:
    """A region searches a semi row only where the noma corner is not provably its optimum.

    ``_noma_optimal`` bounds the slope of the hybrid objective from below,
    in closed form, over cells of required similarity; where the bound is
    non-negative up to the full band, no shared band beats the overlay.
    """

    @pytest.mark.parametrize(
        "make, seed",
        [(_random_scenarios, 0), (_random_scenarios, 1), (_random_scenarios, 2),
         (_wide_scenarios, 3), (_wide_scenarios, 4), (_wide_scenarios, 5)],
    )
    def test_no_certified_row_beats_the_noma_corner_when_searched(self, monkeypatch, make, seed):
        calls = _semi_calls(monkeypatch)
        certified = 0
        for i, scenario in enumerate(make(8, seed)):
            real = sample_realization(scenario, derive_seed(seed, i))
            boundary.trace_region(scenario, real, list(Scheme))
            if not calls:
                continue
            (sc, rl, sigma, grid_n, bands, oma, noma, cert), rows = calls.pop()
            full = boundary._semi_points(sc, rl, sigma, grid_n, bands, oma, noma)
            # The unmasked search finds nothing above the corner, and a
            # certified row is the corner, bit for bit.
            assert (full.bit_rate[cert] <= noma.bit_rate[cert] * (1.0 + 1e-12)).all()
            for field in ("bit_rate", "similarity", *ALLOC_FIELDS):
                got = getattr(rows, field)
                np.testing.assert_array_equal(got[cert], getattr(noma, field)[cert])
                np.testing.assert_array_equal(got[~cert], getattr(full, field)[~cert])
            certified += int(cert.sum())
        assert certified > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_slope_matches_a_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        checked = 0
        for i, scenario in enumerate(_wide_scenarios(40, seed)):
            real = sample_realization(scenario, derive_seed(seed, i))
            params, w = scenario.logistic, scenario.total_bandwidth
            e = rng.uniform(max(params.a_low, scenario.min_similarity), params.a_high)
            x = w * rng.uniform(0.2, 0.95)
            s = e * x / scenario.k
            h = 1e-5 * x
            xs = np.array([x - h, x, x + h])
            p_s = sem_power(scenario, real.gain_s, s, scenario.min_similarity, xs)
            inv_m = overlay_inv_slope(xs, p_s, real.gain_eff, scenario.noise_psd)
            inv_b = orth_inv_slope(w - xs, real.gain_b, scenario.noise_psd)
            p_m, _ = water_fill_max_grid(xs, inv_m, w - xs, inv_b, scenario.max_power - p_s)
            if not (p_s < scenario.max_power).all() or not (p_m > 0).all():
                continue  # over the budget, or the superposed pipe shuts
            f = rates.hybrid_max_rate(
                w, xs, p_s, scenario.max_power, real.gain_eff, real.gain_b, scenario.noise_psd
            )
            slope = (f[2] - f[0]) / (2 * h) * rates.LN2
            assert slope == pytest.approx(_hybrid_slope(scenario, real, s, x), rel=1e-5, abs=1e-9)
            checked += 1
        assert checked >= 10

    def test_slope_bound_alone_is_sound_where_the_overlay_fits(self):
        # Without the oma test, a row the slope bound passes still has no
        # band with both pipes open that beats W on a 4,001-point grid.  The
        # oma test leaves only rows whose e0 lies far above e* and whose
        # A(x) hardly varies; here low floors put e* = sqrt(a_low*a_high)
        # inside the cells, and far users at low SNR make A(x) =
        # W*(k_m - k_b)/T(x) + ln(k_b/k_m) vary over [w_low, W].
        certified = 0
        for seed in (0, 1):
            scenarios = _random_scenarios(40, seed, (0.0, 0.4), (2.0, 120.0), (1e-3, 10.0))
            for i, scenario in enumerate(scenarios):
                real = sample_realization(scenario, derive_seed(seed, i))
                w, p_max, n0 = scenario.total_bandwidth, scenario.max_power, scenario.noise_psd
                sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)
                fits = boundary._noma_points(scenario, real, sigma).bit_rate > 0.0
                for s in sigma[boundary._noma_optimal(scenario, real, sigma, fits)]:
                    x = np.linspace(lemma1_bounds(scenario, s, scenario.min_similarity)[0], w, 4001)
                    p_s = sem_power(scenario, real.gain_s, s, scenario.min_similarity, x)
                    f = rates.hybrid_max_rate(w, x, p_s, p_max, real.gain_eff, real.gain_b, n0)
                    inv_m = overlay_inv_slope(x, p_s, real.gain_eff, n0)
                    inv_b = orth_inv_slope(w - x, real.gain_b, n0)
                    with np.errstate(invalid="ignore"):
                        p_m, _ = water_fill_max_grid(x, inv_m, w - x, inv_b, p_max - p_s)
                    both_open = (p_s < p_max) & (p_m > 0.0)
                    assert (f[both_open] <= f[-1] * (1.0 + 1e-12)).all()
                    certified += 1
        assert certified == 1323

    def test_certifies_only_rows_the_overlay_beats_and_the_rate_target_binds(self):
        certified = 0
        for i, scenario in enumerate(_wide_scenarios(20, 6)):
            real = sample_realization(scenario, derive_seed(6, i))
            sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)
            noma = boundary._noma_points(scenario, real, sigma)
            beats = noma.bit_rate > boundary._oma_rate_bound(scenario, real, sigma) * (1 + 1e-12)
            cert = boundary._noma_optimal(scenario, real, sigma, beats)
            assert not (cert & ~beats).any()
            assert not boundary._noma_optimal(scenario, real, sigma, np.zeros_like(beats)).any()
            floor = max(scenario.min_similarity, scenario.logistic.a_low)
            assert not cert[sigma * scenario.k / scenario.total_bandwidth <= floor].any()
            certified += int(cert.sum())
        assert certified > 0

    @pytest.mark.parametrize("schemes", [["semi"], ["oma", "semi"], list(Scheme)])
    def test_region_equals_a_trace_that_searches_every_semi_row(
        self, scenario, monkeypatch, schemes
    ):
        # Seeds 0-9 of the default scenario (4 is power-limited) and random scenarios.
        cases = [(scenario, sample_realization(scenario, seed)) for seed in range(10)]
        for i, other in enumerate(_random_scenarios(6, 11)):
            cases.append((other, sample_realization(other, derive_seed(11, i))))
        calls = _semi_calls(monkeypatch)
        skipping = [boundary.trace_region(sc, real, schemes) for sc, real in cases]
        assert sum(int(args[-1].sum()) for args, _ in calls) > 0
        monkeypatch.setattr(boundary, "_noma_optimal", _no_certificate)
        for (sc, real), (found, empty) in zip(cases, skipping):
            want, want_empty = boundary.trace_region(sc, real, schemes)
            assert str(empty) == str(want_empty) and set(found) == set(want)
            for scheme in want:
                np.testing.assert_array_equal(_columns(found[scheme]), _columns(want[scheme]))

    def test_share_of_certified_semi_rows(self, scenario, monkeypatch):
        # Default regions at seeds 0-39: the certificate skips the search of
        # 8,270 of the 15,761 semi rows.
        calls = _semi_calls(monkeypatch)
        for seed in range(40):
            boundary.trace_region(scenario, sample_realization(scenario, seed), list(Scheme))
        rows = sum(len(args[2]) for args, _ in calls)
        certified = sum(int(args[-1].sum()) for args, _ in calls)
        assert (rows, certified) == (15761, 8270)

class TestContainment:
    def test_self_containment(self):
        b = _boundary(Scheme.OMA, [(0.0, 10.0), (1.0, 5.0), (2.0, 0.0)])
        verdict = check_containment(b, b)
        assert verdict.contained
        assert verdict.witness_sigma is None
        assert verdict.checked == 3

    def test_strictly_larger_outer(self):
        inner = _boundary(Scheme.OMA, [(0.0, 10.0), (1.0, 5.0), (2.0, 0.0)])
        outer = _boundary(Scheme.SEMI, [(0.0, 11.0), (1.0, 6.0), (2.0, 1.0)])
        assert check_containment(inner, outer).contained

    def test_violation_detected_with_witness(self):
        inner = _boundary(Scheme.SEMI, [(0.0, 10.0), (1.0, 8.0), (2.0, 0.0)])
        outer = _boundary(Scheme.OMA, [(0.0, 10.0), (1.0, 5.0), (2.0, 0.0)])
        verdict = check_containment(inner, outer)
        assert not verdict.contained
        assert verdict.witness_sigma == 1.0
        assert verdict.max_violation == pytest.approx(3.0 / 8.0)

    def test_range_miss_is_uncovered(self):
        inner = _boundary(Scheme.OMA, [(0.0, 10.0), (3.0, 1.0)])
        outer = _boundary(Scheme.NOMA, [(0.0, 12.0), (2.0, 2.0)])
        verdict = check_containment(inner, outer)
        assert not verdict.contained
        assert verdict.witness_sigma == 3.0
        assert verdict.max_violation == math.inf

    def test_disjoint_domains_raise(self):
        inner = _boundary(Scheme.OMA, [(0.0, 1.0), (1.0, 0.5)])
        outer = _boundary(Scheme.NOMA, [(5.0, 1.0), (6.0, 0.5)])
        with pytest.raises(DomainMismatch):
            check_containment(inner, outer)
        empty = RegionBoundary(Scheme.NOMA, *np.zeros((3, 0)))
        with pytest.raises(DomainMismatch, match="empty boundary"):
            check_containment(inner, empty)

    def test_tolerance_absorbs_tiny_dips(self):
        inner = _boundary(Scheme.OMA, [(0.0, 10.0), (1.0, 5.0)])
        outer = _boundary(Scheme.SEMI, [(0.0, 10.0 * (1 - 1e-8)), (1.0, 5.0)])
        assert check_containment(inner, outer, tol=1e-6).contained
