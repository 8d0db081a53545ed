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
        boundary.write_csvs([b], tmp_path)
        with open(tmp_path / "oma.csv", newline="") as fh:
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

        # A coarse batch holds 448 // 88 = 5 rows, so the oma sweep's 29
        # searched rows span 6 coarse batches, the last short; a bracket
        # batch holds 448 // 17 = 26 rows.
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

    # Seeds 7 and 4 (power-limited) leave every semi row to a certificate; 0 does not.
    @pytest.mark.parametrize("seed, searched", [(7, {"oma"}), (4, {"oma"}), (0, {"oma", "semi"})])
    def test_scores_equal_full_grid_scoring(self, scenario, monkeypatch, seed, searched):
        real = sample_realization(scenario, seed)
        scores, kinds, seen = [], set(), set()
        original = boundary.search_rows

        def spy(objective, *args, **kw):
            scores.append(objective)

            def checked(cols, x):
                got = objective(cols, x)
                _assert_stacked_scores(scenario, real, cols, x, got)
                seen.update(_ROW_SCHEMES[int(flag)] for flag in cols[:, 1])
                kinds.update(_row_kinds(scenario, real, cols[:, :1], x))
                return got

            return original(checked, *args, **kw)

        monkeypatch.setattr(boundary, "search_rows", spy)
        sigma_max = oma_extremes(scenario, real).sigma_max
        boundary.trace_region(scenario, real, ["oma", "semi"], n_points=40, grid_n=64)
        assert len(scores) == 1 and seen == searched
        assert kinds == {"dead", "live", "mixed"}

        # Rows past the region's edge score nothing; thin bands are dead flanks.
        # The same targets as oma rows, then as semi rows, in one call.
        s = np.linspace(0.0, 1.3 * sigma_max, 27)
        cols = np.column_stack([np.tile(s, 2), np.arange(54) < 27])
        x = np.tile(np.geomspace(1e-300, scenario.total_bandwidth, 300), (len(cols), 1))
        assert {"dead", "mixed"} <= set(_row_kinds(scenario, real, s[:, None], x[:27]))
        _assert_stacked_scores(scenario, real, cols, x, scores[0](cols, x))


# The scheme of a boundary search row, by its flag in the objective's row data.
_ROW_SCHEMES = {1: "oma", 0: "semi"}


def _assert_stacked_scores(scenario, real, cols, x, got):
    """The oma rows of ``cols`` (first) and its semi rows score as the full-grid references.

    The objective ``got`` is the negated bit rate, which the search minimises.
    """
    k = np.count_nonzero(cols[:, 1])
    s_col = cols[:, :1]
    got = -got
    _assert_scores("oma", got[:k], _full_oma_score(scenario, real, s_col[:k], x[:k]))
    _assert_scores("semi", got[k:], _full_semi_score(scenario, real, s_col[k:], x[k:]))


def _assert_scores(scheme, got, want):
    """Oma scores equal ``want``; semi scores lie within 1e-12 of their row's largest."""
    if scheme == "oma":
        np.testing.assert_array_equal(got, want)
        return
    if not got.size:
        return
    tol = 1e-12 * want.max(axis=1, keepdims=True)
    assert (np.abs(got - want) <= tol).all(), np.max(np.abs(got - want) / np.maximum(tol, 1e-300))


class TestStackedObjective:
    """One objective scores a batch's oma rows, then its semi rows, each row as if alone."""

    @pytest.mark.parametrize("seed", [0, 3, 4, 7])  # 4 is a power-limited draw
    def test_stacked_rows_score_as_each_kind_alone(self, scenario, seed):
        real = sample_realization(scenario, seed)
        w, p_max, n0 = scenario.total_bandwidth, scenario.max_power, scenario.noise_psd
        floor = scenario.min_similarity
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.0, oma_extremes(scenario, real).sigma_max, 40)
        lo = lemma1_bounds(scenario, s, floor)[0]
        x = lo[:, None] + (w - lo)[:, None] * rng.random((40, 88))
        cols = np.column_stack([s, np.arange(40) < 15])
        got = boundary._max_rate(scenario, real, cols, x)
        p_s = sem_power(scenario, real.gain_s, s[:, None], floor, x)
        oma = rates.orth_max_rate(w, x[:15], p_s[:15], p_max, real.gain_b, n0)
        semi = rates.hybrid_max_rate(w, x[15:], p_s[15:], p_max, real.gain_eff, real.gain_b, n0)
        # The search minimises, so the objective is the negated bit rate.
        np.testing.assert_array_equal(got, -np.concatenate([oma, semi]))
        assert (got[:15] < 0.0).any() and (got[15:] < 0.0).any()
        # A batch of one kind, or of one row, scores each row the same.
        for part in [slice(0, 15), slice(15, 40)] + [slice(r, r + 1) for r in range(0, 40, 3)]:
            alone = boundary._max_rate(scenario, real, cols[part], x[part])
            np.testing.assert_array_equal(alone, got[part])


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
            ext = oma_extremes(scenario, real)
            report = np.ones(len(sigma), bool)
            oma, semi = boundary._region_rows(
                scenario, real, sigma, DEFAULT_GRID_N, ext, report, True
            )
            noma = boundary._noma_points(scenario, real, sigma)
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

    @pytest.mark.parametrize("schemes", [["oma"], ["semi"], ["oma", "semi"], list(Scheme)])
    def test_one_search_per_region(self, scenario, monkeypatch, schemes):
        # Default seeds 0-4 and random scenarios: each region searches its
        # oma rows, then its semi rows, in one search_rows call.  A floor
        # above the curve's ceiling leaves no positive target, and no search.
        searched = []
        original = boundary.search_rows

        def spy(objective, cols, *args, **kwargs):
            searched.append(cols[:, 1].copy())
            return original(objective, cols, *args, **kwargs)

        monkeypatch.setattr(boundary, "search_rows", spy)
        cases = [(scenario, sample_realization(scenario, seed)) for seed in range(5)]
        for i, other in enumerate(_random_scenarios(6, 12)):
            cases.append((other, sample_realization(other, derive_seed(12, i))))
        searchless = 0
        for sc, real in cases:
            searched.clear()
            boundary.trace_region(sc, real, schemes)
            assert len(searched) <= 1
            searchless += not searched
            for oma_rows in searched:
                assert (np.diff(oma_rows) <= 0).all()
                assert oma_rows.all() or Scheme.SEMI in map(Scheme, schemes)
        # Semi alone reports no oma row, so a region whose every semi row a
        # certificate settles searches nothing: default seed 2 and the first
        # random scenario.
        assert searchless == (2 if schemes == ["semi"] else 0)
        searched.clear()
        hopeless = scenario.with_updates(min_similarity=0.93)
        boundary.trace_region(hopeless, sample_realization(hopeless, 0), schemes)
        assert searched == []

    @pytest.mark.parametrize("seed", [0, 3, 4, 7])  # 4 is a power-limited draw
    def test_oma_alone_equals_the_oma_of_every_scheme(self, scenario, seed):
        # The oma rows share their search with the semi rows, and no oma
        # row moves for it.
        real = sample_realization(scenario, seed)
        alone, _ = boundary.trace_region(scenario, real, ["oma"])
        every, _ = boundary.trace_region(scenario, real, list(Scheme))
        np.testing.assert_array_equal(_columns(alone[Scheme.OMA]), _columns(every[Scheme.OMA]))

    @pytest.mark.parametrize(
        "seed, oma_rows, hybrid_rows, coarse_calls",
        [(7, 199, 0, 2), (4, 199, 0, 2), (3, 199, 176, 3), (0, 199, 124, 2)],
    )
    def test_default_region_search_count(
        self, scenario, monkeypatch, seed, oma_rows, hybrid_rows, coarse_calls
    ):
        # One search per region, its oma rows first.  The oma rows: the
        # uniform rows but the zero target, and the knot rows that neither
        # the overlay provably beats nor the top certificate settles (none
        # on seeds 7, 3 and 0).  The hybrid rows: the hybrid's grid but the
        # zero target, less the rows a certificate settles.  Seed 7 searches
        # none of its 399 (224 at the top's noma corner, 173 at its kink, 1
        # over the budget), nor does the power-limited seed 4, whose 200
        # rows are all over it.  Coarse phase: batches of
        # 186 rows of 88 candidates.  Bracket phase: one 17-point batch,
        # one objective call for each of its 6 levels.
        searches, objective_calls = [], []
        original = boundary.search_rows

        def counting(objective, cols, *args, **kwargs):
            searches.append((np.count_nonzero(cols[:, 1]), np.count_nonzero(cols[:, 1] == 0)))

            def counted(c, x):
                objective_calls.append(x.shape[1])
                return objective(c, x)

            return original(counted, cols, *args, **kwargs)

        monkeypatch.setattr(boundary, "search_rows", counting)
        real = sample_realization(scenario, seed)
        boundary.trace_region(scenario, real, ["oma", "noma", "semi"])
        assert searches == [(oma_rows, hybrid_rows)]
        coarse, bracket = DEFAULT_GRID_N + EPS_BANDS, [2 * boundary.SEARCH_ZOOM + 1] * 6
        assert -(-(oma_rows + hybrid_rows) // (search.BATCH_CANDIDATES // coarse)) == coarse_calls
        assert objective_calls == [coarse] * coarse_calls + bracket
        # A region with no row to search makes no search: one point, the bit intercept.
        searches.clear()
        boundary.trace_region(scenario, real, ["oma"], n_points=1)
        assert searches == []


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

    def spy(scenario, real, sigma, ext, need, ws):
        rows = original(scenario, real, sigma, ext, need, ws)
        calls.append((sigma, need, rows))
        return rows

    monkeypatch.setattr(boundary, "_oma_points", spy)
    return calls


class TestOmaCertificate:
    """A region searches an oma row only where an output can use it.

    The overlay's bit rate above ``_oma_rate_bound``, the bit rate of all
    the budget on the widest bit band Lemma 1 leaves, proves that no
    orthogonal split at that target can win semi's fold; so does a semi
    row that ``_top_optimal`` certifies (see ``TestTopCertificate``).
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
            # A skipped row is unsolved, and the overlay beats its bound or
            # the semi row is certified at the top of its interval.
            noma = boundary._noma_points(scenario, real, sigma)
            top = boundary._top_optimal(scenario, real, sigma)
            assert ((noma.bit_rate > bound) | top)[~need].all()
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

        # Without the bound, only the oma rows of semi rows certified at the
        # top of their interval stay unsearched.
        monkeypatch.setattr(boundary, "_oma_rate_bound", no_bound)
        for (sc, real), (found, empty) in zip(cases, skipping):
            calls.clear()
            want, want_empty = boundary.trace_region(sc, real, schemes)
            assert str(empty) == str(want_empty) and set(found) == set(want)
            for scheme in want:
                np.testing.assert_array_equal(_columns(found[scheme]), _columns(want[scheme]))
            assert all((need | boundary._top_optimal(sc, real, sigma)).all()
                       for sigma, need, _ in calls)

    def test_share_of_certified_knot_rows(self, scenario, monkeypatch):
        # Default regions at seeds 0-39: the bound and the top certificate
        # skip 7,696 of the 7,761 oma rows at the overlay's knots, 48.8% of
        # all oma rows (the bound alone skipped 7,363).
        calls = _oma_calls(monkeypatch)
        for seed in range(40):
            boundary.trace_region(scenario, sample_realization(scenario, seed), list(Scheme))
        knots = sum(len(sigma) - 200 for sigma, _, _ in calls)
        certified = sum(int((~need).sum()) for _, need, _ in calls)
        assert (knots, certified) == (7761, 7696)
        assert certified / sum(len(sigma) for sigma, _, _ in calls) == pytest.approx(0.488, abs=5e-4)


def _wide_scenarios(n, seed):
    """``n`` scenarios: k 3-7, floor 0-0.9, distances 2-80 m, budget log-uniform 0.01-10 W."""
    return _random_scenarios(n, seed, distances=(2.0, 80.0), budgets=(0.01, 10.0))


# The semi certificates, in the order a region combines them.
CERTIFICATES = ("_top_optimal", "_over_budget")
_REGION_ROWS = boundary._region_rows


def _region_calls(monkeypatch):
    """The (args, oma, semi, masks) of every hybrid ``_region_rows`` call while the list is live.

    ``masks`` maps each of ``CERTIFICATES`` to the rows it certified in the call.
    """
    calls, masks = [], {}
    for name in CERTIFICATES:

        def certify(*args, name=name, original=getattr(boundary, name)):
            masks[name] = original(*args)
            return masks[name]

        monkeypatch.setattr(boundary, name, certify)

    def spy(*args):
        masks.clear()
        oma, semi = _REGION_ROWS(*args)
        if semi is not None:
            calls.append((args, oma, semi, dict(masks)))
        return oma, semi

    monkeypatch.setattr(boundary, "_region_rows", spy)
    return calls


def _searching(monkeypatch, args, names):
    """The semi rows of ``_region_rows(*args)`` with the certificates ``names`` certifying none."""
    with monkeypatch.context() as m:
        for name in names:
            m.setattr(boundary, name, _no_certificate)
        return _REGION_ROWS(*args)[1]


def _no_certificate(scenario, real, sigma, *_):
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


def _floor_slope(scenario, real, x):
    """The both-open hybrid objective's slope f'(x) * ln2 = A(x) - ln(1 + q(floor)) at a band x
    wide enough that the similarity floor binds."""
    params = scenario.logistic
    w, p_max, n0 = scenario.total_bandwidth, scenario.max_power, scenario.noise_psd
    c = math.log(10.0) / (10.0 * params.growth)
    k_m, k_b = n0 / real.gain_eff, n0 / real.gain_b
    odds = (scenario.min_similarity - params.a_low) / (params.a_high - scenario.min_similarity)
    q = real.gain_eff / real.gain_s * math.exp(-c * params.offset) * odds**c
    a = w * (k_m - k_b) / (p_max + w * k_b + x * (k_m - k_b)) + math.log(k_b / k_m)
    return a - math.log1p(q)


def _superposed_power(scenario, real, s, x):
    """The hybrid's semantic and water-filled superposed power at target ``s`` on bands ``x``."""
    w, n0 = scenario.total_bandwidth, scenario.noise_psd
    p_s = sem_power(scenario, real.gain_s, s, scenario.min_similarity, x)
    inv_m = overlay_inv_slope(x, p_s, real.gain_eff, n0)
    inv_b = orth_inv_slope(w - x, real.gain_b, n0)
    with np.errstate(invalid="ignore"):
        p_m, _ = water_fill_max_grid(x, inv_m, w - x, inv_b, scenario.max_power - p_s)
    return p_s, p_m


# The draws (CLI seeds) of the region-draws benchmark's pool, pool seed
# 20261017; the last three are power-limited.
POOL_SEEDS = [
    2133285130, 877225046, 3429641606, 1530262477, 913961778, 889990738, 1131197151, 43004848,
    2352899249, 4039403063, 4286207434, 1446972632, 441241113, 1164786922, 1983624303,
]


def _top_band(scenario, sigma):
    """The top of each target's Lemma 1 interval, x_t = min(sigma*k/floor, W), and whether it is the kink."""
    w, floor = scenario.total_bandwidth, scenario.min_similarity
    kink = sigma * scenario.k / w < floor
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(kink, sigma * scenario.k / floor, w), kink


# The scenario families that the certificate tests draw from.
FAMILIES = {
    "random": _random_scenarios,
    "wide": _wide_scenarios,
    "low-snr": lambda n, seed: _random_scenarios(n, seed, (0.0, 0.4), (2.0, 120.0), (1e-3, 10.0)),
}
_CERTIFIED_REGIONS = [("random", 0), ("random", 1), ("random", 2), ("wide", 3), ("wide", 4), ("wide", 5)]


class TestTopCertificate:
    """A region searches a semi row only where the top of its Lemma 1 interval is not provably optimal.

    ``_top_optimal`` bounds the slope of the hybrid objective from below,
    in closed form, over cells of required similarity, and requires the
    superposed pipe open at the top x_t = min(sigma*k/floor, W).  The
    objective then rises up to x_t and falls after it, and no orthogonal
    split beats x_t.  A certified row takes the noma corner where x_t = W,
    and the kink band sigma*k/floor, one ulp up, below it.
    """

    @pytest.mark.parametrize("family, seed", _CERTIFIED_REGIONS)
    def test_no_searched_band_beats_a_certified_row(self, monkeypatch, family, seed):
        calls = _region_calls(monkeypatch)
        corners = kinks = 0
        for i, scenario in enumerate(FAMILIES[family](8, seed)):
            real = sample_realization(scenario, derive_seed(seed, i))
            boundary.trace_region(scenario, real, list(Scheme))
            args, _, rows, masks = calls.pop()
            sc, rl, sigma = args[:3]
            top = masks["_top_optimal"]
            kink = top & _top_band(sc, sigma)[1]
            noma = boundary._noma_points(sc, rl, sigma)
            # Neither the search without certificates nor any oma row, all
            # of them searched, finds more than 1e-12 above a certified row.
            full = _searching(monkeypatch, args, CERTIFICATES)
            oma = _REGION_ROWS(*args[:5], np.ones(len(sigma), bool), False)[0]
            got = rows.bit_rate
            assert (full.bit_rate[top] <= got[top] * (1.0 + 1e-12)).all()
            assert (oma.bit_rate[top] <= got[top] * (1.0 + 1e-12)).all()
            # A certified row at the full band is the noma corner, bit for bit.
            corner = top & ~kink
            for field in ("bit_rate", "similarity", *ALLOC_FIELDS):
                np.testing.assert_array_equal(getattr(rows, field)[corner], getattr(noma, field)[corner])
            # A kink row shares its first similarity seed, the kink one ulp
            # up, unless the fold gives it the noma corner, the full band
            # (a kink within ulps of W).
            bands = eps_seeded_bands(sc, sigma[kink], sc.min_similarity)
            seeds = np.minimum(bands[:, 0], sc.total_bandwidth)
            shared = rows.w_shared[kink]
            assert ((shared == seeds) | (shared == noma.w_shared[kink])).all()
            assert (seeds == np.nextafter(sigma[kink] * sc.k / sc.min_similarity, np.inf)).all()
            # Every other row is that of a search that leaves out only the
            # over-budget rows.
            rest = _searching(monkeypatch, args, ["_top_optimal"])
            for field in ("bit_rate", "similarity", *ALLOC_FIELDS):
                np.testing.assert_array_equal(getattr(rows, field)[~top], getattr(rest, field)[~top])
            corners += int(corner.sum())
            kinks += int(kink.sum())
        # The eight wide regions of seeds 3 and 5 certify no kink row.
        assert corners > 0 and (kinks > 0 or family == "wide")

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_slope_matches_a_finite_difference(self, seed):
        # Below the top, where the rate target binds.
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
            p_s, p_m = _superposed_power(scenario, real, s, xs)
            if not (p_s < scenario.max_power).all() or not (p_m > 0).all():
                continue  # over the budget, or the superposed pipe shuts
            f = rates.hybrid_max_rate(
                w, xs, p_s, scenario.max_power, real.gain_eff, real.gain_b, scenario.noise_psd
            )
            slope = (f[2] - f[0]) / (2 * h) * rates.LN2
            assert slope == pytest.approx(_hybrid_slope(scenario, real, s, x), rel=1e-5, abs=1e-9)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("seed", range(3))
    def test_floor_piece_slope_matches_a_finite_difference(self, seed):
        # Above a kink top, where the similarity floor binds.
        rng = np.random.default_rng(seed)
        checked = 0
        for i, scenario in enumerate(_wide_scenarios(40, seed)):
            real = sample_realization(scenario, derive_seed(seed, i))
            floor, w = scenario.min_similarity, scenario.total_bandwidth
            if floor <= scenario.logistic.a_low:
                continue
            x_k = w * rng.uniform(0.1, 0.8)
            x = x_k + (w - x_k) * rng.uniform(0.1, 0.9)
            s = floor * x_k / scenario.k
            h = 1e-5 * x
            xs = np.array([x - h, x, x + h])
            p_s, p_m = _superposed_power(scenario, real, s, xs)
            if not (p_s < scenario.max_power).all() or not (p_m > 0).all():
                continue  # over the budget, or the superposed pipe shuts
            f = rates.hybrid_max_rate(
                w, xs, p_s, scenario.max_power, real.gain_eff, real.gain_b, scenario.noise_psd
            )
            slope = (f[2] - f[0]) / (2 * h) * rates.LN2
            assert slope == pytest.approx(_floor_slope(scenario, real, x), rel=1e-5, abs=1e-9)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("seed, count", [(0, 594), (1, 902)])
    def test_no_band_beats_the_top_on_a_dense_grid(self, seed, count):
        # Every band of a 4,001-point grid over [w_low, W] scores at most
        # the top's hybrid rate: both pipes open, the superposed pipe shut
        # (an orthogonal split) or over the budget.  Low floors put e* =
        # sqrt(a_low*a_high) inside the cells, and far users at low SNR
        # make A(x) = W*(k_m - k_b)/T(x) + ln(k_b/k_m) vary over [w_low, W].
        certified = 0
        for i, scenario in enumerate(FAMILIES["low-snr"](40, seed)):
            real = sample_realization(scenario, derive_seed(seed, i))
            w, p_max, n0 = scenario.total_bandwidth, scenario.max_power, scenario.noise_psd
            sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)
            top = boundary._top_optimal(scenario, real, sigma)
            for s, x_t in zip(sigma[top], _top_band(scenario, sigma)[0][top]):
                x = np.linspace(lemma1_bounds(scenario, s, scenario.min_similarity)[0], w, 4001)
                x = np.append(x, x_t)
                p_s = sem_power(scenario, real.gain_s, s, scenario.min_similarity, x)
                f = rates.hybrid_max_rate(w, x, p_s, p_max, real.gain_eff, real.gain_b, n0)
                assert (f <= f[-1] * (1.0 + 1e-12)).all()
                certified += 1
        assert certified == count

    @pytest.mark.parametrize("family", ["wide", "low-snr"])
    def test_top_rows_open_the_superposed_pipe_and_kinks_fall_past_it(self, family):
        # The water-fill at the top gives the superposed pipe power on every
        # certified row, and a row whose pipe shuts there, or whose top is
        # over the budget, is never certified.  Wherever the pipe is open
        # at a kink, certified or not, the objective falls past it, so the
        # certificate need not test that.
        certified = shut = opened = kinks = 0
        for i, scenario in enumerate(FAMILIES[family](30, 6)):
            real = sample_realization(scenario, derive_seed(6, i))
            sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)[1:]
            top = boundary._top_optimal(scenario, real, sigma)
            x_t, kink = _top_band(scenario, sigma)
            p_s, p_m = _superposed_power(scenario, real, sigma, x_t)
            fits = p_s < scenario.max_power
            assert (p_m[top] > 0.0).all() and fits[top].all()
            assert not top[(p_m == 0.0) | ~fits].any()
            # Where the floor is at most a_low, the power at the floor is 0.
            open_kinks = (p_m > 0.0) & fits & kink & (scenario.min_similarity > scenario.logistic.a_low)
            slopes = np.array([_floor_slope(scenario, real, x) for x in x_t[open_kinks]])
            assert (slopes < 0.0).all()
            certified += int(top.sum())
            kinks += int((top & kink).sum())
            shut += int(((p_m == 0.0) & fits).sum())
            opened += int(((p_m > 0.0) & fits).sum())
        assert kinks > 0 and shut > 0 and opened > certified > kinks

    @pytest.mark.parametrize("family", ["wide", "low-snr"])
    def test_certifies_only_where_the_similarity_is_above_the_curve_floor(self, family):
        # The top's similarity e_t = max(sigma*k/W, floor) must exceed
        # a_low, and the target must be positive.
        certified = excluded = 0
        for i, scenario in enumerate(FAMILIES[family](20, 6)):
            real = sample_realization(scenario, derive_seed(6, i))
            sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)
            top = boundary._top_optimal(scenario, real, sigma)
            e_t = np.maximum(sigma * scenario.k / scenario.total_bandwidth, scenario.min_similarity)
            free = (sigma == 0.0) | (e_t <= scenario.logistic.a_low)
            assert not top[free].any()
            certified += int(top.sum())
            excluded += int(free[1:].sum())
        assert certified > 0 and excluded > 0

    def test_certifies_rows_the_overlay_does_not_beat_the_oma_bound_on(self, scenario):
        # The default seed-0 region certifies 274 rows, none of which the
        # overlay beats ``_oma_rate_bound`` on: the certificate does not
        # need that bound, since the top beats every oma split itself.
        real = sample_realization(scenario, 0)
        found, _ = boundary.trace_region(scenario, real, list(Scheme))
        sigma = found[Scheme.SEMI].sigma
        top = boundary._top_optimal(scenario, real, sigma)
        noma = boundary._noma_points(scenario, real, sigma)
        beats = noma.bit_rate > boundary._oma_rate_bound(scenario, real, sigma) * (1.0 + 1e-12)
        assert (int(top.sum()), int((top & beats).sum())) == (274, 0)
        # The first such row: no band beats its top on a dense grid, and
        # neither does its searched oma split.
        s = sigma[np.argmax(top)]
        x_t = _top_band(scenario, np.array([s]))[0][0]
        w, p_max, n0 = scenario.total_bandwidth, scenario.max_power, scenario.noise_psd
        x = np.append(np.linspace(lemma1_bounds(scenario, s, scenario.min_similarity)[0], w, 4001), x_t)
        p_s = sem_power(scenario, real.gain_s, s, scenario.min_similarity, x)
        f = rates.hybrid_max_rate(w, x, p_s, p_max, real.gain_eff, real.gain_b, n0)
        assert (f <= f[-1] * (1.0 + 1e-12)).all()
        assert solve_oma_point(scenario, real, s).bit_rate < solve_semi_point(scenario, real, s).bit_rate

    @pytest.mark.parametrize("schemes", [["semi"], ["oma", "semi"], list(Scheme)])
    def test_region_equals_a_trace_that_searches_every_semi_row(
        self, scenario, monkeypatch, schemes
    ):
        # Default seeds 0-9 (7 has kink rows, 4 is power-limited) and
        # random scenarios, bit for bit, but on one kink row, seed 7's
        # uniform row 90.  Its search breaks a tie low and lands on
        # sigma*k/floor itself, one ulp under the kink band, which scores
        # exactly as much; their plug-backs differ by one ulp of the bit rate.
        cases = [(scenario, sample_realization(scenario, seed)) for seed in range(10)]
        for i, other in enumerate(_random_scenarios(6, 11)):
            cases.append((other, sample_realization(other, derive_seed(11, i))))
        calls = _region_calls(monkeypatch)
        skipping = [boundary.trace_region(sc, real, schemes) for sc, real in cases]
        assert sum(int(masks["_top_optimal"].sum()) for *_, masks in calls) > 0
        monkeypatch.setattr(boundary, "_top_optimal", _no_certificate)
        moved = []
        for case, ((sc, real), (found, empty)) in enumerate(zip(cases, skipping)):
            want, want_empty = boundary.trace_region(sc, real, schemes)
            assert str(empty) == str(want_empty) and set(found) == set(want)
            for scheme in want:
                got, ref = _columns(found[scheme]), _columns(want[scheme])
                rows = np.flatnonzero((got != ref).any(axis=0))
                moved += [(case, scheme, got[0, i], got[1, i], ref[1, i]) for i in rows]
                np.testing.assert_array_equal(np.delete(got, rows, 1), np.delete(ref, rows, 1))
        real = cases[7][1]
        s = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 200)[90]
        [(case, scheme, sigma, got, ref)] = moved
        assert (case, scheme, sigma) == (7, Scheme.SEMI, s)
        assert np.nextafter(got, np.inf) == ref
        x_k = s * scenario.k / scenario.min_similarity
        assert solve_semi_point(scenario, real, s).alloc.w_shared == x_k
        bands = np.array([[x_k, np.nextafter(x_k, np.inf)]])
        score = boundary._max_rate(scenario, real, np.array([[s, 0.0]]), bands)
        assert score[0, 0] == score[0, 1]

    @pytest.mark.parametrize(
        "seeds, counts",
        [(range(40), (15761, 14904, 6253, 223, 595)), (POOL_SEEDS, (5388, 4568, 1881, 606, 202))],
        ids=["default-0-39", "region-draws-pool"],
    )
    def test_share_of_certified_rows(self, scenario, monkeypatch, seeds, counts):
        # (rows, top rows, of which kink rows, over-budget rows, searched
        # rows).  Searched rows were 976 on seeds 0-39 and 210 on the pool
        # with separate noma-corner and kink certificates, which needed the
        # overlay to beat ``_oma_rate_bound`` at the noma corner; and 7,451
        # and 2,694 with the noma corner's certificate alone.
        calls = _region_calls(monkeypatch)
        for seed in seeds:
            boundary.trace_region(scenario, sample_realization(scenario, seed), list(Scheme))
        found = np.zeros(5, int)
        for args, _, _, masks in calls:
            sc, sigma = args[0], args[2]
            top, over = (masks[name] for name in CERTIFICATES)
            kink = top & _top_band(sc, sigma)[1]
            searched = (sigma != 0.0) & ~(top | over)
            found += [len(sigma), top.sum(), kink.sum(), over.sum(), searched.sum()]
        assert tuple(found) == counts


class TestOverBudgetCertificate:
    """``_over_budget`` proves the superposed pipe shut on every band when the overlay overspends.

    The hybrid is then an orthogonal split, and the row takes its oma row.
    """

    @pytest.mark.parametrize("family, seed", _CERTIFIED_REGIONS)
    def test_no_searched_band_beats_a_certified_row(self, monkeypatch, family, seed):
        calls = _region_calls(monkeypatch)
        certified = 0
        for i, scenario in enumerate(FAMILIES[family](8, seed)):
            real = sample_realization(scenario, derive_seed(seed, i))
            boundary.trace_region(scenario, real, list(Scheme))
            args, oma, rows, masks = calls.pop()
            over = masks["_over_budget"]
            full = _searching(monkeypatch, args, CERTIFICATES)
            # The full search finds nothing above a certified row by more
            # than 1e-12 of its rate, or of the boundary's maximum at a zero
            # rate: the semantic intercept of a power-limited draw, where a
            # search scores a band ulps under the corner's.
            got = rows.bit_rate
            slack = 1e-12 * np.where(got > 0.0, got, full.bit_rate.max())
            assert (full.bit_rate[over] <= (got + slack)[over]).all()
            # An over-budget row is its oma row, the semantic band shared.
            for field in ("bit_rate", "similarity", "w_bit", "p_sem", "p_bit_orth"):
                np.testing.assert_array_equal(getattr(rows, field)[over], getattr(oma, field)[over])
            np.testing.assert_array_equal(rows.w_shared[over], oma.w_sem[over])
            # Every other row is that of a search that leaves out only the
            # rows certified at the top.
            rest = _searching(monkeypatch, args, ["_over_budget"])
            for field in ("bit_rate", "similarity", *ALLOC_FIELDS):
                np.testing.assert_array_equal(getattr(rows, field)[~over], getattr(rest, field)[~over])
            certified += int(over.sum())
        assert certified > 0

    def test_over_budget_rows_shut_the_superposed_pipe_on_every_band(self):
        certified = 0
        for i, scenario in enumerate(_wide_scenarios(20, 7)):
            real = sample_realization(scenario, derive_seed(7, i))
            w = scenario.total_bandwidth
            sigma = np.linspace(0.0, oma_extremes(scenario, real).sigma_max, 50)
            over = boundary._over_budget(scenario, real, sigma)
            p_w = sem_power(scenario, real.gain_s, sigma, scenario.min_similarity, w)
            np.testing.assert_array_equal(over, p_w >= scenario.max_power * (1.0 + 1e-12))
            for s in sigma[over & (sigma > 0.0)]:
                x = np.linspace(lemma1_bounds(scenario, s, scenario.min_similarity)[0], w, 4001)
                p_s, p_m = _superposed_power(scenario, real, s, x)
                assert not p_m[p_s < scenario.max_power].any()
                certified += 1
        assert certified > 0

    @pytest.mark.parametrize("schemes", [["semi"], ["oma", "semi"], list(Scheme)])
    def test_region_equals_a_trace_that_searches_those_rows(self, scenario, monkeypatch, schemes):
        # Default seeds 0-9 (4 is power-limited) and random scenarios, bit for bit.
        cases = [(scenario, sample_realization(scenario, seed)) for seed in range(10)]
        for i, other in enumerate(_random_scenarios(6, 11)):
            cases.append((other, sample_realization(other, derive_seed(11, i))))
        calls = _region_calls(monkeypatch)
        skipping = [boundary.trace_region(sc, real, schemes) for sc, real in cases]
        assert sum(int(masks["_over_budget"].sum()) for *_, masks in calls) > 0
        monkeypatch.setattr(boundary, "_over_budget", _no_certificate)
        for (sc, real), (found, empty) in zip(cases, skipping):
            want, want_empty = boundary.trace_region(sc, real, schemes)
            assert str(empty) == str(want_empty) and set(found) == set(want)
            for scheme in want:
                np.testing.assert_array_equal(_columns(found[scheme]), _columns(want[scheme]))


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
