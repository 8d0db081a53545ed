import math

import numpy as np
import pytest

from sembit import (
    ChannelRealization,
    Infeasible,
    PowerTargets,
    RatePair,
    Scenario,
    Scheme,
    derive_seed,
    required_power_for_similarity,
    sample_realization,
    solve_min_powers,
)
from sembit import power, search
from sembit.cli import _verify_solutions
from sembit.power import (
    ALLOC_FIELDS,
    CAUSES,
    _row_set,
    _row_solutions,
    _total,
    solve_min_powers_rows,
)
from sembit.rates import (
    EPS_BANDS,
    eps_seeded_bands,
    orth_inv_slope,
    overlay_inv_slope,
    pipe_power,
    rates_rows,
    sem_power,
    water_fill_min_grid,
)

from onerow import min_power

TRIPLE = PowerTargets(sigma_target=100e3, min_similarity=0.8, bit_target=8e5)


def plug_back(scenario, real, sol):
    """Realised rates of a solved allocation, over the power budget or not."""
    w = scenario.total_bandwidth
    assert math.isclose(sol.alloc.total_bandwidth, w, rel_tol=1e-9, abs_tol=w * 1e-9)
    lines = np.array([[getattr(sol.alloc, f)] for f in ALLOC_FIELDS])
    columns = rates_rows(scenario, real.gain_s, real.gain_b, real.gain_eff, lines)
    return RatePair(*(c.item() for c in columns))


class TestTargets:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerTargets(-1.0, 0.8, 1e5)
        with pytest.raises(ValueError):
            PowerTargets(1e5, 1.0, 1e5)
        with pytest.raises(ValueError):
            PowerTargets(1e5, 0.8, -1.0)


class TestOmaMinPower:
    def test_bit_only_closed_form(self, scenario, realization):
        targets = PowerTargets(0.0, 0.8, 8e5)
        sol = min_power(Scheme.OMA, scenario, realization, targets)
        w = scenario.total_bandwidth
        expect = w * scenario.noise_psd / realization.gain_b * math.expm1(
            math.log(2.0) * 8e5 / w
        )
        assert sol.total == pytest.approx(expect, rel=1e-12)
        assert sol.alloc.w_sem == 0.0
        assert sol.alloc.w_bit == w

    def test_meets_all_targets(self, scenario, realization):
        sol = min_power(Scheme.OMA, scenario, realization, TRIPLE)
        pair = plug_back(scenario, realization, sol)
        assert pair.sem_rate >= TRIPLE.sigma_target * (1 - 1e-9)
        assert pair.similarity >= TRIPLE.min_similarity * (1 - 1e-9)
        assert pair.bit_rate >= TRIPLE.bit_target * (1 - 1e-9)
        assert sol.total == pytest.approx(sol.alloc.total_power, rel=1e-12)

    def test_no_slack_in_components(self, scenario, realization):
        # On the optimum both the similarity floor (or rate) and the bit
        # target bind exactly: power above the need would not be minimal.
        sol = min_power(Scheme.OMA, scenario, realization, TRIPLE)
        pair = plug_back(scenario, realization, sol)
        assert pair.bit_rate == pytest.approx(TRIPLE.bit_target, rel=1e-9)
        eps_need = max(
            TRIPLE.sigma_target * scenario.k / sol.alloc.w_sem, TRIPLE.min_similarity
        )
        assert pair.similarity == pytest.approx(eps_need, rel=1e-9)

    def test_monotone_in_each_target(self, scenario, realization):
        base = min_power(Scheme.OMA, scenario, realization, TRIPLE).total
        for bump in (
            PowerTargets(140e3, 0.8, 8e5),
            PowerTargets(100e3, 0.85, 8e5),
            PowerTargets(100e3, 0.8, 1.2e6),
        ):
            assert min_power(Scheme.OMA, scenario, realization, bump).total >= base * (1 - 1e-9)

    def test_matches_dense_band_scan(self, scenario, realization):
        # Independent oracle: brute-force the semantic band on a fine grid
        # with exact per-band power needs.
        w = scenario.total_bandwidth
        n0 = scenario.noise_psd
        ws = np.linspace(
            TRIPLE.sigma_target * scenario.k,
            min(TRIPLE.sigma_target * scenario.k / TRIPLE.min_similarity, w),
            20_001,
        )
        totals = []
        for wsi in ws:
            eps_need = max(TRIPLE.sigma_target * scenario.k / wsi, TRIPLE.min_similarity)
            if eps_need >= scenario.logistic.a_high:
                continue  # band too narrow: required similarity unreachable
            p_s = required_power_for_similarity(
                scenario.logistic, float(eps_need), float(wsi), realization.gain_s, n0
            )
            w_b = w - wsi
            p_b = w_b * n0 / realization.gain_b * math.expm1(math.log(2.0) * TRIPLE.bit_target / w_b)
            totals.append(p_s + p_b)
        brute = min(totals)
        solved = min_power(Scheme.OMA, scenario, realization, TRIPLE).total
        assert solved <= brute * (1 + 1e-9)
        assert solved == pytest.approx(brute, rel=1e-3)

    def test_structural_infeasibility_causes(self, scenario, realization):
        with pytest.raises(Infeasible) as e:
            min_power(Scheme.OMA, scenario, realization, PowerTargets(260e3, 0.8, 1e5)).total
        assert e.value.cause == "bandwidth-bound"
        assert str(e.value) == (
            "semantic rate 260000 needs 1.04e+06 Hz at similarity 1; carrier has 1e+06 Hz"
        )
        with pytest.raises(Infeasible) as e:
            min_power(Scheme.OMA, scenario, realization, PowerTargets(231e3, 0.8, 1e5)).total
        assert e.value.cause == "rate-asymptote"
        assert str(e.value) == (
            "semantic rate 231000 needs similarity 0.924 on the full band; curve ceiling is 0.918"
        )
        floor_above_ceiling = PowerTargets(100e3, 0.95, 1e5)
        for scheme in Scheme:
            with pytest.raises(Infeasible) as e:
                min_power(scheme, scenario, realization, floor_above_ceiling).total
            assert e.value.cause == "similarity-asymptote"
            assert str(e.value) == "similarity floor 0.95 is at or above the curve ceiling 0.918"

    def test_zero_sigma_ignores_floor(self, scenario, realization):
        # No semantic stream, so even an unreachable floor is vacuous.
        targets = PowerTargets(0.0, 0.95, 8e5)
        sol = min_power(Scheme.OMA, scenario, realization, targets)
        assert math.isfinite(sol.total)

    def test_bit_band_too_narrow_is_infeasible(self, scenario):
        # Only semantic bands within 436 Hz of the carrier width keep the
        # needed similarity below the ceiling, and no such sliver carries
        # 1.8 Mb/s at finite power; semi still has the overlay corner.
        real = sample_realization(scenario, 0)
        targets = PowerTargets(229.4e3, 0.6, 1.8e6)
        with pytest.raises(Infeasible) as e:
            min_power(Scheme.OMA, scenario, real, targets)
        assert e.value.cause == "bandwidth-bound"
        assert str(e.value) == (
            "bit rate 1.8e+06 needs infinite power: a semantic band below the curve "
            "ceiling 0.918 leaves a bit band of at most 435.73 Hz"
        )
        noma = min_power(Scheme.NOMA, scenario, real, targets)
        assert min_power(Scheme.SEMI, scenario, real, targets).total <= noma.total

    def test_floor_near_ceiling_still_solved(self, scenario, realization):
        # The feasible similarity window is a sliver below the curve
        # ceiling (0.918); similarity-axis seeding must still find it.
        targets = PowerTargets(50e3, 0.9175, 4e5)
        sol = min_power(Scheme.OMA, scenario, realization, targets)
        assert math.isfinite(sol.total)
        pair = plug_back(scenario, realization, sol)
        assert pair.similarity >= 0.9175 * (1 - 1e-9)


class TestNomaMinPower:
    def test_matches_manual_formula(self, scenario, realization):
        sol = min_power(Scheme.NOMA, scenario, realization, TRIPLE)
        w = scenario.total_bandwidth
        n0 = scenario.noise_psd
        p_s = required_power_for_similarity(
            scenario.logistic, 0.8, w, realization.gain_s, n0
        )
        g_eff = realization.gain_eff
        p_b = (p_s * g_eff + w * n0) / g_eff * math.expm1(math.log(2.0) * 8e5 / w)
        assert sol.total == pytest.approx(p_s + p_b, rel=1e-12)
        assert sol.alloc.w_shared == w

    def test_exactly_flat_while_floor_binds(self, scenario, realization):
        # While sigma*k/W <= floor the answer is the same float, not merely
        # close: the semantic power is pinned by the floor in all cases.
        totals = {
            min_power(Scheme.NOMA, scenario, realization, PowerTargets(s, 0.8, 8e5)).total
            for s in (0.0, 50e3, 100e3, 150e3, 200e3)
        }
        assert len(totals) == 1

    def test_rises_once_rate_binds(self, scenario, realization):
        flat = min_power(Scheme.NOMA, scenario, realization, PowerTargets(200e3, 0.8, 8e5)).total
        steep = min_power(Scheme.NOMA, scenario, realization, PowerTargets(215e3, 0.8, 8e5)).total
        assert steep > flat

    def test_meets_targets(self, scenario, realization):
        sol = min_power(Scheme.NOMA, scenario, realization, TRIPLE)
        pair = plug_back(scenario, realization, sol)
        assert pair.sem_rate >= TRIPLE.sigma_target * (1 - 1e-9)
        assert pair.similarity >= 0.8 * (1 - 1e-9)
        assert pair.bit_rate == pytest.approx(TRIPLE.bit_target, rel=1e-9)

    def test_floor_always_active_even_at_zero_sigma(self, scenario, realization):
        with pytest.raises(Infeasible) as e:
            min_power(Scheme.NOMA, scenario, realization, PowerTargets(0.0, 0.95, 8e5)).total
        assert e.value.cause == "similarity-asymptote"


class TestWaterFillMin:
    """``water_fill_min_grid`` on pipes of gain-over-noise slope h, inverse slope 1/h."""

    def test_hits_rate_exactly_interior(self):
        h_m, h_b, w_m, w_b, rate = 2e9, 5e9, 4e5, 6e5, 3e6
        p_m, p_b = water_fill_min_grid(w_m, 1 / h_m, w_b, 1 / h_b, rate)
        assert p_m > 0 and p_b > 0
        got = w_m * math.log2(1 + p_m * h_m) + w_b * math.log2(1 + p_b * h_b)
        assert got == pytest.approx(rate, rel=1e-12)

    def test_single_pipe_fallback_exact(self):
        # A terrible shared pipe shuts off; the orthogonal pipe then inverts
        # the whole target exactly.
        p_m, p_b = water_fill_min_grid(4e5, 1 / 1e-12, 6e5, 1 / 5e9, 3e6)
        assert p_m == 0.0
        assert 6e5 * math.log2(1 + p_b * 5e9) == pytest.approx(3e6, rel=1e-12)

    def test_zero_width_pipe(self):
        p_m, p_b = water_fill_min_grid(0.0, 1 / 2e9, 6e5, 1 / 5e9, 3e6)
        assert p_m == 0.0
        assert 6e5 * math.log2(1 + p_b * 5e9) == pytest.approx(3e6, rel=1e-12)

    def test_zero_target_free(self):
        assert water_fill_min_grid(4e5, 1 / 2e9, 6e5, 1 / 5e9, 0.0) == (0.0, 0.0)

    def test_no_live_pipe_raises(self):
        # A positive rate with no band at all costs +inf on the superposed
        # pipe, whether the zero-width pipes keep their slopes or are dead.
        for inv_m, inv_b in ((1 / 2e9, 1 / 5e9), (0.0, 0.0)):
            p_m, p_b = water_fill_min_grid(0.0, inv_m, 0.0, inv_b, 1e6)
            assert p_m == math.inf and p_b >= 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            h_m = float(rng.lognormal(20.0, 2.0))
            h_b = float(rng.lognormal(20.0, 2.0))
            w_m = float(rng.uniform(1e5, 9e5))
            w_b = float(rng.uniform(1e5, 9e5))
            rate = float(rng.uniform(1e5, 5e6))
            p_m, p_b = water_fill_min_grid(w_m, 1 / h_m, w_b, 1 / h_b, rate)
            total = p_m + p_b
            t = np.linspace(0.0, 1.0, 100_001)
            powers = np.expm1(math.log(2.0) * t * rate / w_m) / h_m + np.expm1(
                math.log(2.0) * (1 - t) * rate / w_b
            ) / h_b
            assert total <= float(powers.min()) * (1 + 1e-9)


class TestSemiMinPower:
    def test_never_above_either_pure_scheme(self, scenario):
        for seed in range(8):
            real = sample_realization(scenario, seed)
            for targets in (
                TRIPLE,
                PowerTargets(150e3, 0.8, 2e6),
                PowerTargets(50e3, 0.6, 5e6),
            ):
                p_semi = min_power(Scheme.SEMI, scenario, real, targets, grid_n=128).total
                p_oma = min_power(Scheme.OMA, scenario, real, targets, grid_n=128).total
                p_noma = min_power(Scheme.NOMA, scenario, real, targets).total
                assert p_semi <= min(p_oma, p_noma) + 1e-12

    def test_meets_targets(self, scenario, realization):
        sol = min_power(Scheme.SEMI, scenario, realization, TRIPLE)
        pair = plug_back(scenario, realization, sol)
        assert pair.sem_rate >= TRIPLE.sigma_target * (1 - 1e-9)
        assert pair.similarity >= 0.8 * (1 - 1e-9)
        assert pair.bit_rate >= TRIPLE.bit_target * (1 - 1e-9)
        assert sol.total == pytest.approx(sol.alloc.total_power, rel=1e-12)

    def test_strictly_cheaper_somewhere(self, scenario, realization):
        # On an asymmetric draw with a demanding triple the hybrid beats
        # both corners strictly, not merely ties them.
        targets = PowerTargets(150e3, 0.8, 2e6)
        p_semi = min_power(Scheme.SEMI, scenario, realization, targets).total
        p_oma = min_power(Scheme.OMA, scenario, realization, targets).total
        p_noma = min_power(Scheme.NOMA, scenario, realization, targets).total
        assert p_semi < min(p_oma, p_noma) * (1 - 1e-6)

    def test_zero_sigma_survives_unreachable_floor(self, scenario):
        # Without a semantic stream the floor binds only the overlay, so an
        # infeasible overlay must not take the orthogonal corner with it.
        real = sample_realization(scenario, 1)
        targets = PowerTargets(0.0, 0.95, 5e5)
        sol = min_power(Scheme.SEMI, scenario, real, targets)
        assert sol.total == min_power(Scheme.OMA, scenario, real, targets).total

    def test_tiny_sigma_meets_targets(self):
        # A semantic band of sigma*k = 1.1e-302 Hz made the semantic power
        # subnormal (7.4e-310 W), so it missed the similarity floor by 1.5e-6.
        scenario = Scenario(total_bandwidth=5e5, k=5, min_similarity=0.5, d_s=12.0, d_b=12.0)
        real = ChannelRealization(gain_s=5.60085633963867e-10, gain_b=1.3333205180857152e-08)
        targets = PowerTargets(2.2250738585072014e-303, 0.8125, 0.0)
        for scheme in (Scheme.OMA, Scheme.SEMI):
            sol = min_power(scheme, scenario, real, targets)
            assert _verify_solutions(scenario, real, targets, [sol.alloc]) == [[]]

    def test_zero_sigma_reduces_to_best_corner(self, scenario, realization):
        targets = PowerTargets(0.0, 0.8, 8e5)
        p_semi = min_power(Scheme.SEMI, scenario, realization, targets).total
        p_oma = min_power(Scheme.OMA, scenario, realization, targets).total
        assert p_semi <= p_oma * (1 + 1e-12)

    def test_monotone_in_each_target(self, scenario, realization):
        base = min_power(Scheme.SEMI, scenario, realization, TRIPLE).total
        for bump in (
            PowerTargets(140e3, 0.8, 8e5),
            PowerTargets(100e3, 0.85, 8e5),
            PowerTargets(100e3, 0.8, 1.2e6),
        ):
            assert min_power(Scheme.SEMI, scenario, realization, bump).total >= base * (1 - 1e-9)

    def test_floor_near_ceiling_still_solved(self, scenario, realization):
        targets = PowerTargets(50e3, 0.9175, 4e5)
        sol = min_power(Scheme.SEMI, scenario, realization, targets)
        assert math.isfinite(sol.total)
        pair = plug_back(scenario, realization, sol)
        assert pair.similarity >= 0.9175 * (1 - 1e-9)

    def test_structural_infeasibility_propagates(self, scenario, realization):
        with pytest.raises(Infeasible):
            min_power(Scheme.SEMI, scenario, realization, PowerTargets(260e3, 0.8, 1e5)).total


BATCHED_TARGETS = [
    TRIPLE,
    PowerTargets(0.0, 0.93, 8e5),  # noma infeasible, bit-only corners live
    PowerTargets(229400.0, 0.6, 1.8e6),  # oma has no finite-power bit band
    PowerTargets(260e3, 0.8, 1e5),  # structurally infeasible
]


class TestBatchedDraws:
    """One batched solve over many draws equals per-draw solves exactly."""

    @pytest.mark.parametrize("targets", BATCHED_TARGETS)
    def test_rows_equal_per_draw_solves(self, scenario, targets):
        reals = [sample_realization(scenario, seed) for seed in range(9)]
        solved = solve_min_powers_rows(scenario, reals, [targets] * len(reals), 64)
        batch = [_row_solutions(scenario, targets, solved, i) for i in range(len(reals))]
        assert len(batch) == len(reals)
        for real, row in zip(reals, batch):
            single = solve_min_powers(scenario, real, targets, 64)
            assert list(row) == list(single)
            for scheme, sol in single.items():
                if isinstance(sol, Infeasible):
                    assert type(row[scheme]) is type(sol)
                    assert (row[scheme].cause, str(row[scheme])) == (sol.cause, str(sol))
                else:
                    assert row[scheme] == sol


def distinct_seeds(scenario, targets):
    """How many distinct similarity-seeded bands ``targets`` gets."""
    bands = eps_seeded_bands(scenario, np.array([targets.sigma_target]), targets.min_similarity)
    return len(np.unique(bands))


def near_ceiling(scenario):
    """A floor so close to the curve ceiling that no similarity-seeded band fits."""
    p = scenario.logistic
    return PowerTargets(50e3, p.a_high - (p.a_high - p.a_low) * 1e-10, 4e5)


class TestRowSets:
    """Rows with different target triples in one row set equal their one-row solves."""

    def test_padding_does_not_change_the_pick(self, scenario, monkeypatch):
        # Rows without similarity-seeded bands get their lower band bound
        # repeated in their place; dropping those copies again must give
        # the same columns, bit for bit.
        targets = near_ceiling(scenario)
        assert distinct_seeds(scenario, targets) == 1
        reals = [sample_realization(scenario, seed) for seed in range(6)]
        padded = solve_min_powers_rows(scenario, reals, [targets] * len(reals), 64)
        original = power.search_rows
        unpadded_calls = []

        def unpadded(objective, cols, lo, hi, extra, grid_n, **kwargs):
            assert (extra[:, :EPS_BANDS] == lo[:, None]).all()
            unpadded_calls.append(extra.shape)
            return original(objective, cols, lo, hi, extra[:, EPS_BANDS:], grid_n, **kwargs)

        monkeypatch.setattr(power, "search_rows", unpadded)
        plain = solve_min_powers_rows(scenario, reals, [targets] * len(reals), 64)
        assert unpadded_calls  # the patch fired
        assert np.isfinite(padded[Scheme.SEMI].total).all()
        for scheme, rows in padded.items():
            for name in ("total", *ALLOC_FIELDS, "cause"):
                np.testing.assert_array_equal(getattr(rows, name), getattr(plain[scheme], name))

    def test_mixed_triples_equal_one_row_solves(self, scenario):
        near = near_ceiling(scenario)
        assert distinct_seeds(scenario, near) == 1
        assert distinct_seeds(scenario, TRIPLE) == EPS_BANDS
        triples = [
            TRIPLE,
            near,
            PowerTargets(0.0, 0.93, 8e5),  # noma infeasible, bit-only corners live
            PowerTargets(229400.0, 0.6, 1.8e6),  # oma has no finite-power bit band
            PowerTargets(260e3, 0.8, 1e5),  # bandwidth-bound
            PowerTargets(231e3, 0.8, 1e5),  # rate-asymptote
            PowerTargets(100e3, 0.95, 1e5),  # similarity-asymptote
        ]
        reals = [sample_realization(scenario, seed) for seed in range(3 * len(triples))]
        targets = [triples[i % len(triples)] for i in range(len(reals))]
        solved = solve_min_powers_rows(scenario, reals, targets, 64)
        for i, (real, t) in enumerate(zip(reals, targets)):
            single = solve_min_powers(scenario, real, t, 64)
            rebuilt = _row_solutions(scenario, t, solved, i)
            for scheme, sol in single.items():
                rows = solved[scheme]
                if isinstance(sol, Infeasible):
                    assert type(rebuilt[scheme]) is Infeasible
                    assert (rebuilt[scheme].cause, str(rebuilt[scheme])) == (sol.cause, str(sol))
                    assert CAUSES[rows.cause[i]] == sol.cause
                    assert np.isnan(rows.total[i])
                else:
                    assert rebuilt[scheme] == sol
                    assert rows.cause[i] == 0
                    assert rows.total[i] == sol.total
                    for name in ALLOC_FIELDS:
                        assert getattr(rows, name)[i] == getattr(sol.alloc, name)

    def test_overflowing_totals_are_infeasible(self, scenario):
        # A bit rate about 1,024 times the carrier's width overflows the
        # bit power to inf on some draws; those rows get a cause, and no
        # feasible row keeps a non-finite field.
        reals = [sample_realization(scenario, seed) for seed in range(2000)]
        targets = [PowerTargets(0.0, 0.8, 1.024e9)] * len(reals)
        solved = solve_min_powers_rows(scenario, reals, targets, 64)
        assert (solved[Scheme.NOMA].cause == power._SHARED_BAND).any()
        for scheme, rows in solved.items():
            fields = np.array([rows.total, *(getattr(rows, f) for f in ALLOC_FIELDS)])
            feasible = rows.cause == 0
            assert np.isfinite(fields[:, feasible]).all(), scheme
            assert np.isnan(fields[:, ~feasible]).all(), scheme


class TestOneRowSearches:
    """A one-row solve searches its oma and semi rows together, or not at all.

    The two rows fit one batch in both phases: one objective call scores
    their coarse grids with the extras (the ``EPS_BANDS``
    similarity-seeded bands), then one call per bracket level scores
    their brackets from the incumbents.
    """

    @pytest.mark.parametrize(
        "targets, extras",
        [
            (TRIPLE, [(2, EPS_BANDS)]),  # an oma row and a semi row
            (PowerTargets(0.0, 0.8, 8e5), []),  # no semantic stream, no band to search
            (PowerTargets(260e3, 0.8, 1e5), []),  # structurally infeasible (bandwidth-bound)
        ],
    )
    def test_search_count(self, scenario, realization, monkeypatch, targets, extras):
        # ``extras`` holds (rows, extra candidates) of each search that
        # scores anything: 1 coarse call, then 3 bracket levels at zoom 64.
        original = power.search_rows
        seen = []

        def counting(objective, *args, **kwargs):
            def counted(g, x):
                seen.append(x.shape)
                return objective(g, x)

            return original(counted, *args, **kwargs)

        monkeypatch.setattr(power, "search_rows", counting)
        solve_min_powers(scenario, realization, targets, 512)
        bracket = 2 * power.SEARCH_ZOOM + 1
        assert seen == [
            shape for rows, m in extras for shape in [(rows, 512 + m)] + [(rows, bracket)] * 3
        ]


def oma_total_reference(scenario, g, ws):
    """The oma objective of the separate oma search: semantic plus clean-band bit power."""
    gain_s, gain_b, _, sigma, floor, bit_target = g.T[:, :, None]
    w_bit = scenario.total_bandwidth - ws
    inv_b = orth_inv_slope(w_bit, gain_b, scenario.noise_psd)
    return sem_power(scenario, gain_s, sigma, floor, ws) + pipe_power(w_bit, bit_target, inv_b)


def semi_total_reference(scenario, g, wm):
    """The semi objective of the separate semi search: semantic plus water-filled bit power."""
    n0 = scenario.noise_psd
    gain_s, gain_b, gain_eff, sigma, floor, bit_target = g.T[:, :, None]
    p_s = sem_power(scenario, gain_s, sigma, floor, wm)
    w_b = scenario.total_bandwidth - wm
    p_m, p_o = water_fill_min_grid(
        wm,
        overlay_inv_slope(wm, p_s, gain_eff, n0),
        w_b,
        orth_inv_slope(w_b, gain_b, n0),
        bit_target,
    )
    return p_s + (p_m + p_o)


def total_reference(scenario, g, x):
    """Each search row's objective from the reference of its scheme."""
    oma = g[:, -1] == 1
    want = np.empty_like(x)
    want[oma] = oma_total_reference(scenario, g[oma, :-1], x[oma])
    want[~oma] = semi_total_reference(scenario, g[~oma, :-1], x[~oma])
    return want


# Edge rows: w_up = W with a bit target, so the oma row's last candidate
# leaves no bit band; a zero bit target; every similarity seed one band.
EDGE_TRIPLES = [
    TRIPLE,
    PowerTargets(100e3, 0.0, 8e5),
    PowerTargets(100e3, 0.8, 0.0),
    PowerTargets(229400.0, 0.6, 1.8e6),  # oma has no finite-power bit band
]


class TestSharedObjective:
    """The one power objective scores each row as its scheme's own objective did, bit for bit."""

    def rows(self, scenario, triples, seeds):
        """Search rows of ``triples`` over draws ``seeds``, oma rows first, and their lo and hi."""
        reals = [sample_realization(scenario, seed) for seed in seeds]
        targets = [triples[i % len(triples)] for i in range(len(reals))]
        data, _, _, live, w_low, w_up = _row_set(scenario, reals, targets)[:6]
        n = len(live)
        g = np.column_stack([np.tile(data[live], (2, 1)), np.arange(2 * n) < n])
        hi = np.concatenate([w_up, np.full(n, scenario.total_bandwidth)])
        return g, np.tile(w_low, 2), hi

    def test_equals_each_scheme_reference(self, scenario, rng):
        triples = [*EDGE_TRIPLES, near_ceiling(scenario)]
        triples += [
            PowerTargets(s, f, b)
            for s, f, b in zip(
                rng.uniform(1e3, 2.2e5, 6), rng.choice([0.0, 0.5, 0.8], 6), rng.uniform(0, 2e6, 6)
            )
        ]
        g, lo, hi = self.rows(scenario, triples, range(2 * len(triples)))
        assert (g[:, -1] == 1).sum() == len(g) // 2
        # Every interval's ends, the band just above the start, and random bands.
        u = rng.uniform(size=(len(g), 40))
        x = np.column_stack([lo, lo[:, None] + (hi - lo)[:, None] * u, hi, np.nextafter(lo, np.inf)])
        want = total_reference(scenario, g, x)
        assert np.isposinf(want).any() and np.isfinite(want).any()
        n = len(g) // 2
        # An oma row whose last candidate leaves no bit band, at a positive bit target.
        assert ((hi[:n] == scenario.total_bandwidth) & (g[:n, 5] > 0)).any()
        # Oma rows only, semi rows only, both, and the whole set.
        for rows in (slice(0, n), slice(n, None), slice(n - 3, n + 2), slice(None)):
            np.testing.assert_array_equal(_total(scenario, g[rows], x[rows]), want[rows])

    def test_search_batches_score_as_the_references(self, scenario, monkeypatch):
        # Batches of 3 rows of 64 + EPS_BANDS candidates cut 5 draws' 10 search rows
        # into oma rows only, both, and semi rows only.
        triples = [*EDGE_TRIPLES, near_ceiling(scenario)]
        reals = [sample_realization(scenario, seed) for seed in range(len(triples))]
        whole = solve_min_powers_rows(scenario, reals, triples, 64)
        original = power.search_rows
        kinds = []

        def spy(objective, *args, **kwargs):
            assert objective.func is _total
            (scenario_,) = objective.args

            def checked(g, x):
                kinds.append(tuple(np.unique(g[:, -1])))
                got = objective(g, x)
                np.testing.assert_array_equal(got, total_reference(scenario_, g, x))
                return got

            return original(checked, *args, **kwargs)

        monkeypatch.setattr(search, "BATCH_CANDIDATES", 3 * (64 + EPS_BANDS))
        monkeypatch.setattr(power, "search_rows", spy)
        split = solve_min_powers_rows(scenario, reals, triples, 64)
        assert set(kinds) == {(0.0,), (1.0,), (0.0, 1.0)}
        for scheme, rows in whole.items():
            for name in ("total", *ALLOC_FIELDS, "cause"):
                np.testing.assert_array_equal(getattr(split[scheme], name), getattr(rows, name))


class TestOmaWrapper:
    @pytest.mark.parametrize("targets", BATCHED_TARGETS)
    def test_oma_solve_is_the_oma_row_of_all_schemes(self, scenario, targets):
        for seed in range(3):
            real = sample_realization(scenario, seed)
            want = solve_min_powers(scenario, real, targets, 64)[Scheme.OMA]
            if isinstance(want, Infeasible):
                with pytest.raises(Infeasible) as e:
                    min_power(Scheme.OMA, scenario, real, targets)
                assert type(e.value) is type(want)
                assert (e.value.cause, str(e.value)) == (want.cause, str(want))
            else:
                assert min_power(Scheme.OMA, scenario, real, targets) == want


class TestPaperClaims:
    def test_semi_saving_grows_as_semantic_user_gets_closer(self):
        # Claim (ii) of the abstract: semi's advantage over the better pure
        # scheme grows as the semantic user's channel improves relative to
        # the bit user's.  Mean saving per geometry, d_s / d_b falling.
        savings = []
        for d_s, d_b in ((35.0, 15.0), (30.0, 20.0), (25.0, 25.0), (20.0, 30.0), (15.0, 35.0)):
            scenario = Scenario(d_s=d_s, d_b=d_b)
            reals = [sample_realization(scenario, derive_seed(2205, i)) for i in range(96)]
            solved = solve_min_powers_rows(scenario, reals, [TRIPLE] * len(reals), 512)
            best_pure = np.minimum(solved[Scheme.OMA].total, solved[Scheme.NOMA].total)
            savings.append(float(np.mean(1.0 - solved[Scheme.SEMI].total / best_pure)))
        assert all(a < b for a, b in zip(savings, savings[1:])), savings
