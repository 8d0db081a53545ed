import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sembit import (
    Allocation,
    LogisticParams,
    ParamTable,
    PowerTargets,
    RatePair,
    Scenario,
    Scheme,
    eval_similarity,
    rates_for,
    sample_realization,
    snr_db,
    solve_min_powers,
)
from sembit.power import _powers
from sembit.rates import (
    ALLOC_FIELDS,
    LN2,
    _next_up,
    bit_rates,
    eps_seeded_bands,
    hybrid_max_rate,
    lemma1_bounds,
    orth_inv_slope,
    orth_max_rate,
    overlay_inv_slope,
    pipe_power,
    sem_power,
    water_fill_max_grid,
    water_fill_min_grid,
)

from onerow import solve_noma_point, solve_oma_point, solve_semi_point
from pipes import clean_rate, pipe_rate

N0 = 1e-17


# The link kernels as first written, kept as references for the closed
# forms that replaced them.
def orth_inv_slope_reference(bandwidth, gain, noise_psd):
    return bandwidth * noise_psd / gain


def overlay_inv_slope_reference(bandwidth, p_sem, gain_eff, noise_psd):
    return (p_sem * gain_eff + bandwidth * noise_psd) / gain_eff


def pipe_power_reference(bandwidth, rate, inv_slope):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        power = inv_slope * np.expm1(np.divide(LN2 * rate, bandwidth))
    power = np.where(np.asarray(bandwidth) > 0, power, np.inf)
    return np.where(np.asarray(rate) <= 0, 0.0, power)


def water_fill_min_grid_reference(w_m, inv_m, w_b, inv_b, rate):
    """Level 2**(R/w - sum of (w_i/w) * log2(w_i/inv_i)), then a where per shut case."""
    w_m, inv_m, w_b, inv_b, rate = (
        np.asarray(a, dtype=float) for a in (w_m, inv_m, w_b, inv_b, rate)
    )
    w = w_m + w_b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        term_m = np.where(w_m > 0, (w_m / w) * np.log2(np.divide(w_m, inv_m)), 0.0)
        term_b = np.where(w_b > 0, (w_b / w) * np.log2(np.divide(w_b, inv_b)), 0.0)
        level = 2.0 ** (rate / w - term_m - term_b)
        p_m = level * w_m - inv_m
        p_b = level * w_b - inv_b
    shut_m = p_m <= 0
    shut_b = p_b <= 0
    live = rate > 0
    p_m = np.where(shut_b, pipe_power_reference(w_m, rate, inv_m), np.where(shut_m, 0.0, p_m))
    p_b = np.where(shut_b, 0.0, np.where(shut_m, pipe_power_reference(w_b, rate, inv_b), p_b))
    return np.where(live, p_m, 0.0), np.where(live, p_b, 0.0)


def hybrid_total_reference(scenario, g, wm):
    """The semi objective as first assembled: +inf semantic power kept out of the bit split."""
    w = scenario.total_bandwidth
    gain_s, gain_b, gain_eff, sigma, floor, bit_target = g.T[:, :, None]
    p_s = sem_power(scenario, gain_s, sigma, floor, wm)
    ok = np.isfinite(p_s)
    w_b = w - wm
    p_m, p_o = water_fill_min_grid_reference(
        wm,
        overlay_inv_slope_reference(wm, np.where(ok, p_s, 0.0), gain_eff, N0),
        w_b,
        orth_inv_slope_reference(w_b, gain_b, N0),
        bit_target,
    )
    return p_s + (np.where(ok, p_m, np.inf) + np.where(ok, p_o, 0.0))


def max_rate_references(w, x, p_sem, p_max, gain_eff, gain_b, noise_psd):
    """(oma, semi) boundary scores as first written, with every candidate scored.

    Over the budget a candidate's bit power is 0.  The semi split is the
    clamped water level of :func:`water_fill_max_grid`, carried through
    two :func:`pipe_rate` calls.
    """
    fits = p_sem <= p_max
    w_b = w - x
    inv_b = orth_inv_slope(w_b, gain_b, noise_psd)
    oma = pipe_rate(w_b, np.where(fits, p_max - p_sem, 0.0), inv_b)
    p_s = np.where(fits, p_sem, 0.0)
    inv_m = overlay_inv_slope(x, p_s, gain_eff, noise_psd)
    p_m, p_b = water_fill_max_grid(x, inv_m, w_b, inv_b, np.maximum(p_max - p_s, 0.0))
    semi = pipe_rate(x, p_m, inv_m) + pipe_rate(w_b, p_b, inv_b)
    return oma, np.where(fits, semi, 0.0)


def random_pipes(rng, shape):
    """(w_m, inv_m, w_b, inv_b): an overlay pipe (a third without semantic power), a clean one."""
    w_m, w_b = rng.uniform(1e3, 1e6, size=(2, *shape))
    gain_eff, gain_b = 10.0 ** rng.uniform(-12.0, -6.0, size=(2, *shape))
    p_sem = 10.0 ** rng.uniform(-8.0, 2.0, size=shape)
    p_sem = np.where(rng.uniform(size=shape) < 1 / 3, 0.0, p_sem)
    inv_m = overlay_inv_slope_reference(w_m, p_sem, gain_eff, N0)
    return w_m, inv_m, w_b, orth_inv_slope_reference(w_b, gain_b, N0)


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
    bit = clean_rate(alloc.w_bit, alloc.p_bit_orth, real.gain_b, scenario.noise_psd)
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
    bit_orth = clean_rate(alloc.w_bit, alloc.p_bit_orth, real.gain_b, n0)
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
        p_sem, p_bit, p_orth = p
        allocs += [
            Allocation(Scheme.OMA, w_sem=band, w_bit=w - band, p_sem=p_sem, p_bit_orth=p_bit),
            Allocation(Scheme.NOMA, w_shared=w, p_sem=p_sem, p_bit_shared=p_bit),
            Allocation(
                Scheme.SEMI,
                w_shared=band,
                w_bit=w - band,
                p_sem=p_sem,
                p_bit_shared=p_bit,
                p_bit_orth=p_orth,
            ),
        ]
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


class TestKernelReferences:
    """The link kernels against the formulas they replaced."""

    def test_slopes(self, rng, assert_matches):
        w, p_sem = rng.uniform(0.0, 1e6, size=100), 10.0 ** rng.uniform(-9.0, 2.0, size=100)
        gain = 10.0 ** rng.uniform(-12.0, -6.0, size=(100, 1))
        assert_matches(orth_inv_slope(w, gain, N0), orth_inv_slope_reference(w, gain, N0))
        want = overlay_inv_slope_reference(w, p_sem, gain, N0)
        assert_matches(overlay_inv_slope(w, p_sem, gain, N0), want)
        assert_matches(overlay_inv_slope(w, np.inf, gain, N0), np.full(want.shape, np.inf))

    def test_pipe_power(self, rng, assert_matches):
        w = np.concatenate([[0.0, 0.0, 1e6, 1e6, 1e6], rng.uniform(1e3, 1e6, size=200)])
        rate = [1e6, 0.0, 0.0, -1.0, np.nan]
        rate = np.concatenate([rate, 10.0 ** rng.uniform(3.0, 7.0, size=200)])
        for inv in (orth_inv_slope(w, 1e-9, N0), np.full(w.shape, 1e-10), np.full(w.shape, np.inf)):
            assert_matches(pipe_power(w, rate, inv), pipe_power_reference(w, rate, inv))

    def test_water_fill_random_grids(self, rng, assert_matches):
        # Near a pipe's shut-off the level formula, L * w_i - inv_i, cancels
        # (about 1e-9 relative at a fill of 1e-7), where expm1 of the fill
        # does not: there the reference, not the kernel, is off.  Pipes
        # with a fill of at least 0.01, or shut, are compared within 1e-12;
        # the rest by their total and by the rate they carry.
        w_m, inv_m, w_b, inv_b = random_pipes(rng, (40, 250))
        rate = 10.0 ** rng.uniform(3.0, 7.0, size=(40, 1))
        got = water_fill_min_grid(w_m, inv_m, w_b, inv_b, rate)
        want = water_fill_min_grid_reference(w_m, inv_m, w_b, inv_b, rate)
        fills = [np.log1p(p / inv) for p, inv in zip(want, (inv_m, inv_b))]
        clear = ((fills[0] == 0) | (fills[0] >= 0.01)) & ((fills[1] == 0) | (fills[1] >= 0.01))
        assert clear.mean() > 0.7 and (fills[0] == 0).any() and (fills[1] == 0).any()
        for g, r in zip(got, want):
            assert_matches(g[clear], r[clear])
        assert_matches(got[0] + got[1], want[0] + want[1], rtol=1e-11)
        carried = (w_m * np.log1p(got[0] / inv_m) + w_b * np.log1p(got[1] / inv_b)) / LN2
        assert_matches(carried, np.broadcast_to(rate, carried.shape))

    def test_water_fill_edges(self, assert_matches):
        # Each column one case: both open, the overlay pipe shut by its
        # interference, the clean pipe shut by its gain, a zero-width
        # overlay pipe (with and without a slope), a zero-width clean pipe,
        # no rate, a NaN rate, infinite semantic power (twice), and no band
        # at all.
        w_m = np.array([4e5, 4e5, 4e5, 0.0, 0.0, 4e5, 4e5, 4e5, 4e5, 4e5, 0.0])
        w_b = np.array([6e5, 6e5, 6e5, 6e5, 6e5, 0.0, 6e5, 6e5, 6e5, 0.0, 0.0])
        inv_m = np.array([2e-4, 1e3, 2e-4, 0.0, 1e-4, 2e-4, 2e-4, 2e-4, np.inf, np.inf, 0.0])
        inv_b = np.array([1.2e-4, 1.2e-4, 1e3, 1.2e-4, 1.2e-4, 0, 1.2e-4, 1.2e-4, 1.2e-4, 0, 0])
        rate = np.array([3e6, 3e6, 3e6, 3e6, 3e6, 3e6, 0.0, np.nan, 3e6, 3e6, 3e6])
        p_m, p_b = water_fill_min_grid(w_m, inv_m, w_b, inv_b, rate)
        # An infinitely noisy pipe is as unused as a zero-width one, and
        # alone it costs +inf.
        dead = np.isinf(inv_m)
        want = water_fill_min_grid_reference(
            np.where(dead, 0.0, w_m), np.where(dead, 0.0, inv_m), w_b, inv_b, rate
        )
        assert_matches(p_m[:9], want[0][:9])
        assert_matches(p_b[:9], want[1][:9])
        assert (p_m[[1, 3, 4, 6, 7, 8]] == 0).all() and (p_b[[2, 5, 6, 7]] == 0).all()
        assert (p_m[9], p_b[9]) == (np.inf, 0.0)
        # No band at all: the reference's level is inf * 0, NaN; a positive
        # rate over no band costs +inf, as in pipe_power.
        assert np.isnan(want[0][-1]) and (p_m[-1], p_b[-1]) == (np.inf, 0.0)

    def test_water_fill_zero_width_pipes(self):
        # A positive rate over no band: two zero-width pipes with finite
        # inverse slopes both cost +inf, while a dead bit-only pipe (zero
        # width, zero inverse slope) costs 0, also beside an open
        # superposed pipe; a zero-width bit-only pipe with a slope does not.
        assert water_fill_min_grid(0.0, 1 / 2e9, 0.0, 1 / 5e9, 1e6) == (np.inf, np.inf)
        assert water_fill_min_grid(0.0, 0.0, 0.0, 0.0, 1e6) == (np.inf, 0.0)
        alone = pipe_power(4e5, 3e6, 2e-4)
        assert water_fill_min_grid(4e5, 2e-4, 0.0, 0.0, 3e6) == (alone, 0.0)
        assert water_fill_min_grid(4e5, 2e-4, 0.0, 1.2e-4, 3e6) == (alone, np.inf)
        assert water_fill_min_grid(0.0, 1 / 2e9, 0.0, 1 / 5e9, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "shape_m, shape_rate",
        [((), ()), ((3, 5), (3, 1)), ((3, 1), (3, 5)), ((0,), ()), ((3, 0), (3, 1))],
    )
    def test_water_fill_shapes(self, rng, shape_m, shape_rate, assert_matches):
        w_m, inv_m, w_b, inv_b = random_pipes(rng, shape_m)
        rate = 10.0 ** rng.uniform(5.0, 6.5, size=shape_rate)
        got = water_fill_min_grid(w_m, inv_m, w_b, inv_b, rate)
        want = water_fill_min_grid_reference(w_m, inv_m, w_b, inv_b, rate)
        for g, r in zip(got, want):
            assert_matches(g, r)
        if not shape_m:  # plain floats too
            floats = (float(a) for a in (w_m, inv_m, w_b, inv_b, rate))
            for g, r in zip(water_fill_min_grid(*floats), want):
                assert_matches(g, r)

    def test_pipe_power_shapes(self, assert_matches):
        cases = [(1e6, 2e6), (0.0, 1e6), (np.full((3, 1), 1e6), np.linspace(0.0, 1e6, 4))]
        for w, rate in [*cases, (np.empty(0), 1e6)]:
            inv = orth_inv_slope(w, 1e-9, N0)
            assert_matches(pipe_power(w, rate, inv), pipe_power_reference(w, rate, inv))

    def test_hybrid_objective(self, scenario, rng, assert_matches):
        # Semi rows of the power search (oma column 0) over shared bands
        # from the interval start, where the semantic power is +inf, to the
        # full carrier, where the clean pipe has no width.
        w = scenario.total_bandwidth
        reals = [sample_realization(scenario, seed) for seed in range(6)]
        sigma = rng.uniform(1e3, 2.2e5, size=len(reals))
        floor = rng.choice([0.0, 0.5, 0.8], size=len(reals))
        bits = 10.0 ** rng.uniform(5.0, 6.5, size=len(reals))
        rows = zip(reals, sigma, floor, bits)
        g = np.array([(r.gain_s, r.gain_b, r.gain_eff, s, f, b, 0.0) for r, s, f, b in rows])
        w_low = lemma1_bounds(scenario, sigma, floor)[0]
        wm = w_low[:, None] + (w - w_low)[:, None] * np.linspace(0.0, 1.0, 129)
        wm = np.concatenate([wm, np.nextafter(w_low, 0.0)[:, None]], axis=1)
        p_s, p_m, p_o = _powers(scenario, g, wm)
        want = hybrid_total_reference(scenario, g[:, :-1], wm)
        assert np.isposinf(want[:, 0]).any() and np.isposinf(want[:, -1]).all()
        assert_matches(p_s + (p_m + p_o), want, rtol=1e-11)


    def test_max_rate_kernels(self, rng):
        # Random rows of candidates, then one column per edge: the shared
        # pipe shut by its semantic power, no bit-only band (w_m = W) within
        # the budget and at it, a zero budget, an unreachable similarity
        # (p_sem = +inf), and over the budget.
        w, p_max = 1e6, 0.5
        gain_b = 1e-12
        gain_eff = gain_b * 10.0 ** rng.uniform(-2.0, 0.0, size=(40, 1))
        gain_eff[0] = gain_b
        x = w * 10.0 ** rng.uniform(-6.0, 0.0, size=(40, 300))
        p_sem = p_max * 10.0 ** rng.uniform(-6.0, 0.2, size=(40, 300))
        edge_x = np.array([1e4, w, w, 4e5, 4e5, 4e5])
        edge_p = np.array([0.9, 0.1, 1.0, 1.0, np.inf, 1.2]) * p_max
        x = np.concatenate([x, np.broadcast_to(edge_x, (40, 6))], axis=1)
        p_sem = np.concatenate([p_sem, np.broadcast_to(edge_p, (40, 6))], axis=1)
        args = (w, x, p_sem, p_max)
        oma_ref, semi_ref = max_rate_references(*args, gain_eff, gain_b, N0)
        oma = orth_max_rate(*args, gain_b, N0)
        semi = hybrid_max_rate(*args, gain_eff, gain_b, N0)

        np.testing.assert_array_equal(oma, oma_ref)
        tol = 1e-12 * semi_ref.max(axis=1, keepdims=True)
        assert (np.abs(semi - semi_ref) <= tol).all()
        # Where the superposed pipe gets no power, semi is oma exactly.
        inv_m = overlay_inv_slope(x, np.where(p_sem <= p_max, p_sem, 0.0), gain_eff, N0)
        p_m = water_fill_max_grid(x, inv_m, w - x, orth_inv_slope(w - x, gain_b, N0), p_max)[0]
        shut = (p_m == 0) & (p_sem < p_max)
        assert shut[:, -6].all() and 0.05 < shut.mean() < 0.95
        np.testing.assert_array_equal(semi[shut], oma[shut])
        # No bit-only band: the overlay's own rate, and 0, not NaN, at the budget.
        w_only = pipe_rate(w, 0.9 * p_max, overlay_inv_slope(w, 0.1 * p_max, gain_eff[:, 0], N0))
        np.testing.assert_allclose(semi[:, -5], w_only, rtol=1e-12)
        assert (oma[:, -5] == 0).all()
        assert (semi[:, -4:] == 0).all() and (oma[:, -4:] == 0).all()
        # A zero budget carries nothing, also where the closed form's fill
        # of the only pipe, w_m = W, rounds a hair above 1.
        g = gain_b * 10.0 ** rng.uniform(-2.0, 0.0, size=1000)
        budget = 10.0 ** rng.uniform(-2.0, 0.5, size=1000)
        assert (hybrid_max_rate(w, w, budget, budget, g, gain_b, N0) == 0).all()

    def test_next_up_is_nextafter(self, rng):
        tiny = np.finfo(float).smallest_subnormal
        big = np.finfo(float).max
        x = np.concatenate([
            10.0 ** rng.uniform(-300.0, 300.0, size=1000),
            tiny * rng.integers(1, 2**52, size=200),
            [tiny, np.finfo(float).smallest_normal - tiny, np.finfo(float).smallest_normal],
            big * rng.uniform(0.5, 1.0, size=100),
            [np.nextafter(big, 0.0), 1.0, 0.5],
        ])
        want = np.nextafter(x, np.inf)
        got = _next_up(x.copy())
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_eps_seeded_bands_stay_finite_when_the_lower_end_underflows(self):
        # On a curve with a_low = 0 and no floor, sigma*k/W underflows to 0
        # for a tiny target; the lower end then stops at the smallest
        # positive double, so the first band is finite and below W.
        curve = LogisticParams(k=4, a_low=0.0, a_high=0.9, growth=0.47, offset=-1.3)
        scenario = Scenario(k=4, params=ParamTable([curve]), min_similarity=0.0)
        real = sample_realization(scenario, 0)
        sigma = np.array([1e-320, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bands = eps_seeded_bands(scenario, sigma, 0.0)
            points = [solve(scenario, real, 1e-320) for solve in (solve_oma_point, solve_semi_point)]
            solve_min_powers(scenario, real, PowerTargets(1e-320, 0.0, 1e5), 64)
        assert np.isfinite(bands).all() and (bands > 0).all()
        assert bands[0, 0] < scenario.total_bandwidth
        assert all(np.isfinite(p.bit_rate) and p.bit_rate > 0 for p in points)


def lone_pipe_rate(width, power, gain, p_sem=0.0, shared=False):
    """Bit rate :func:`bit_rates` gives one pipe alone, clean or shared, at N0 = 1e-17."""
    lines = np.zeros(len(ALLOC_FIELDS))
    lines[[0, 3, 4] if shared else [2, 3, 5]] = width, p_sem, power
    return bit_rates(Scenario(noise_psd=1e-17), gain, gain, lines[:, None]).item()


class TestShannon:
    """A clean band's rate, as the package evaluates it, and the SNR in dB."""

    def test_hand_value(self):
        # SNR = 1 * 1e-9 / (1e6 * 1e-17) = 100
        rate = lone_pipe_rate(1e6, 1.0, 1e-9)
        assert rate == pytest.approx(1e6 * math.log2(101.0), rel=1e-12)
        assert rate == clean_rate(1e6, 1.0, 1e-9, 1e-17)

    def test_degenerate_inputs_carry_nothing(self):
        # On the shared pipe too, with and without semantic interference.
        for shared in (False, True):
            for p_sem in (0.0, 0.3):
                assert lone_pipe_rate(0.0, 1.0, 1e-9, p_sem, shared) == 0.0
                assert lone_pipe_rate(1e6, 0.0, 1e-9, p_sem, shared) == 0.0
                assert lone_pipe_rate(0.0, 0.0, 1e-9, p_sem, shared) == 0.0

    def test_monotone_in_power_and_band(self):
        base = lone_pipe_rate(1e6, 0.5, 1e-9)
        assert lone_pipe_rate(1e6, 0.6, 1e-9) > base
        assert lone_pipe_rate(1.2e6, 0.5, 1e-9) > base

    def test_snr_db(self):
        assert snr_db(1.0, 1e-9, 1e6, 1e-17) == pytest.approx(20.0, abs=1e-12)
        assert snr_db(0.0, 1e-9, 1e6, 1e-17) == -math.inf


class TestAllocation:
    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            Allocation(Scheme.OMA, w_sem=-1.0, w_bit=1e6, p_sem=0.1, p_bit_orth=0.1)
        with pytest.raises(ValueError):
            Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.1, p_bit_shared=-0.1)

    def test_totals_add_every_field(self):
        a = Allocation(Scheme.OMA, w_sem=3e5, w_bit=7e5, p_sem=0.2, p_bit_orth=0.6)
        assert a.total_bandwidth == 1e6
        assert a.total_power == pytest.approx(0.8)
        b = Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.2, p_bit_shared=0.6)
        assert b.total_bandwidth == 1e6
        c = Allocation(
            Scheme.SEMI, w_shared=4e5, w_bit=6e5, p_sem=0.2, p_bit_shared=0.3, p_bit_orth=0.4
        )
        assert c.total_bandwidth == 1e6
        assert c.total_power == pytest.approx(0.9)

    def test_budget_check(self, scenario):
        fits = Allocation(Scheme.OMA, w_sem=3e5, w_bit=7e5, p_sem=0.5, p_bit_orth=0.5)
        fits.check_budget(scenario)
        with pytest.raises(ValueError, match="bandwidth"):
            replace(fits, w_bit=6e5).check_budget(scenario)
        with pytest.raises(ValueError, match="power"):
            replace(fits, p_sem=0.6, p_bit_orth=0.6).check_budget(scenario)

    def test_budget_check_tolerates_rounding(self, scenario):
        w = scenario.total_bandwidth
        third = Allocation(Scheme.OMA, w_sem=w / 3, w_bit=w - w / 3, p_sem=0.5, p_bit_orth=0.5)
        third.check_budget(scenario)

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
        alloc = Allocation(Scheme.OMA, w_sem=4e5, w_bit=6e5, p_sem=0.3, p_bit_orth=0.7)
        pair = rates_for(scenario, realization, alloc)
        snr = snr_db(0.3, realization.gain_s, 4e5, scenario.noise_psd)
        eps = eval_similarity(scenario.logistic, snr)
        assert pair.similarity == pytest.approx(eps, rel=1e-12)
        assert pair.sem_rate == pytest.approx(4e5 * eps / scenario.k, rel=1e-12)
        assert pair.bit_rate == pytest.approx(
            clean_rate(6e5, 0.7, realization.gain_b, scenario.noise_psd), rel=1e-12
        )

    def test_bit_only_corner(self, scenario, realization):
        alloc = Allocation(Scheme.OMA, w_sem=0.0, w_bit=1e6, p_sem=0.0, p_bit_orth=1.0)
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
        alloc = Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.3, p_bit_shared=0.7)
        pair = rates_for(scenario, realization, alloc)
        g_eff = min(realization.gain_s, realization.gain_b)
        expect = 1e6 * math.log2(
            1.0 + 0.7 * g_eff / (0.3 * g_eff + 1e6 * scenario.noise_psd)
        )
        assert pair.bit_rate == pytest.approx(expect, rel=1e-12)
        # Clean own-signal decode at the bit user's own gain is never slower.
        assert clean_rate(1e6, 0.7, realization.gain_b, scenario.noise_psd) >= pair.bit_rate

    def test_interference_hurts(self, scenario, realization):
        loud = Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.3, p_bit_shared=0.7)
        quiet = rates_for(scenario, realization, replace(loud, p_sem=0.0))
        loud = rates_for(scenario, realization, loud)
        assert loud.bit_rate < quiet.bit_rate

    def test_semantic_stream_sees_no_interference(self, scenario, realization):
        # The semantic receiver decodes last in the cancellation order.
        shared = Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.3, p_bit_shared=0.7)
        alone = rates_for(scenario, realization, replace(shared, p_bit_shared=0.0))
        shared = rates_for(scenario, realization, shared)
        assert shared.sem_rate == alone.sem_rate
        assert shared.similarity == alone.similarity

    def test_zero_power_floor_still_reported(self, scenario, realization):
        # The overlay keeps the semantic stream on: at zero power the
        # similarity sits at the curve floor, not at zero.
        alloc = Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.0, p_bit_shared=1.0)
        pair = rates_for(scenario, realization, alloc)
        assert pair.similarity == scenario.logistic.a_low
        assert pair.sem_rate == pytest.approx(
            1e6 * scenario.logistic.a_low / scenario.k
        )


class TestSemi:
    def test_reduces_to_overlay_when_shared_band_is_all(self, scenario, realization):
        overlay = Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.3, p_bit_shared=0.7)
        hybrid = Allocation(Scheme.SEMI, w_shared=1e6, p_sem=0.3, p_bit_shared=0.7)
        pair_o = rates_for(scenario, realization, overlay)
        pair_h = rates_for(scenario, realization, hybrid)
        assert pair_h.sem_rate == pair_o.sem_rate
        assert pair_h.bit_rate == pair_o.bit_rate
        assert pair_h.similarity == pair_o.similarity

    def test_reduces_to_orthogonal_when_no_shared_bit_power(self, scenario, realization):
        orth = Allocation(Scheme.OMA, w_sem=4e5, w_bit=6e5, p_sem=0.3, p_bit_orth=0.7)
        hybrid = Allocation(Scheme.SEMI, w_shared=4e5, w_bit=6e5, p_sem=0.3, p_bit_orth=0.7)
        pair_o = rates_for(scenario, realization, orth)
        pair_h = rates_for(scenario, realization, hybrid)
        assert pair_h.sem_rate == pair_o.sem_rate
        assert pair_h.bit_rate == pair_o.bit_rate

    def test_bit_rate_adds_both_bands(self, scenario, realization):
        hybrid = Allocation(
            Scheme.SEMI, w_shared=4e5, w_bit=6e5, p_sem=0.2, p_bit_shared=0.3, p_bit_orth=0.5
        )
        pair = rates_for(scenario, realization, hybrid)
        g_eff = realization.gain_eff
        shared = 4e5 * math.log2(
            1.0 + 0.3 * g_eff / (0.2 * g_eff + 4e5 * scenario.noise_psd)
        )
        orth = clean_rate(6e5, 0.5, realization.gain_b, scenario.noise_psd)
        assert pair.bit_rate == pytest.approx(shared + orth, rel=1e-12)

    # A shared band so narrow that p / inv overflows: at 1e-310 the inverse
    # slope is subnormal, at 5e-324 it underflows to 0.  The pipe carries
    # w * log2(p * g_eff / (w * N0)), near 1e-307 bit/s at 1e-310.
    @pytest.mark.parametrize("w", [1e-310, 5e-324])
    def test_subnormal_shared_band_carries_a_finite_rate(self, scenario, w):
        real = sample_realization(scenario, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = Allocation(
                Scheme.SEMI, w_shared=w, w_bit=1e6 - w, p_bit_shared=0.3, p_bit_orth=0.3
            )
            pair = rates_for(scenario, real, alloc)
            lines = np.array([[w], [0.0], [0.0], [0.0], [0.3], [0.0]])
            shared = bit_rates(scenario, real.gain_b, real.gain_eff, lines).item()
        clean = clean_rate(1e6, 0.3, real.gain_b, scenario.noise_psd)
        assert pair.bit_rate == clean
        log2_snr = math.log2(0.3 * real.gain_eff) - math.log2(w) - math.log2(scenario.noise_psd)
        assert shared == pytest.approx(w * log2_snr, rel=1e-15)
        assert 0.0 < shared < 2e-307

    def test_subnormal_shared_band_of_a_drawn_case(self):
        # The case a property test drew: the bit-only band has no power, so the shared pipe is all.
        scenario = Scenario(total_bandwidth=5e5, k=3, min_similarity=0.5, d_s=12.0, d_b=12.0)
        real = sample_realization(scenario, 0)
        assert (real.gain_s, real.gain_b) == (5.60085633963867e-10, 1.3333205180857152e-08)
        w = 5.5626846462680035e-303
        alloc = Allocation(Scheme.SEMI, w_shared=w, w_bit=5e5 - w, p_bit_shared=0.25)
        assert alloc.w_bit == 5e5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = rates_for(scenario, real, alloc)
        log2_snr = math.log2(0.25 * real.gain_eff) - math.log2(w) - math.log2(scenario.noise_psd)
        assert pair.bit_rate == pytest.approx(w * log2_snr, rel=1e-15)

    def test_dispatcher_routes_by_scheme(self, scenario, realization):
        allocs = [
            Allocation(Scheme.OMA, w_sem=4e5, w_bit=6e5, p_sem=0.3, p_bit_orth=0.7),
            Allocation(Scheme.NOMA, w_shared=1e6, p_sem=0.3, p_bit_shared=0.7),
            Allocation(
                Scheme.SEMI, w_shared=4e5, w_bit=6e5, p_sem=0.2, p_bit_shared=0.3, p_bit_orth=0.5
            ),
        ]
        for alloc in allocs:
            pair = rates_for(scenario, realization, alloc)
            assert isinstance(pair, RatePair)
            assert pair.bit_rate > 0.0
