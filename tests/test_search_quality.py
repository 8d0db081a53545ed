"""The default searches against a dense reference (``tools/search_quality.py``)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sembit.boundary
import sembit.power
from sembit import (
    PowerTargets,
    Scenario,
    Scheme,
    derive_seed,
    rates,
    sample_realization,
    search,
    solve_min_powers,
    trace_region,
)
from sembit.power import solve_min_powers_rows
from sembit.rates import EPS_BANDS, eps_seeded_bands
from sembit.search import DEFAULT_GRID_N, REFINE_SHRINK

from onerow import solve_oma_point, solve_semi_point

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_quality.py"
_spec = importlib.util.spec_from_file_location("search_quality", _TOOL)
quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality)


def test_random_scenarios_match_the_reference():
    gaps, certified = quality.survey(40, seed=11)
    for name, g in gaps.items():
        assert g.size, name
        assert g.max() <= quality.TOL, (name, g.max())
    # Each certificate settles some default semi rows unsearched, but not all.
    assert set(certified) == set(quality.CERTIFICATES)
    for name, n in certified.items():
        assert 0 < n < gaps["boundary semi"].size, name
    assert sum(certified.values()) < gaps["boundary semi"].size


@pytest.mark.parametrize("seed", [7, 4])  # 4 is a power-limited draw
def test_default_rows_skip_the_certified_semi_searches_and_the_reference_none(monkeypatch, seed):
    # The default run solves the semi rows as trace_region does; the
    # reference searches every one of them.
    scenario = Scenario()
    real = sample_realization(scenario, seed)
    sigma = np.linspace(0.0, sembit.boundary.oma_extremes(scenario, real).sigma_max, 13)
    masks = []
    original = sembit.boundary._semi_points

    def spy(*args):
        masks.append(args[7:])
        return original(*args)

    monkeypatch.setattr(sembit.boundary, "_semi_points", spy)
    found, ref = quality.both(quality.boundary_rows, scenario, real, sigma)
    live = sigma != 0.0
    assert list(found["certified"].values()) == [int((m & live).sum()) for m in masks[0]]
    assert sum(found["certified"].values()) > 0
    assert not any(ref["certified"].values()) and not np.any(masks[1])
    # The dense reference search ends where the certificates put the rows.
    settled = np.logical_or.reduce(masks[0])
    np.testing.assert_array_equal(found["semi"][settled], ref["semi"][settled])


def test_pinned_second_basin_is_found():
    # A uniform 64-point grid alone lands in the lower basin here:
    # 1,572,008.89 bit/s at a 607.0 kHz semantic band.
    for scheme, gap in quality.pinned_gaps().items():
        assert gap <= quality.TOL, (scheme, gap)


@pytest.mark.parametrize("solve", [solve_oma_point, solve_semi_point])
def test_pinned_row_value(solve):
    pinned = quality.PINNED
    scenario = Scenario(**pinned["scenario"])
    real = sample_realization(scenario, pinned["seed"])
    point = solve(scenario, real, pinned["sigma"])
    assert point.bit_rate == pytest.approx(1_588_176.36, abs=0.4)
    # The optimum carries the semantic stream alone, on a 709.8 kHz band.
    band = point.alloc.w_sem + point.alloc.w_shared
    assert np.isclose(band, 709.8e3, atol=0.1e3)


# Rows where an exact kink seed, the first similarity-seeded band, nearly
# ties an interior basin that too few seeds under-sample: (scenario, draw
# seed, solve, sigma, bit rate the row must reach, its similarity).  16
# seeds leave the oma row at 2,353,983.8 bit/s on the curve-floor kink
# (similarity 0.208), 8 seeds the semi row at 3,226,473.8 on the floor.
NEAR_TIES = [
    (
        dict(
            k=7,
            min_similarity=0.061041640070095736,
            d_s=56.1460667039985,
            d_b=42.63273785847445,
            max_power=0.09981529904934307,
        ),
        1,
        solve_oma_point,
        7025.750179459323,
        2_354_150.2,
        0.534,
    ),
    (
        dict(
            k=3,
            min_similarity=0.20429224042421046,
            d_s=44.163363311589045,
            d_b=59.62791303337682,
            max_power=1.8252542956051556,
        ),
        376337617,
        solve_semi_point,
        24164.426279211333,
        3_226_584.0,
        0.615,
    ),
]


@pytest.mark.parametrize("case", NEAR_TIES, ids=["oma", "semi"])
def test_near_tie_row_finds_the_interior_basin(case):
    params, seed, solve, sigma, rate, similarity = case
    scenario = Scenario(**params)
    point = solve(scenario, sample_realization(scenario, seed), sigma)
    assert point.bit_rate >= rate
    assert point.similarity == pytest.approx(similarity, abs=5e-4)


# Scenario 52 of the trace gate (``default_rng(5)``) at draw derive_seed(0, 3),
# traced with every scheme: (scheme, row, sigma, the row's bit rate at grid
# 4,096).  Grids 16 to 4,096 agree on both rows.  The default grid stops oma
# row 194 on the free-power kink seed at 987,206 Hz, 81,960.06 bit/s, and
# semi row 374 at 8,566.31: misses of 5.16e-5 and 4.25e-5 of the boundary
# maximum, 1,051,197.5, which tools/search_quality.py does not report.
MISSED = dict(
    k=7,
    min_similarity=0.05610992444198664,
    d_s=34.786275253268144,
    d_b=29.321061370756738,
    max_power=0.033677351776943365,
)
MISSED_ROWS = [
    ("oma", 194, 29334.121796074753, 82014.30633361709),
    ("semi", 374, 30005.926214857045, 8611.00416176882),
]


@pytest.mark.parametrize(
    "grid_n",
    [16, pytest.param(DEFAULT_GRID_N, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 10"))],
)
def test_default_grid_miss_rows_reach_the_dense_grid(grid_n):
    scenario = Scenario(**MISSED)
    real = sample_realization(scenario, derive_seed(0, 3))
    found, _ = trace_region(scenario, real, ["oma", "noma", "semi"], grid_n=grid_n)
    top = found[Scheme.OMA].bit_rate.max()
    assert top == pytest.approx(1_051_197.5, abs=0.1)
    for scheme, row, sigma, rate in MISSED_ROWS:
        boundary = found[Scheme(scheme)]
        assert boundary.sigma[row] == sigma
        assert boundary.bit_rate[row] >= rate - 1e-9 * top, scheme


def test_reference_levels_swap_the_seeds_and_restore_them():
    # The reference seeds its own bands, so cutting the default seeds
    # cannot weaken the reference that judges the cut.
    # It also certifies no semi row, so that it searches every one.
    steps = rates._EPS_STEPS
    certify = {name: getattr(sembit.boundary, name) for name in quality.CERTIFICATES.values()}
    assert len(certify) == 3
    scenario = Scenario()
    sigma = np.array([100e3])
    with quality.reference_levels():
        assert search.REFINE_SHRINK == quality.REF_SHRINK
        np.testing.assert_array_equal(rates._EPS_STEPS, np.linspace(0.0, 1.0, 256))
        assert eps_seeded_bands(scenario, sigma, 0.8).shape == (1, quality.REF_SEEDS)
        for name in certify:
            assert getattr(sembit.boundary, name) is quality.no_certificate
    assert rates._EPS_STEPS is steps and search.REFINE_SHRINK == REFINE_SHRINK
    for name, original in certify.items():
        assert getattr(sembit.boundary, name) is original
    assert eps_seeded_bands(scenario, sigma, 0.8).shape == (1, EPS_BANDS)
    with pytest.raises(ZeroDivisionError), quality.reference_levels():
        1 / 0
    assert rates._EPS_STEPS is steps and search.REFINE_SHRINK == REFINE_SHRINK
    for name, original in certify.items():
        assert getattr(sembit.boundary, name) is original


def test_reference_levels_deepen_the_searches(monkeypatch):
    # Each search makes one objective call per coarse batch, then one per
    # level for each bracket batch; the reference adds levels and leaves
    # the coarse grid alone.  An oma boundary point searches 6 levels at
    # zoom 8 (8 under the reference); a one-row power solve searches its
    # oma and semi rows together, 3 levels at zoom 64 (4 under the
    # reference).  70 draws make 140 power search rows of 88 coarse
    # candidates, one batch at the default grid and 47 batches of at most 3
    # at the reference grid (4,352 candidates with its 256 seeds), then
    # bracket batches of 126 and 14 rows.  Each list holds the rows of
    # each objective call of one search.
    calls = []

    def counting(original):
        def spy(objective, *args, **kwargs):
            def counted(cols, x):
                calls[-1].append(len(x))
                return objective(cols, x)

            calls.append([])
            return original(counted, *args, **kwargs)

        return spy

    for module in (sembit.boundary, sembit.power):
        monkeypatch.setattr(module, "search_rows", counting(module.search_rows))
    scenario = Scenario()
    real = sample_realization(scenario, 7)
    targets = PowerTargets(sigma_target=150e3, min_similarity=0.8, bit_target=1e6)
    reals = [sample_realization(scenario, seed) for seed in range(70)]
    assert quality.REF_SHRINK == REFINE_SHRINK * 64 == 64**4
    for solve, default, deeper in (
        (lambda grid_n: solve_oma_point(scenario, real, 100e3, grid_n), [1] * 7, [1] * 9),
        (lambda grid_n: solve_min_powers(scenario, real, targets, grid_n), [2] * 4, [2] * 5),
        (
            lambda grid_n: solve_min_powers_rows(scenario, reals, [targets] * 70, grid_n),
            [140] + [126] * 3 + [14] * 3,
            [3] * 46 + [2] + [126] * 4 + [14] * 4,
        ),
    ):
        calls.clear()
        solve(64)
        assert calls == [default]
        calls.clear()
        with quality.reference_levels():
            solve(quality.REF_GRID)
        assert calls == [deeper]
