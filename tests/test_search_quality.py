"""The default searches against a dense reference (``tools/search_quality.py``)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sembit import (
    PowerTargets,
    Scenario,
    rates,
    sample_realization,
    search,
    solve_min_powers,
)
from sembit.power import solve_min_powers_rows
from sembit.rates import EPS_BANDS, eps_seeded_bands
from sembit.search import REFINE_SHRINK

from onerow import solve_oma_point, solve_semi_point

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_quality.py"
_spec = importlib.util.spec_from_file_location("search_quality", _TOOL)
quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality)


def test_random_scenarios_match_the_reference():
    gaps = quality.survey(40, seed=11)
    for name, g in gaps.items():
        assert g.size, name
        assert g.max() <= quality.TOL, (name, g.max())


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


def test_reference_levels_swap_the_seeds_and_restore_them():
    # The reference seeds its own bands, so cutting the default seeds
    # cannot weaken the reference that judges the cut.
    steps, original = rates._EPS_STEPS, search.refine_search
    scenario = Scenario()
    sigma = np.array([100e3])
    with quality.reference_levels():
        assert search.refine_search is not original
        np.testing.assert_array_equal(rates._EPS_STEPS, np.linspace(0.0, 1.0, 256))
        assert eps_seeded_bands(scenario, sigma, 0.8).shape == (1, quality.REF_SEEDS)
    assert rates._EPS_STEPS is steps and search.refine_search is original
    assert eps_seeded_bands(scenario, sigma, 0.8).shape == (1, EPS_BANDS)
    with pytest.raises(ZeroDivisionError), quality.reference_levels():
        1 / 0
    assert rates._EPS_STEPS is steps and search.refine_search is original


def test_reference_levels_deepen_the_searches(monkeypatch):
    # A row set that fits one batch in both phases is searched by one call:
    # one objective call for the coarse grid, then one per level.  An oma
    # boundary point searches 6 levels at zoom 8 (8 under the reference); a
    # one-row power solve searches its oma and semi rows together, 3 levels
    # at zoom 64 (4 under the reference).  A row set that spans several
    # batches makes coarse-phase calls of one objective call each, which the
    # reference leaves at the grid, then bracket-phase calls: 70 draws make
    # 140 power search rows of 88 coarse candidates, one batch at the
    # default grid and 47 batches of at most 3 at the reference grid (4,352
    # candidates with its 256 seeds), then 126 + 14 for the brackets.
    original = search.refine_search
    calls = []

    def counting(objective, *args, **kwargs):
        def counted(x):
            calls[-1] += 1
            return objective(x)

        calls.append(0)
        return original(counted, *args, **kwargs)

    monkeypatch.setattr(search, "refine_search", counting)
    scenario = Scenario()
    real = sample_realization(scenario, 7)
    targets = PowerTargets(sigma_target=150e3, min_similarity=0.8, bit_target=1e6)
    reals = [sample_realization(scenario, seed) for seed in range(70)]
    assert quality.REF_SHRINK == REFINE_SHRINK * 64 == 64**4
    for solve, default, deeper in (
        (lambda grid_n: solve_oma_point(scenario, real, 100e3, grid_n), [7], [9]),
        (lambda grid_n: solve_min_powers(scenario, real, targets, grid_n), [4], [5]),
        (
            lambda grid_n: solve_min_powers_rows(scenario, reals, [targets] * 70, grid_n),
            [1, 3, 3],
            [1] * 47 + [4, 4],
        ),
    ):
        calls.clear()
        solve(64)
        assert calls == default
        calls.clear()
        with quality.reference_levels():
            solve(quality.REF_GRID)
        assert calls == deeper
