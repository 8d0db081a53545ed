"""The default searches against a dense reference (``tools/search_quality.py``)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sembit import (
    PowerTargets,
    Scenario,
    sample_realization,
    search,
    solve_min_powers,
    solve_oma_point,
    solve_semi_point,
)
from sembit.power import solve_min_powers_rows
from sembit.search import REFINE_SHRINK

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


def test_reference_levels_deepen_the_searches(monkeypatch):
    # A row set that fits one batch in both phases is searched by one call:
    # one objective call for the coarse grid, then one per level.  An oma
    # boundary point searches 6 levels at zoom 8 (8 under the reference); a
    # one-row power solve searches its oma and semi rows together, 3 levels
    # at zoom 64 (4 under the reference).  A row set that spans several
    # batches makes coarse-phase calls of one objective call each, which the
    # reference leaves at the grid, then bracket-phase calls: 70 draws make
    # 140 power search rows, cut into 126 + 14 rows at the default grid and
    # into 47 batches of at most 3 at the reference grid, then 126 + 14 for
    # the brackets.
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
            [1, 1, 3, 3],
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
