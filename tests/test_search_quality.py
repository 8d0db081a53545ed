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
    # Each search makes one coarse objective call, then one per level: an
    # oma boundary point searches 6 levels at zoom 8 (8 under the
    # reference); a power solve searches oma, then semi, 3 levels each at
    # zoom 64 (4 under the reference).
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
    assert quality.REF_SHRINK == REFINE_SHRINK * 64 == 64**4
    for solve, searches, levels, deeper in (
        (lambda: solve_oma_point(scenario, real, 100e3), 1, 6, 8),
        (lambda: solve_min_powers(scenario, real, targets, 64), 2, 3, 4),
    ):
        calls.clear()
        solve()
        assert calls == [1 + levels] * searches
        calls.clear()
        with quality.reference_levels():
            solve()
        assert calls == [1 + deeper] * searches
