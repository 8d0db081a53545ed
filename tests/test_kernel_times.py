"""The objective capture of ``tools/kernel_times.py``."""

import importlib.util
from pathlib import Path

import numpy as np

from sembit import (
    PowerTargets,
    Scenario,
    boundary,
    power,
    sample_realization,
    similarity,
    solve_min_powers,
)
from sembit.boundary import trace_region

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_times.py"
_spec = importlib.util.spec_from_file_location("kernel_times", _TOOL)
kernel_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_times)


def test_capture_records_every_objective_call_and_restores_the_search():
    scenario = Scenario()
    real = sample_realization(scenario, 7)
    saved = boundary.search_rows, power.search_rows
    certify = [getattr(boundary, name) for name in kernel_times.UNCERTIFIED]
    calls = {label: [] for label in kernel_times.OBJECTIVES.values()}
    with kernel_times.capture(calls):
        found, _ = trace_region(scenario, real, ["oma", "semi"], n_points=40)
        solve_min_powers(scenario, real, PowerTargets(100e3, 0.8, 8e5), 64)
    assert (boundary.search_rows, power.search_rows) == saved
    assert [getattr(boundary, name) for name in kernel_times.UNCERTIFIED] == certify
    # Seed 7 leaves every semi row to a certificate, so only the capture,
    # which switches the kink and over-budget ones off, sees semi calls.
    assert all(calls.values()), {label: len(made) for label, made in calls.items()}
    # A replay scores what the search scored: the objective is pure.
    for made in calls.values():
        for objective, x in made:
            score = objective(x)
            assert score.shape == x.shape
            np.testing.assert_array_equal(objective(x), score)
    assert kernel_times.replay_seconds(calls["boundary semi"]) > 0.0
    # Certified or searched, this draw's semi rows are the same, bit for bit.
    again, _ = trace_region(scenario, real, ["oma", "semi"], n_points=40)
    np.testing.assert_array_equal(again["semi"].bit_rate, found["semi"].bit_rate)


def test_fit_line_counts_the_cells_the_fit_scores(monkeypatch):
    scored = []
    cells = similarity._cells

    def spy(growth, offset, x, y):
        scored.append(growth.size)
        return cells(growth, offset, x, y)

    groups = kernel_times.fit_groups()
    assert [len(g) for g in groups] == [kernel_times.FIT_SAMPLES] * kernel_times.FIT_CURVES
    assert kernel_times.fit_seconds(groups) > 0.0
    coarse, steps, trials = kernel_times.fit_work(groups)
    assert similarity._cells is cells
    # The five curves run in one lockstep batch: a trial per moving curve and
    # damping each step.  A curve leaves the batch at its first step that
    # does not move it, and the search ends when none is left.
    assert 0 < steps < similarity.FIT_STEPS
    per_curve = similarity.FIT_DAMPINGS.size
    assert trials % per_curve == 0
    assert steps * per_curve < trials < steps * len(groups) * per_curve
    monkeypatch.setattr(similarity, "_cells", spy)
    similarity.fit_table(groups)
    assert sum(scored) == coarse + trials
