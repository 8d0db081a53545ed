import csv
import math

import numpy as np
import pytest

from sembit import (
    PowerTargets,
    Scenario,
    SweepSpec,
    derive_seed,
    run_sweep,
    sample_realization,
    solve_semi_min_power,
)
from sembit.montecarlo import SCHEME_ORDER, _solve_draw


def small_spec(scenario, **overrides):
    kwargs = dict(
        scenario=scenario,
        variable="sigma_target",
        values=(0.0, 100e3, 150e3),
        targets=PowerTargets(0.0, 0.8, 8e5),
        n_realizations=6,
        base_seed=11,
        grid_n=64,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_validation(self, scenario):
        with pytest.raises(ValueError, match="variable"):
            small_spec(scenario, variable="power")
        with pytest.raises(ValueError, match="at least one value"):
            small_spec(scenario, values=())
        with pytest.raises(ValueError):
            small_spec(scenario, n_realizations=0)

    def test_apply_sigma(self, scenario):
        spec = small_spec(scenario)
        scn, tg = spec.apply(120e3)
        assert scn is scenario
        assert tg.sigma_target == 120e3
        assert tg.bit_target == 8e5

    def test_apply_min_similarity_updates_both(self, scenario):
        spec = small_spec(scenario, variable="min_similarity", values=(0.6,))
        scn, tg = spec.apply(0.6)
        assert scn.min_similarity == 0.6
        assert tg.min_similarity == 0.6

    def test_apply_k(self, scenario):
        spec = small_spec(scenario, variable="k", values=(3.0, 5.0))
        scn, tg = spec.apply(5.0)
        assert scn.k == 5
        assert tg is spec.targets

    def test_json_round_trip(self, scenario, tmp_path):
        spec = small_spec(scenario)
        path = tmp_path / "spec.json"
        spec.dump(path)
        assert SweepSpec.load(path) == spec


class TestRunSweep:
    def test_row_layout(self, scenario):
        spec = small_spec(scenario)
        result = run_sweep(spec)
        assert len(result.rows) == len(spec.values) * 3
        for i, row in enumerate(result.rows):
            assert row.scheme == SCHEME_ORDER[i % 3]
            assert row.sweep_value == spec.values[i // 3]
        assert len(result.rows_for("semi")) == len(spec.values)

    def test_deterministic_repeat(self, scenario):
        spec = small_spec(scenario)
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert a.rows == b.rows

    def test_rows_do_not_depend_on_other_sweep_values(self, scenario):
        # One draw per seed serves every sweep value, so a value's rows are
        # the same whichever other values share the sweep.
        full = run_sweep(small_spec(scenario))
        alone = run_sweep(small_spec(scenario, values=(150e3,)))
        assert alone.rows == tuple(r for r in full.rows if r.sweep_value == 150e3)

    def test_mean_matches_direct_average(self, scenario):
        # Recompute one cell by hand from the same derived seeds.
        spec = small_spec(scenario, values=(100e3,))
        result = run_sweep(spec)
        _, targets = spec.apply(100e3)
        totals = [
            solve_semi_min_power(
                scenario,
                sample_realization(scenario, derive_seed(spec.base_seed, i)),
                targets,
                spec.grid_n,
            ).total
            for i in range(spec.n_realizations)
        ]
        semi_row = result.rows_for("semi")[0]
        assert semi_row.mean_power_w == pytest.approx(np.mean(totals), rel=1e-12)
        assert semi_row.stderr == pytest.approx(
            np.std(totals, ddof=1) / math.sqrt(len(totals)), rel=1e-12
        )
        assert semi_row.infeasible_frac == 0.0

    def test_seeds_do_not_depend_on_realization_count(self, scenario):
        # Common random numbers: the first draws of a short and a long run
        # coincide, so adding realisations only extends the average.
        spec3 = small_spec(scenario, values=(100e3,), n_realizations=3)
        _, targets = spec3.apply(100e3)
        solo = [
            _solve_draw(
                scenario,
                targets,
                spec3.grid_n,
                sample_realization(scenario, derive_seed(spec3.base_seed, i)),
            )
            for i in range(3)
        ]
        spec6 = small_spec(scenario, values=(100e3,), n_realizations=6)
        longer = [
            _solve_draw(
                scenario,
                targets,
                spec6.grid_n,
                sample_realization(scenario, derive_seed(spec6.base_seed, i)),
            )
            for i in range(6)
        ]
        assert longer[:3] == solo

    def test_structural_infeasibility_marks_whole_value(self, scenario):
        # 260e3 needs 1.04 MHz at similarity 1: infeasible for every draw.
        spec = small_spec(scenario, values=(100e3, 260e3))
        result = run_sweep(spec)
        good = [r for r in result.rows if r.sweep_value == 100e3]
        bad = [r for r in result.rows if r.sweep_value == 260e3]
        assert all(r.infeasible_frac == 0.0 for r in good)
        for row in bad:
            assert row.infeasible_frac == 1.0
            assert math.isnan(row.mean_power_w)
            assert math.isnan(row.stderr)

    def test_semi_never_above_pure_schemes(self, scenario):
        spec = small_spec(scenario)
        result = run_sweep(spec)
        for value in spec.values:
            rows = {r.scheme: r for r in result.rows if r.sweep_value == value}
            assert rows["semi"].mean_power_w <= rows["oma"].mean_power_w * (1 + 1e-12)
            assert rows["semi"].mean_power_w <= rows["noma"].mean_power_w * (1 + 1e-12)

    def test_csv_round_trip(self, scenario, tmp_path):
        spec = small_spec(scenario, values=(100e3,))
        result = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        result.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sweep_value", "scheme", "mean_power_w", "stderr", "infeasible_frac"]
        assert len(rows) == 1 + 3
        for parsed, row in zip(rows[1:], result.rows):
            assert float(parsed[0]) == row.sweep_value
            assert parsed[1] == row.scheme
            assert float(parsed[2]) == row.mean_power_w
