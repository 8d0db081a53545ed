import csv
import json
import math
from importlib import resources

import numpy as np
import pytest

from sembit import (
    PowerSolution,
    PowerTargets,
    Scenario,
    Scheme,
    SweepSpec,
    derive_seed,
    montecarlo,
    run_sweep,
    sample_realization,
    search,
    solve_min_powers,
)
from sembit.cli import _VERIFY_RTOL, BUNDLED_SWEEPS
from sembit.montecarlo import SCHEME_ORDER, _sweep_totals
from sembit.power import TARGET_FIELDS, solve_min_powers_rows
from sembit.rates import ALLOC_FIELDS, rates_rows

from onerow import min_power


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

    @pytest.mark.parametrize(
        "variable, values, message",
        [
            ("sigma_target", (0.0, math.nan), "sigma_target must be finite, got nan"),
            ("bit_target", (8e5, math.inf), "bit_target must be finite, got inf"),
            ("min_similarity", (0.5, 1.5), r"min_similarity must lie in \[0, 1\)"),
            ("sigma_target", (0.0, -1.0), "targets must be non-negative"),
            ("k", (4, 99), "no S-curve for k=99"),
        ],
    )
    def test_bad_value_rejected_at_construction(self, scenario, variable, values, message):
        # Not later, inside run_sweep, after the draws are made.
        with pytest.raises(ValueError, match=message):
            small_spec(scenario, variable=variable, values=values)

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

    def test_from_dict_rejects_unknown_keys(self, scenario):
        # A misspelt key must not fall back to its default without a word.
        payload = small_spec(scenario).to_dict()
        with pytest.raises(ValueError, match=r"unknown sweep spec fields: \['n_realisations'\]"):
            SweepSpec.from_dict(dict(payload, n_realisations=4))
        targets = dict(payload["targets"], bits=8e5)
        with pytest.raises(ValueError, match=r"unknown sweep targets fields: \['bits'\]"):
            SweepSpec.from_dict(dict(payload, targets=targets))


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
            min_power(
                Scheme.SEMI,
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
        solo = _sweep_totals(
            spec3,
            [sample_realization(scenario, derive_seed(spec3.base_seed, i)) for i in range(3)],
        )[0].tolist()
        spec6 = small_spec(scenario, values=(100e3,), n_realizations=6)
        longer = _sweep_totals(
            spec6,
            [sample_realization(scenario, derive_seed(spec6.base_seed, i)) for i in range(6)],
        )[0].tolist()
        assert longer[:3] == solo

    def test_rows_equal_per_draw_solves(self, scenario, monkeypatch):
        # Four draws per batch, so ten draws span three batches.
        monkeypatch.setattr(search, "BATCH_CANDIDATES", 4 * 64)
        spec = small_spec(scenario, values=(0.0, 100e3, 260e3), n_realizations=10)
        result = run_sweep(spec)
        reals = [
            sample_realization(scenario, derive_seed(spec.base_seed, i))
            for i in range(spec.n_realizations)
        ]
        for value in spec.values:
            scn, targets = spec.apply(value)
            per_draw = np.array(
                [
                    [
                        sol.total if isinstance(sol, PowerSolution) else math.nan
                        for sol in solve_min_powers(scn, real, targets, spec.grid_n).values()
                    ]
                    for real in reals
                ]
            )
            for scheme, col in zip(SCHEME_ORDER, per_draw.T):
                (row,) = [r for r in result.rows if (r.sweep_value, r.scheme) == (value, scheme)]
                ok = np.isfinite(col)
                if ok.any():
                    assert row.mean_power_w == float(np.mean(col[ok]))
                    assert row.stderr == float(np.std(col[ok], ddof=1) / math.sqrt(ok.sum()))
                else:
                    assert math.isnan(row.mean_power_w)
                assert row.infeasible_frac == 1.0 - ok.sum() / len(col)

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


def one_row_totals(spec, reals):
    """(values, draws, schemes) minima from one solve_min_powers call per value and draw."""
    return np.array(
        [
            [
                [
                    sol.total if isinstance(sol, PowerSolution) else math.nan
                    for sol in solve_min_powers(scn, real, targets, spec.grid_n).values()
                ]
                for real in reals
            ]
            for scn, targets in map(spec.apply, spec.values)
        ]
    )


def summary(spec, totals):
    """run_sweep's (value, mean, stderr, infeasible_frac) rows, computed from ``totals``."""
    rows = []
    for value, arr in zip(spec.values, totals):
        for col in arr.T:
            ok = col[np.isfinite(col)]
            mean = float(np.mean(ok)) if ok.size else math.nan
            stderr = float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
            rows.append([value, mean, stderr if ok.size else math.nan, 1.0 - ok.size / len(col)])
    return np.array(rows)


class TestSweepPlugBack:
    """Every feasible sweep row, plugged back through ``rates_rows``, meets its targets."""

    @pytest.mark.parametrize("name", sorted(BUNDLED_SWEEPS))
    def test_bundled_rows_meet_their_targets(self, name):
        blob = resources.files("sembit.data").joinpath(BUNDLED_SWEEPS[name])
        payload = json.loads(blob.read_text(encoding="utf-8"))
        spec = SweepSpec.from_dict(dict(payload, n_realizations=60))
        reals = [
            sample_realization(spec.scenario, derive_seed(spec.base_seed, i)) for i in range(60)
        ]
        # The row sets _sweep_totals solves: every value of one source length.
        groups: dict[int, tuple] = {}
        for scenario, targets in map(spec.apply, spec.values):
            groups.setdefault(scenario.k, (scenario, []))[1].append(targets)
        checked = 0
        for scenario, triples in groups.values():
            targets = [t for t in triples for _ in reals]
            solved = solve_min_powers_rows(scenario, reals * len(triples), targets, spec.grid_n)
            gains = np.array([(r.gain_s, r.gain_b, r.gain_eff) for r in reals] * len(triples)).T
            want = np.array([[getattr(t, f) for t in targets] for f in TARGET_FIELDS])
            for scheme, rows in solved.items():
                ok = rows.cause == 0
                alloc = np.array([getattr(rows, f)[ok] for f in ALLOC_FIELDS])
                sem, bit, eps = rates_rows(scenario, *gains[:, ok], alloc)
                sigma, floor, bits = want[:, ok]
                assert (sem >= sigma * (1 - _VERIFY_RTOL)).all(), scheme
                carried = (sigma > 0) | (scheme is Scheme.NOMA)
                assert (eps[carried] >= floor[carried] * (1 - _VERIFY_RTOL)).all(), scheme
                assert (bit >= bits * (1 - _VERIFY_RTOL)).all(), scheme
                checked += int(ok.sum())
        assert checked > 0


class TestCrossValueRows:
    """The rows of every sweep value solved together equal one-row solves exactly."""

    def check(self, spec):
        reals = [
            sample_realization(spec.scenario, derive_seed(spec.base_seed, i))
            for i in range(spec.n_realizations)
        ]
        expect = one_row_totals(spec, reals)
        np.testing.assert_array_equal(_sweep_totals(spec, reals), expect)
        got = [
            [r.sweep_value, r.mean_power_w, r.stderr, r.infeasible_frac]
            for r in run_sweep(spec).rows
        ]
        np.testing.assert_array_equal(np.array(got), summary(spec, expect))
        return expect

    @pytest.mark.parametrize("name", sorted(BUNDLED_SWEEPS))
    def test_bundled_spec(self, name):
        blob = resources.files("sembit.data").joinpath(BUNDLED_SWEEPS[name])
        payload = json.loads(blob.read_text(encoding="utf-8"))
        self.check(SweepSpec.from_dict(dict(payload, n_realizations=6)))

    def test_zero_feasible_and_asymptote_values_in_one_batch(self, scenario, monkeypatch):
        # Five rows per batch, so batches straddle the two searched values;
        # 240e3 needs similarity 0.96 on the full band, above the 0.918 ceiling.
        monkeypatch.setattr(search, "BATCH_CANDIDATES", 5 * 64)
        spec = small_spec(scenario, values=(0.0, 100e3, 150e3, 240e3))
        totals = self.check(spec)
        assert np.isfinite(totals[:3]).all()
        assert np.isnan(totals[3]).all()

    @pytest.mark.parametrize("n_draws", [1, 2, 7])
    def test_statistics_equal_per_column_calls(self, scenario, monkeypatch, n_draws):
        # Fully, partly and not feasible columns; no bundled sweep has a
        # partly feasible one.
        rng = np.random.default_rng(n_draws)
        totals = rng.exponential(1.0, (4, n_draws, 3)) * 10.0 ** rng.uniform(-3, 3, (4, 1, 1))
        totals[1, 0] = np.nan
        totals[2] = np.nan
        totals[3, -1, 1] = np.nan
        monkeypatch.setattr(montecarlo, "_sweep_totals", lambda spec, reals: totals)
        spec = small_spec(scenario, values=(0.0, 50e3, 100e3, 150e3), n_realizations=n_draws)
        got = [
            [r.sweep_value, r.mean_power_w, r.stderr, r.infeasible_frac]
            for r in run_sweep(spec).rows
        ]
        np.testing.assert_array_equal(np.array(got), summary(spec, totals))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_statistics_stay_finite_near_the_float_maximum(self, scenario, monkeypatch, scale):
        # Totals of 1.0-1.5 x scale: at 1e200 the squared deviations
        # overflow, at 1e308 the sums do.  One column has an infinite draw,
        # as a bit power that overflows gives, and one a NaN.
        rng = np.random.default_rng(0)
        totals = rng.uniform(1.0, 1.5, (2, 4, 3)) * scale
        totals[1, 0, 1] = np.inf
        totals[1, 1, 2] = np.nan
        monkeypatch.setattr(montecarlo, "_sweep_totals", lambda spec, reals: totals)
        spec = small_spec(scenario, values=(0.0, 50e3), n_realizations=4)
        got = np.array(
            [
                [r.sweep_value, r.mean_power_w, r.stderr, r.infeasible_frac]
                for r in run_sweep(spec).rows
            ]
        )
        assert np.isfinite(got).all()
        # The statistics of the columns scaled by 2**-1100, scaled back.
        want = summary(spec, np.ldexp(totals, -1100))
        want[:, 1:3] = np.ldexp(want[:, 1:3], 1100)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
