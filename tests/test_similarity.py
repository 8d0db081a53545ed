import json
import math

import numpy as np
import pytest

from sembit import (
    DegenerateData,
    InsufficientData,
    LogisticParams,
    ParamTable,
    Scenario,
    SimilaritySample,
    TargetBelowFloor,
    TargetUnreachable,
    default_table,
    eval_similarity,
    fit_logistic,
    fit_mse,
    invert_similarity,
    power_for_similarity_grid,
    read_samples_csv,
    required_power_for_similarity,
)

P4 = LogisticParams(k=4, a_low=0.2, a_high=0.9, growth=0.5, offset=-1.0)


def random_params(rng):
    a_low = rng.uniform(0.0, 0.5)
    a_high = rng.uniform(a_low + 0.1, 1.0)
    return LogisticParams(
        k=int(rng.integers(1, 40)),
        a_low=a_low,
        a_high=a_high,
        growth=rng.uniform(0.05, 2.0),
        offset=rng.uniform(-10.0, 10.0),
    )


class TestEval:
    def test_midpoint_is_halfway_between_asymptotes(self):
        # growth * snr + offset = 0 at snr = 2 dB for these params
        assert eval_similarity(P4, 2.0) == pytest.approx(0.2 + 0.7 * 0.5, rel=1e-15)

    def test_saturation(self):
        assert eval_similarity(P4, 400.0) == pytest.approx(0.9, abs=1e-12)
        assert eval_similarity(P4, -400.0) == pytest.approx(0.2, abs=1e-12)
        assert eval_similarity(P4, -math.inf) == 0.2
        assert eval_similarity(P4, math.inf) == pytest.approx(0.9, rel=1e-15)

    def test_monotone_increasing(self):
        x = np.linspace(-30.0, 30.0, 301)
        y = eval_similarity(P4, x)
        assert np.all(np.diff(y) > 0)

    def test_array_matches_scalar(self):
        x = np.linspace(-20.0, 20.0, 17)
        y = eval_similarity(P4, x)
        for xi, yi in zip(x, y):
            assert eval_similarity(P4, float(xi)) == yi

    def test_no_overflow_at_extreme_arguments(self):
        with np.errstate(over="raise"):
            y = eval_similarity(P4, np.array([-1e6, 1e6]))
        assert y[0] == pytest.approx(0.2)
        assert y[1] == pytest.approx(0.9)


class TestInvert:
    def test_round_trip_random(self, rng):
        for _ in range(300):
            params = random_params(rng)
            span = params.a_high - params.a_low
            t = params.a_low + span * rng.uniform(1e-6, 1.0 - 1e-6)
            x = invert_similarity(params, t)
            assert eval_similarity(params, x) == pytest.approx(t, abs=1e-12)

    def test_inverse_of_eval(self, rng):
        for _ in range(300):
            params = random_params(rng)
            x = rng.uniform(-25.0, 25.0)
            t = eval_similarity(params, x)
            span = params.a_high - params.a_low
            # Deep in a tail the similarity loses the SNR to rounding; the
            # inverse is only conditioned away from the asymptotes.
            if not (params.a_low + 1e-9 * span < t < params.a_high - 1e-9 * span):
                continue
            assert invert_similarity(params, t) == pytest.approx(x, abs=1e-4)

    def test_floor_raises(self):
        with pytest.raises(TargetBelowFloor):
            invert_similarity(P4, 0.2)
        with pytest.raises(TargetBelowFloor):
            invert_similarity(P4, 0.05)

    def test_ceiling_raises(self):
        with pytest.raises(TargetUnreachable):
            invert_similarity(P4, 0.9)
        with pytest.raises(TargetUnreachable):
            invert_similarity(P4, 0.99)


class TestRequiredPower:
    W = 1e6
    G = 1e-9
    N0 = 1e-17

    def test_matches_hand_computation(self):
        t = 0.55  # midpoint, so snr_db = 2 exactly
        p = required_power_for_similarity(P4, t, self.W, self.G, self.N0)
        snr_lin = 10.0 ** (2.0 / 10.0)
        assert p == pytest.approx(self.W * self.N0 / self.G * snr_lin, rel=1e-12)

    def test_free_below_floor(self):
        assert required_power_for_similarity(P4, 0.1, self.W, self.G, self.N0) == 0.0
        assert required_power_for_similarity(P4, 0.2, self.W, self.G, self.N0) == 0.0

    def test_unreachable_raises(self):
        with pytest.raises(TargetUnreachable):
            required_power_for_similarity(P4, 0.95, self.W, self.G, self.N0)

    def test_power_scales_with_bandwidth_and_noise(self):
        p1 = required_power_for_similarity(P4, 0.6, self.W, self.G, self.N0)
        p2 = required_power_for_similarity(P4, 0.6, 2 * self.W, self.G, self.N0)
        p3 = required_power_for_similarity(P4, 0.6, self.W, 2 * self.G, self.N0)
        assert p2 == pytest.approx(2 * p1, rel=1e-12)
        assert p3 == pytest.approx(0.5 * p1, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            required_power_for_similarity(P4, 0.6, 0.0, self.G, self.N0)
        with pytest.raises(ValueError):
            required_power_for_similarity(P4, 0.6, self.W, -1.0, self.N0)

    def test_grid_matches_scalar(self, rng):
        targets = rng.uniform(0.0, 1.0, size=200)
        bands = rng.uniform(1e3, 1e6, size=200)
        grid = power_for_similarity_grid(P4, targets, bands, self.G, self.N0)
        for t, w, p in zip(targets, bands, grid):
            if t >= P4.a_high:
                assert p == math.inf
            else:
                assert p == pytest.approx(
                    required_power_for_similarity(P4, t, w, self.G, self.N0), rel=1e-12
                )

    def test_grid_broadcasts(self):
        grid = power_for_similarity_grid(
            P4, np.array([0.1, 0.6, 0.95]), 1e6, self.G, self.N0
        )
        assert grid.shape == (3,)
        assert grid[0] == 0.0
        assert math.isfinite(grid[1])
        assert grid[2] == math.inf


class TestParamsValidation:
    def test_rejects_bad_asymptotes(self):
        with pytest.raises(ValueError):
            LogisticParams(4, -0.1, 0.9, 0.5, 0.0)
        with pytest.raises(ValueError):
            LogisticParams(4, 0.5, 0.4, 0.5, 0.0)
        with pytest.raises(ValueError):
            LogisticParams(4, 0.5, 1.1, 0.5, 0.0)

    def test_rejects_bad_growth_and_k(self):
        with pytest.raises(ValueError):
            LogisticParams(4, 0.2, 0.9, 0.0, 0.0)
        with pytest.raises(ValueError):
            LogisticParams(0, 0.2, 0.9, 0.5, 0.0)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            SimilaritySample(4, 0.0, 1.5)
        with pytest.raises(ValueError):
            SimilaritySample(4, math.nan, 0.5)


class TestParamTable:
    def test_default_table_contents(self, table):
        assert 4 in table
        assert table.lengths == tuple(sorted(table.lengths))
        for params in table:
            assert 0.0 <= params.a_low < params.a_high <= 1.0
            assert params.growth > 0

    def test_lookup_error_names_available_lengths(self, table):
        with pytest.raises(KeyError, match="k=999"):
            table[999]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamTable([P4, P4])

    def test_default_table_is_shared_and_read_only(self):
        assert Scenario().params is Scenario().params
        with pytest.raises(TypeError):
            Scenario().params._table[4] = P4

    def test_json_round_trip(self, table, tmp_path):
        path = tmp_path / "params.json"
        table.dump(path)
        assert ParamTable.load(path) == table

    def test_from_dict_requires_entries(self):
        with pytest.raises(ValueError, match="entries"):
            ParamTable.from_dict({"rows": []})

    def test_extra_json_keys_ignored(self, table):
        # "note" is the one free-text key; the bundled table carries one.
        payload = table.to_dict()
        payload["note"] = "annotation"
        assert ParamTable.from_dict(payload) == table

    def test_unknown_keys_rejected(self, table):
        payload = table.to_dict()
        payload["extra_top"] = 1
        with pytest.raises(ValueError, match=r"unknown parameter table fields: \['extra_top'\]"):
            ParamTable.from_dict(payload)
        payload = table.to_dict()
        payload["entries"][1]["typo"] = 1
        with pytest.raises(ValueError, match=r"unknown parameter table entry fields: \['typo'\]"):
            ParamTable.from_dict(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"entries": "abc"}, "with an \"entries\" list, got {'entries': 'abc'}"),
            ({"entries": [1, 2]}, "parameter table entry must be an object, got 1"),
            ([], "parameter table must be an object with an \"entries\" list, got \\[\\]"),
            (
                {"entries": [{"k": 4, "a_low": 0.2, "a_high": 0.9, "growth": 0.5, "offset": None}]},
                "offset must be a number, got None",
            ),
        ],
        ids=["entries-string", "entries-numbers", "payload-list", "offset-null"],
    )
    def test_wrongly_typed_payload_rejected(self, payload, message):
        with pytest.raises(ValueError, match=message):
            ParamTable.from_dict(payload)


class TestFit:
    TRUE = LogisticParams(k=4, a_low=0.21, a_high=0.93, growth=0.62, offset=-2.4)

    @staticmethod
    def samples_from(params, snrs, noise=None, rng=None):
        y = eval_similarity(params, np.asarray(snrs, dtype=float))
        if noise is not None:
            y = np.clip(y + rng.normal(0.0, noise, size=y.shape), 0.0, 1.0)
        return [SimilaritySample(params.k, float(x), float(v)) for x, v in zip(snrs, y)]

    def test_noiseless_recovery(self):
        snrs = np.linspace(-15.0, 25.0, 41)
        fitted = fit_logistic(self.samples_from(self.TRUE, snrs))
        assert fitted.k == 4
        assert fitted.a_low == pytest.approx(self.TRUE.a_low, abs=1e-3)
        assert fitted.a_high == pytest.approx(self.TRUE.a_high, abs=1e-3)
        assert fitted.growth == pytest.approx(self.TRUE.growth, abs=1e-3)
        assert fitted.offset == pytest.approx(self.TRUE.offset, abs=1e-2)

    @pytest.mark.parametrize(
        "truth", [TRUE, *default_table()], ids=["true", *(f"k{p.k}" for p in default_table())]
    )
    def test_noisy_fit_beats_truth_on_mse(self, rng, truth):
        # Least squares must do at least as well as the generating curve.
        snrs = np.linspace(-15.0, 25.0, 61)
        samples = self.samples_from(truth, snrs, noise=0.01, rng=rng)
        fitted = fit_logistic(samples)
        assert fit_mse(fitted, samples) <= fit_mse(truth, samples) * (1 + 1e-9)

    def test_deterministic(self):
        snrs = np.linspace(-12.0, 22.0, 35)
        samples = self.samples_from(self.TRUE, snrs)
        assert fit_logistic(samples) == fit_logistic(samples)

    def test_too_few_samples(self):
        snrs = [-10.0, 0.0, 10.0]
        with pytest.raises(InsufficientData):
            fit_logistic(self.samples_from(self.TRUE, snrs))

    def test_too_few_distinct_snrs(self):
        snrs = [0.0, 0.0, 5.0, 5.0, 10.0]
        with pytest.raises(InsufficientData):
            fit_logistic(self.samples_from(self.TRUE, snrs))

    def test_constant_similarity(self):
        samples = [SimilaritySample(4, float(x), 0.5) for x in range(6)]
        with pytest.raises(DegenerateData):
            fit_logistic(samples)

    def test_mixed_k_rejected(self):
        samples = [SimilaritySample(4, float(x), 0.2 + 0.1 * x) for x in range(4)]
        samples.append(SimilaritySample(5, 4.0, 0.7))
        with pytest.raises(ValueError, match="mix"):
            fit_logistic(samples)


class TestSamplesCsv:
    def test_reads_and_groups(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "k,snr_db,similarity\n4,-3.0,0.4\n8,1.0,0.6\n4,2.5,0.7\n",
            encoding="utf-8",
        )
        groups = read_samples_csv(path)
        assert sorted(groups) == [4, 8]
        assert len(groups[4]) == 2
        assert groups[4][1].snr_db == 2.5

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("k,snr_db,similarity\n\n4,0.0,0.5\n", encoding="utf-8")
        assert len(read_samples_csv(path)[4]) == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("k,snr,sim\n4,0.0,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_samples_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("k,snr_db,similarity\n4,0.0,0.5\n4,oops,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3:"):
            read_samples_csv(path)

    def test_out_of_range_similarity_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("k,snr_db,similarity\n4,0.0,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_samples_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("k,snr_db,similarity\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data"):
            read_samples_csv(path)
