import collections
import dataclasses
import importlib.util
import json
import math
import platform
import warnings
from pathlib import Path

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
    fit_table,
    invert_similarity,
    power_for_similarity_grid,
    read_samples_csv,
    required_power_for_similarity,
)

from sembit import search, similarity
from sembit.similarity import LN10_OVER_10

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_quality.py"
_spec = importlib.util.spec_from_file_location("fit_quality", _TOOL)
fit_quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_quality)
fit_logistic_reference = fit_quality.fit_logistic_reference
curve_samples = fit_quality.curve_samples
random_params = fit_quality.random_params

P4 = LogisticParams(k=4, a_low=0.2, a_high=0.9, growth=0.5, offset=-1.0)


def power_for_similarity_reference(params, targets, bandwidths, channel_gain, noise_psd):
    """The inverted S-curve as first written: SNR in dB from the log-odds, then linear.

    Kept as the reference for the closed form ``power_for_similarity_grid``
    uses now.
    """
    targets = np.asarray(targets, dtype=float)
    span = params.a_high - params.a_low
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = -np.log(span / (targets - params.a_low) - 1.0)
        snr_lin = np.exp(LN10_OVER_10 * (z - params.offset) / params.growth)
        power = bandwidths * noise_psd / channel_gain * snr_lin
    power = np.where(targets < params.a_high, power, np.inf)
    return np.where(targets <= params.a_low, 0.0, power)


def edge_targets(params):
    """Targets at, just inside and just outside both asymptotes, then 0, 1, +-inf and NaN."""
    ends = [params.a_low, params.a_high]
    around = [np.nextafter(a, d) for a in ends for d in (-np.inf, np.inf)]
    return np.array([*ends, *around, 0.0, 1.0, -np.inf, np.inf, np.nan])


def assert_no_worse(groups, counts=None):
    """Each group's fitted MSE is at most the bracket search's, times 1 + 1e-9, and its coarse cell's.

    ``counts`` tallies the bracket search's saturated and clipped cells.
    """
    fitted = fit_table(groups)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "FIT_STEPS", 0)
        coarse = fit_table(groups)
    for samples in groups:
        mse = fit_mse(fitted[samples[0].k], samples)
        bracketed = fit_mse(fit_logistic_reference(samples, counts), samples)
        assert mse <= bracketed * (1 + 1e-9), (samples[0].k, mse, bracketed)
        assert mse <= fit_mse(coarse[samples[0].k], samples)


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

    def test_array_matches_scalar(self, rng):
        # The scalar path equals the array path bit for bit: floats, numpy
        # scalars and 0-d arrays, both branches of the sigmoid, the
        # saturated tails, infinities, signed zeros, subnormals and NaN.
        x = np.concatenate(
            [
                np.linspace(-20.0, 20.0, 17),
                rng.uniform(-80.0, 80.0, 2000),
                rng.normal(0.0, 5.0, 2000),
                [math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan],
            ]
        )
        for params in (P4, *(random_params(rng) for _ in range(3))):
            y = eval_similarity(params, x)
            for make in (float, np.float64, np.asarray):
                scalar = [eval_similarity(params, make(xi)) for xi in x]
                assert all(type(v) is float for v in scalar)
                got, live = np.array(scalar), ~np.isnan(y)
                np.testing.assert_array_equal(got, y)  # NaN where the array path has NaN
                np.testing.assert_array_equal(got[live].view(np.int64), y[live].view(np.int64))

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


class TestPowerGridReference:
    """power_for_similarity_grid against the S-curve inverse it replaced."""

    def test_random_grids(self, rng, assert_matches):
        for _ in range(20):
            params = random_params(rng)
            targets = rng.uniform(params.a_low - 0.05, params.a_high + 0.05, size=(8, 50))
            bands = 10.0 ** rng.uniform(2.0, 7.0, size=(8, 50))
            gains = 10.0 ** rng.uniform(-12.0, -6.0, size=(8, 1))
            args = (params, targets, bands, gains, 1e-17)
            assert_matches(power_for_similarity_grid(*args), power_for_similarity_reference(*args))

    def test_edges(self, rng, assert_matches):
        for params in (P4, *(random_params(rng) for _ in range(10))):
            targets = edge_targets(params)
            args = (params, targets, 1e6, 1e-9, 1e-17)
            got = power_for_similarity_grid(*args)
            assert_matches(got, power_for_similarity_reference(*args))
            # At or above the ceiling (and NaN) costs +inf, at or below the floor nothing.
            assert np.isposinf(got[[1, 5, 7, 9, 10]]).all()
            assert (got[[0, 2, 6, 8]] == 0.0).all()

    @pytest.mark.parametrize("offset", [-30.0, 30.0])
    def test_steep_curves(self, offset, assert_matches):
        # At growth 0.005, exp(-c * offset) alone overflows (offset -30) or
        # underflows (offset 30), while the powers of targets near an
        # asymptote stay finite; in the exponent the factor does neither.
        params = LogisticParams(k=4, a_low=0.2, a_high=0.9, growth=0.005, offset=offset)
        near = 0.7 * np.logspace(-15.0, -7.0, 200)
        targets = np.concatenate([0.2 + near, 0.9 - near])
        args = (params, targets, 1e6, 1e-9, 1e-17)
        got = power_for_similarity_grid(*args)
        assert ((got > 0) & np.isfinite(got)).sum() > 20
        assert_matches(got, power_for_similarity_reference(*args))

    @pytest.mark.parametrize(
        "targets, bands",
        [
            (0.6, 1e6),
            (np.float64(0.95), 1e6),
            (np.array(0.1), np.array(1e6)),
            (np.full((3, 1), 0.6), np.linspace(1e5, 1e6, 4)),
            (np.array([[0.1], [0.6], [0.95]]), np.full((3, 5), 2e5)),
            (np.empty(0), 1e6),
            (np.empty((3, 0)), np.full((3, 1), 1e6)),
            (np.full((3, 1), 0.6), np.empty((3, 0))),
        ],
    )
    def test_shapes(self, targets, bands, assert_matches):
        args = (P4, targets, bands, 1e-9, 1e-17)
        assert_matches(power_for_similarity_grid(*args), power_for_similarity_reference(*args))


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
        assert (table == 1) is False  # not a table: __eq__ defers

    def test_from_dict_requires_entries(self):
        with pytest.raises(ValueError, match="entries"):
            ParamTable.from_dict({"rows": []})
        with pytest.raises(ValueError, match="at least one entry"):
            ParamTable([])

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

    @pytest.mark.parametrize(
        "truth", [TRUE, *default_table()], ids=["true", *(f"k{p.k}" for p in default_table())]
    )
    def test_no_worse_than_the_bracket_search(self, rng, truth):
        # The sample sets of the tests above, for every curve they draw from.
        assert_no_worse([
            self.samples_from(truth, np.linspace(-15.0, 25.0, 61), noise=0.01, rng=rng),
            self.samples_from(dataclasses.replace(truth, k=99), np.linspace(-15.0, 25.0, 41)),
            self.samples_from(dataclasses.replace(truth, k=98), np.linspace(-12.0, 22.0, 35)),
        ])

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

    def test_mixed_k_message_lists_its_ks_before_counting_samples(self):
        # A group too small to fit is still reported as mixed: no one k names it.
        samples = [SimilaritySample(k, float(k), 0.5) for k in (7, 4, 7)]
        with pytest.raises(ValueError) as caught:
            fit_table([samples])
        assert str(caught.value) == "samples mix source lengths [4, 7]"


class TestFitTable:
    """The lockstep fit of every curve against the same curves fitted one at a time."""

    # (sample count, noise, extra curve fields) per curve of each set.
    SETS = {
        "equal-counts": [(40, 0.02, {})] * 7,
        "unequal-counts": [(6, 0.01, {}), (17, 0.01, {}), (40, 0.02, {}), (40, 0.0, {}),
                           (61, 0.01, {}), (17, 0.03, {})],
        "one-curve": [(30, 0.01, {})],
        "noiseless": [(41, 0.0, {})] * 4,
        # Every sample far up the curve: steep coarse cells saturate, and
        # the steps start from clamped amplitudes.
        "saturated": [(25, 0.01, {"growth": 0.3, "offset": -18.0, "snr": (40.0, 80.0)})] * 2
        + [(25, 0.01, {})],
        # Curves that reach 1 just past the top sample: the fitted ceiling
        # is clamped to 1.
        "ceiling": [(30, 0.02, {"a_high": 1.0, "growth": 0.3, "offset": -6.0})] * 3,
        # Nearly linear curves: steps reach the hard bounds.
        "clipped": [(30, 0.01, {"growth": 0.01, "offset": 0.0}), (30, 0.0, {"growth": 0.02})],
        # Falling curves (SNRs mirrored): the ceiling is clamped to the floor.
        "falling": [(30, 0.02, {"mirror": True})] * 3,
    }
    # The step path each of these sets must take, from TestFitTable.paths.
    PATHS = {"saturated": "clamped", "ceiling": "ceiling", "clipped": "bound", "falling": "tied"}

    @staticmethod
    def groups(rng, curves):
        groups = []
        for k, (n, noise, fields) in enumerate(curves, start=3):
            fields = dict(fields)
            sign = -1.0 if fields.pop("mirror", False) else 1.0
            samples = curve_samples(rng, k, n, noise, **fields)
            groups.append([SimilaritySample(k, sign * s.snr_db, s.similarity) for s in samples])
        return groups

    @staticmethod
    def paths(monkeypatch):
        """A Counter of the steps' special paths, filled by spies on the step functions.

        ``clamped``: a curve steps from a clamped amplitude; ``ceiling``: from
        a ceiling clamped to 1; ``tied``: from a ceiling clamped to the
        floor; ``bound``: a trial cell is clipped to a hard bound.
        """
        counts = collections.Counter()
        cells, lm_steps = similarity._cells, similarity._lm_steps
        gap = similarity._AMPLITUDE_GAP

        def steps_spy(a_low, a_high, growth, offset, x, y):
            tied = a_high == a_low + gap
            counts["tied"] += int(tied.sum())
            counts["ceiling"] += int((a_high == 1.0).sum())
            counts["clamped"] += int((tied | np.isin(a_low, (0.0, 1.0 - gap)) | (a_high == 1.0)).sum())
            return lm_steps(a_low, a_high, growth, offset, x, y)

        def cells_spy(growth, offset, x, y):
            if growth.shape[1] == similarity.FIT_DAMPINGS.size:
                counts["bound"] += int(np.isin(growth, similarity.GROWTH_BOUNDS).sum())
                counts["bound"] += int(np.isin(offset, similarity.OFFSET_BOUNDS).sum())
            return cells(growth, offset, x, y)

        monkeypatch.setattr(similarity, "_lm_steps", steps_spy)
        monkeypatch.setattr(similarity, "_cells", cells_spy)
        return counts

    @pytest.mark.parametrize("name", list(SETS))
    def test_equals_the_per_curve_fit(self, rng, monkeypatch, name):
        counts = self.paths(monkeypatch)
        for _ in range(2):
            groups = self.groups(rng, self.SETS[name])
            want = ParamTable(p for g in groups for p in fit_table([g]))
            assert fit_table(groups) == want
            assert fit_table(reversed(groups)) == want
        if name in self.PATHS:
            assert counts[self.PATHS[name]] > 0, counts

    @pytest.mark.parametrize("name", list(SETS))
    def test_no_worse_than_the_bracket_search(self, rng, name):
        counts = collections.Counter()
        for _ in range(2):
            assert_no_worse(self.groups(rng, self.SETS[name]), counts)
        if name in ("saturated", "clipped"):
            assert counts[name] > 0, counts

    def test_one_group_is_fit_logistic(self, rng):
        samples = curve_samples(rng, 6, 33, 0.02)
        assert fit_logistic(samples) == fit_table([samples])[6]
        assert_no_worse([samples])

    def test_every_group_is_checked_before_any_fit(self, rng, monkeypatch):
        fitted = []
        monkeypatch.setattr(similarity, "_cells", lambda *args: fitted.append(args))
        good = curve_samples(rng, 3, 20, 0.01)
        mixed = good[:5] + [SimilaritySample(4, 0.0, 0.5)]
        for bad, error in ((good[:3], InsufficientData), (mixed, ValueError)):
            with pytest.raises(error):
                fit_table([good, bad])
        assert fitted == []

    def test_huge_finite_snr_raises_no_warning(self, rng):
        samples = curve_samples(rng, 4, 30, 0.01)
        huge = [SimilaritySample(4, 1e308, 0.9), SimilaritySample(4, -1e308, 0.2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fit_logistic(samples + huge)
        with np.errstate(over="ignore"):
            assert_no_worse([samples + huge])
        assert got == fit_table([samples + huge])[4]

    def test_largest_temporary_stays_under_the_mmap_threshold(self, rng, monkeypatch):
        # A cell batch's largest float temporary holds curves x cells x
        # samples floats, and a step's sample sums stack curves x 5 x
        # samples; each glibc chunk, plus the 8 B header rounded up to
        # 16 B, must stay under 128 KiB, as the searches' batches do.
        sizes, batches = [], []
        cells, lm_steps = similarity._cells, similarity._lm_steps

        def cells_spy(growth, offset, x, y):
            sizes.append(growth.size * x.shape[1])
            return cells(growth, offset, x, y)

        def steps_spy(a_low, a_high, growth, offset, x, y):
            batches.append(x.shape)
            sizes.append(5 * x.size)
            return lm_steps(a_low, a_high, growth, offset, x, y)

        monkeypatch.setattr(similarity, "_cells", cells_spy)
        monkeypatch.setattr(similarity, "_lm_steps", steps_spy)
        fit_table(self.groups(rng, [(n, 0.01, {}) for n in (4, *[40] * 5, 41, *[202] * 4, 255)]))
        # One batch per sample count, but the four 202-sample curves take two
        # (3 and 1); a batch narrows as its curves stop moving.
        widest = {}
        for curves, n in batches:
            widest[n] = max(widest.get(n, 0), curves)
        assert widest == {4: 1, 40: 5, 41: 1, 202: 3, 255: 1}
        assert (2, 40) in batches
        for floats in sizes:
            chunk = -(-(floats * 8 + 8) // 16) * 16
            assert chunk < search.MMAP_THRESHOLD, floats

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's trim threshold")
    def test_fits_fault_in_no_pages_after_warm_up(self, rng):
        # Before the chunked coarse grid each 5-curve fit faulted in about
        # 2,000 pages of mmapped temporaries.
        import resource  # Unix only, like glibc

        search._keep_heap()
        groups = self.groups(rng, [(40, 0.02, {})] * 5)
        for _ in range(3):
            fit_table(groups)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            fit_table(groups)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 5 <= 20


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
        path.write_text("k,snr_db,similarity\n4,0.0,0.5\n4,0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3: expected 3 columns, got 2$"):
            read_samples_csv(path)

    def test_out_of_range_similarity_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("k,snr_db,similarity\n4,0.0,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_samples_csv(path)

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_k_reports_line(self, tmp_path, k):
        path = tmp_path / "s.csv"
        path.write_text(f"k,snr_db,similarity\n4,0.0,0.5\n{k},1.0,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":3: k must be a positive integer, got {k}"):
            read_samples_csv(path)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            SimilaritySample(k, 1.0, 0.5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("k,snr_db,similarity\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data"):
            read_samples_csv(path)
