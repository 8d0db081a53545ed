import json
import math

import numpy as np
import pytest
from scipy import stats

from sembit import (
    ChannelRealization,
    DistanceBelowReference,
    LogisticParams,
    PowerTargets,
    Scenario,
    dbm_to_watt,
    derive_seed,
    path_loss,
    sample_realization,
    watt_to_dbm,
)


class TestUnits:
    def test_dbm_anchors(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watt(-140.0) == pytest.approx(1e-17, rel=1e-12)

    def test_round_trip(self, rng):
        for dbm in rng.uniform(-180.0, 50.0, size=50):
            assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, abs=1e-10)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Scenario(total_bandwidth=math.nan),
        lambda: Scenario(max_power=math.inf),
        lambda: Scenario(noise_psd=math.nan),
        lambda: Scenario(d_b=math.inf),
        lambda: LogisticParams(k=4, a_low=0.1, a_high=0.9, growth=math.nan, offset=0.0),
        lambda: LogisticParams(k=4, a_low=0.1, a_high=0.9, growth=0.5, offset=math.inf),
        lambda: PowerTargets(sigma_target=math.nan, min_similarity=0.8, bit_target=1e5),
        lambda: PowerTargets(sigma_target=1e5, min_similarity=0.8, bit_target=math.inf),
        lambda: ChannelRealization(gain_s=math.inf, gain_b=1e-9),
        lambda: ChannelRealization(gain_s=1e-9, gain_b=math.nan),
    ],
)
def test_non_finite_input_rejected_at_construction(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 1e-3, 4.0) == 1e-3

    def test_power_law(self):
        assert path_loss(20.0, 1e-3, 4.0) == pytest.approx(1e-3 * 20.0**-4, rel=1e-12)
        assert path_loss(10.0, 1e-3, 2.0) == pytest.approx(1e-5, rel=1e-12)

    def test_below_reference_rejected(self):
        with pytest.raises(DistanceBelowReference):
            path_loss(0.5, 1e-3, 4.0)

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            path_loss(10.0, 0.0, 4.0)
        with pytest.raises(ValueError):
            path_loss(10.0, 1e-3, -1.0)


class TestScenario:
    def test_defaults(self, scenario):
        assert scenario.total_bandwidth == 1e6
        assert scenario.max_power == 1.0
        assert scenario.noise_psd == 1e-17
        assert scenario.k == 4
        assert scenario.min_similarity == 0.8
        assert (scenario.d_s, scenario.d_b) == (20.0, 30.0)
        assert scenario.mean_gain_s == pytest.approx(1e-3 * 20.0**-4)
        assert scenario.mean_gain_b == pytest.approx(1e-3 * 30.0**-4)
        assert scenario.logistic.k == 4

    def test_validation(self, table):
        with pytest.raises(ValueError):
            Scenario(total_bandwidth=0.0)
        with pytest.raises(ValueError):
            Scenario(min_similarity=1.0)
        with pytest.raises(ValueError):
            Scenario(k=999)  # not in the bundled table
        with pytest.raises(DistanceBelowReference):
            Scenario(d_s=0.2)

    def test_with_updates_is_fresh_instance(self, scenario):
        other = scenario.with_updates(d_b=45.0)
        assert other.d_b == 45.0
        assert scenario.d_b == 30.0
        assert other.params is scenario.params

    def test_dict_round_trip(self, scenario, tmp_path):
        path = tmp_path / "scenario.json"
        scenario.dump(path)
        assert Scenario.load(path) == scenario

    def test_from_dict_dbm_units(self, scenario):
        payload = {"units": "dBm", "max_power": 30.0, "noise_psd": -140.0}
        loaded = Scenario.from_dict(payload)
        assert loaded.max_power == pytest.approx(1.0, rel=1e-12)
        assert loaded.noise_psd == pytest.approx(1e-17, rel=1e-12)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"bandwidth": 1e6})

    def test_from_dict_rejects_other_units(self):
        with pytest.raises(ValueError, match="units"):
            Scenario.from_dict({"units": "dBW"})

    def test_from_dict_defaults_param_table(self, table):
        loaded = Scenario.from_dict({"d_b": 40.0})
        assert loaded.params == table

    def test_digest_tracks_content(self, scenario):
        d0 = scenario.digest()
        assert d0 == scenario.digest()
        assert len(d0) == 64
        assert scenario.with_updates(d_b=31.0).digest() != d0


class TestRealization:
    def test_positive_gains_required(self):
        with pytest.raises(ValueError):
            ChannelRealization(gain_s=0.0, gain_b=1e-9)

    def test_effective_gain_is_weaker_link(self):
        real = ChannelRealization(gain_s=2e-9, gain_b=3e-9)
        assert real.gain_eff == 2e-9
        real = ChannelRealization(gain_s=5e-9, gain_b=3e-9)
        assert real.gain_eff == 3e-9

    def test_sampling_deterministic(self, scenario):
        a = sample_realization(scenario, 42)
        b = sample_realization(scenario, 42)
        assert (a.gain_s, a.gain_b) == (b.gain_s, b.gain_b)
        c = sample_realization(scenario, 43)
        assert (a.gain_s, a.gain_b) != (c.gain_s, c.gain_b)

    def test_draws_equal_numpy_philox_generator(self, scenario):
        # The integer Philox block against numpy's Generator path, bit for bit.
        rng = np.random.default_rng(2026)
        edges = [0, 1, 2, 2**32, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 7, 2**100 + 3, -1]
        seeds = edges + rng.integers(0, 2**63, 10_000, dtype=np.int64).tolist()
        seeds += [s + 2**63 for s in seeds[-2_000:]]
        mean = np.array([scenario.mean_gain_s, scenario.mean_gain_b])
        for seed in seeds:
            key = seed & (2**64 - 1)
            u = np.random.Generator(np.random.Philox(key=key)).random(2)
            expect = mean * -np.log1p(-u)
            real = sample_realization(scenario, seed)
            got = np.array([real.gain_s, real.gain_b])
            np.testing.assert_array_equal(got.view(np.int64), expect.view(np.int64), err_msg=seed)
            assert real.seed == key

    def test_gains_scale_with_mean(self, scenario):
        near = sample_realization(scenario, 5)
        far = sample_realization(scenario.with_updates(d_s=40.0), 5)
        # Same fading draw, different path loss: ratio is exactly (40/20)^-4.
        assert far.gain_s / near.gain_s == pytest.approx(2.0**-4.0, rel=1e-12)
        assert far.gain_b == near.gain_b

    def test_rayleigh_power_distribution(self, scenario):
        # Normalised gains must look like unit-mean exponentials.
        n = 4000
        e_s = np.array(
            [
                sample_realization(scenario, seed).gain_s / scenario.mean_gain_s
                for seed in range(n)
            ]
        )
        assert e_s.mean() == pytest.approx(1.0, abs=0.05)
        ks = stats.kstest(e_s, "expon")
        assert ks.pvalue > 0.01

    def test_links_uncorrelated(self, scenario):
        n = 2000
        draws = [sample_realization(scenario, seed) for seed in range(n)]
        e_s = np.array([d.gain_s for d in draws]) / scenario.mean_gain_s
        e_b = np.array([d.gain_b for d in draws]) / scenario.mean_gain_b
        corr = np.corrcoef(e_s, e_b)[0, 1]
        assert abs(corr) < 0.06


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(123, 7) == derive_seed(123, 7)

    def test_distinct_for_nearby_inputs(self):
        seen = {derive_seed(0, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_64_bit_range(self):
        for i in range(100):
            s = derive_seed(999, i)
            assert 0 <= s < 2**64

    def test_schedule_independent(self):
        # Realisation i must not depend on how many realisations exist.
        head = [derive_seed(5, i) for i in range(3)]
        longer = [derive_seed(5, i) for i in range(100)]
        assert longer[:3] == head
