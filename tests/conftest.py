import numpy as np
import pytest

import sembit as sb


@pytest.fixture(scope="session")
def table():
    return sb.default_table()


@pytest.fixture()
def scenario():
    """Baseline asymmetric scenario: semantic user closer than bit user."""
    return sb.Scenario()


@pytest.fixture()
def symmetric_scenario():
    return sb.Scenario(d_s=30.0, d_b=30.0)


@pytest.fixture()
def realization(scenario):
    # Seed 7 is a power-sufficient draw for the baseline scenario (the
    # full band can be lifted to the similarity floor within budget).
    real = sb.sample_realization(scenario, 7)
    assert not sb.oma_extremes(scenario, real).power_limited
    return real


@pytest.fixture()
def rng():
    return np.random.default_rng(20240821)


@pytest.fixture(scope="session")
def assert_matches():
    """Check that an array kernel's result ``got`` matches a reference's ``want``.

    Shapes are equal; +-inf, 0 and NaN match exactly, and every other
    value lies within ``rtol`` of the reference's, relative.
    """

    def check(got, want, rtol=1e-12):
        assert np.shape(got) == np.shape(want)
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        exact = ~np.isfinite(want) | (want == 0)
        np.testing.assert_array_equal(got[exact], want[exact])
        near = np.abs(got[~exact] - want[~exact]) <= rtol * np.abs(want[~exact])
        assert near.all(), (got[~exact][~near][:5], want[~exact][~near][:5])

    return check
