import numpy as np
import pytest

from sembit.search import refine_search


class TestRefineSearch:
    def test_quadratic_max(self):
        x, f = refine_search(lambda x: -((x - 0.37) ** 2), 0.0, 1.0, 64)
        assert x == pytest.approx(0.37, abs=1e-5)
        assert f == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_min(self):
        x, f = refine_search(
            lambda x: (x - 2.6) ** 2 + 1.0, 0.0, 10.0, 64, maximize=False
        )
        assert x == pytest.approx(2.6, abs=1e-4)
        assert f == pytest.approx(1.0, abs=1e-8)

    def test_boundary_optimum(self):
        x, f = refine_search(lambda x: x, 0.0, 5.0, 32)
        assert x == 5.0
        assert f == 5.0

    def test_tie_breaks_low_by_default(self):
        x, _ = refine_search(lambda x: np.ones_like(x), 0.0, 1.0, 16)
        assert x == 0.0

    def test_tie_breaks_high_on_request(self):
        x, _ = refine_search(lambda x: np.ones_like(x), 0.0, 1.0, 16, tie_high=True)
        assert x == 1.0

    def test_extra_seed_always_wins_when_best(self):
        # A spike one grid-cell wide that only the seeded point hits.
        x0 = 0.123456789

        def spiky(x):
            return np.where(np.abs(x - x0) < 1e-12, 10.0, 0.0)

        x, f = refine_search(spiky, 0.0, 1.0, 11, extra=[x0])
        assert x == x0
        assert f == 10.0

    def test_extra_clipped_into_interval(self):
        x, f = refine_search(lambda x: -x, 0.0, 1.0, 11, extra=[-5.0, 7.0])
        assert x == 0.0
        assert f == 0.0

    def test_extra_accepts_generator(self):
        gen = (v for v in [0.5])
        x, _ = refine_search(lambda x: -((x - 0.5) ** 2), 0.0, 1.0, 3, extra=gen)
        assert x == 0.5

    def test_nan_candidates_lose(self):
        def partial(x):
            return np.where(x < 0.5, np.nan, -((x - 0.7) ** 2))

        x, f = refine_search(partial, 0.0, 1.0, 64)
        assert x == pytest.approx(0.7, abs=1e-5)
        assert not np.isnan(f)

    def test_all_nan_propagates_as_nan(self):
        # No live candidate anywhere: callers detect this via isnan/isfinite.
        x, f = refine_search(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 8)
        assert np.isnan(f)

    def test_degenerate_interval(self):
        x, f = refine_search(lambda x: x * 2.0, 3.0, 3.0, 16)
        assert x == 3.0
        assert f == 6.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            refine_search(lambda x: x, 1.0, 0.0, 16)

    def test_deterministic(self):
        def objective(x):
            return np.sin(3.0 * x) + 0.3 * np.cos(11.0 * x)

        a = refine_search(objective, 0.0, 4.0, 57)
        b = refine_search(objective, 0.0, 4.0, 57)
        assert a == b

    def test_refinement_beats_coarse_grid(self):
        target = 0.414213562

        def objective(x):
            return -np.abs(x - target)

        _, f_coarse = refine_search(objective, 0.0, 1.0, 9, levels=0)
        x_fine, f_fine = refine_search(objective, 0.0, 1.0, 9, levels=3)
        assert f_fine > f_coarse
        assert abs(x_fine - target) < 1e-3
