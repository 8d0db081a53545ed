import numpy as np
import pytest

from sembit.search import BATCH_CANDIDATES, _linspace_rows, refine_search, row_batches


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


class TestRowBatches:
    """A batched call equals one-row calls on each row, exactly."""

    LO = np.array([0.0, -1.0, 0.2, 1.5, 0.3])
    HI = np.array([2.0, 3.0, 0.9, 1.5, 4.0])  # row 3 is a point interval
    A = np.array([1.3, 2.1, 0.7, 5.0, 3.3])
    B = np.array([0.4, -0.8, 0.1, 0.5, 1.2])
    DEAD_LEFT = np.array([False, True, False, False, False])  # NaN below 0.5
    DEAD = np.array([False, False, True, False, False])  # NaN everywhere
    # Per-row extras, some outside their row's interval (clipped per row).
    EXTRA = np.array([[0.7, 9.0], [-4.0, 0.25], [0.5, 0.5], [1.0, 2.0], [3.9, 0.31]])

    def scores(self, rows):
        # Rounded, so ties between distinct candidates occur.
        a, b = self.A[rows, None], self.B[rows, None]
        dead = self.DEAD[rows, None]
        dead_left = self.DEAD_LEFT[rows, None]

        def f(x):
            y = np.round(np.sin(a * x) + b * np.cos(3.0 * x), 2)
            return np.where(dead | (dead_left & (x < 0.5)), np.nan, y)

        return f

    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("tie_high", [True, False])
    def test_batch_equals_rows(self, maximize, tie_high):
        kw = dict(maximize=maximize, tie_high=tie_high, extra=self.EXTRA)
        xs, fs = refine_search(self.scores(np.arange(5)), self.LO, self.HI, 33, **kw)
        for r in range(5):
            kw["extra"] = self.EXTRA[r]
            x, f = refine_search(self.scores(np.array([r])), self.LO[r], self.HI[r], 33, **kw)
            assert xs[r] == x
            assert fs[r] == f or (np.isnan(fs[r]) and np.isnan(f))
        assert np.isnan(fs[2]) and not np.isnan(fs[1]) and xs[1] >= 0.5
        assert xs[3] == 1.5

    def test_one_row_returns_floats_and_many_rows_arrays(self):
        x, f = refine_search(lambda v: -v, 0.0, 1.0, 8)
        assert type(x) is float and type(f) is float
        xs, fs = refine_search(lambda v: -v, np.zeros(3), 1.0, 8)
        assert xs.shape == fs.shape == (3,)

    def test_objective_sees_rows_by_candidates(self):
        shapes = []

        def objective(x):
            shapes.append(x.shape)
            return -x

        refine_search(objective, np.zeros(4), np.ones(4), 16, extra=[0.5])
        assert shapes == [(4, 17)] + [(4, 17)] * 3

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_grid_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            refine_search(lambda x: x, 0.0, 1.0, n)

    @pytest.mark.parametrize("n", [2, 7, 512])
    def test_row_grids_match_numpy_linspace(self, n):
        # Row 3's step underflows to zero, where np.linspace changes formula.
        start = np.array([0.0, -1.5, 3.0, 0.0, 1e-310])
        stop = np.array([1.0, 7.25, 3.0, 5e-324, 3e-310])
        rows = _linspace_rows(start, stop, np.arange(n, dtype=float))
        for r in range(len(start)):
            np.testing.assert_array_equal(rows[r], np.linspace(start[r], stop[r], n))

    def test_row_batches_cover_rows_in_order(self):
        size = BATCH_CANDIDATES // 512
        batches = row_batches(3 * size + 1, 512)
        assert [b.start for b in batches] == [0, size, 2 * size, 3 * size]
        assert np.arange(3 * size + 1)[batches[-1]].tolist() == [3 * size]
        assert row_batches(5, 10 * BATCH_CANDIDATES) == [slice(i, i + 1) for i in range(5)]
