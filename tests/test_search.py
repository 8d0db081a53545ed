import math
import platform

import numpy as np
import pytest

from sembit import Scenario, Scheme, boundary, power, sample_realization, search, trace_region
from sembit.rates import EPS_BANDS
from sembit.search import (
    BATCH_CANDIDATES,
    DEFAULT_GRID_N,
    REFINE_SHRINK,
    _linspace_rows,
    _pick,
    refine_levels,
    row_batches,
    search_rows,
)

# The zooms the package searches with: the boundary's, then the power searches'.
ZOOMS = (boundary.SEARCH_ZOOM, power.SEARCH_ZOOM)


def searched(scores, lo, hi, n, *, extra=None, maximize=True, tie_high=False, zoom=ZOOMS[1]):
    """:func:`search_rows` over the rows of ``lo`` and ``hi``; returns (x, f) arrays.

    Each row's line of ``cols`` is its index, and ``scores(rows)`` maps
    the candidates of the rows ``rows`` to their scores.  ``extra`` is
    a rows x m matrix, or one row's m candidates, or None for none.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    extra = np.zeros((len(lo), 0)) if extra is None else np.asarray(extra, dtype=float)
    extra = extra.reshape(len(lo), -1)
    cols = np.arange(len(lo))[:, None]
    kw = dict(maximize=maximize, tie_high=tie_high, zoom=zoom)
    return search_rows(lambda c, x: scores(c[:, 0])(x), cols, lo, hi, extra, n, **kw)


def one_row(objective, lo, hi, n, **kw):
    """(x, f) of :func:`searched` on the one row [lo, hi]; ``objective`` scores its candidates."""
    x, f = searched(lambda rows: objective, [lo], [hi], n, **kw)
    return x[0], f[0]


class TestRefineSearch:
    """The grid-plus-brackets search on one-row sets."""

    def test_quadratic_max(self):
        x, f = one_row(lambda x: -((x - 0.37) ** 2), 0.0, 1.0, 64)
        assert x == pytest.approx(0.37, abs=1e-5)
        assert f == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_min(self):
        x, f = one_row(lambda x: (x - 2.6) ** 2 + 1.0, 0.0, 10.0, 64, maximize=False)
        assert x == pytest.approx(2.6, abs=1e-4)
        assert f == pytest.approx(1.0, abs=1e-8)

    def test_boundary_optimum(self):
        x, f = one_row(lambda x: x, 0.0, 5.0, 32)
        assert x == 5.0
        assert f == 5.0

    def test_tie_breaks_low_by_default(self):
        x, _ = one_row(lambda x: np.ones_like(x), 0.0, 1.0, 16)
        assert x == 0.0

    def test_tie_breaks_high_on_request(self):
        x, _ = one_row(lambda x: np.ones_like(x), 0.0, 1.0, 16, tie_high=True)
        assert x == 1.0

    def test_extra_seed_always_wins_when_best(self):
        # A spike one grid-cell wide that only the seeded point hits.
        x0 = 0.123456789

        def spiky(x):
            return np.where(np.abs(x - x0) < 1e-12, 10.0, 0.0)

        x, f = one_row(spiky, 0.0, 1.0, 11, extra=[x0])
        assert x == x0
        assert f == 10.0

    def test_extra_clipped_into_interval(self):
        x, f = one_row(lambda x: -x, 0.0, 1.0, 11, extra=[-5.0, 7.0])
        assert x == 0.0
        assert f == 0.0

    def test_nan_candidates_lose(self):
        def partial(x):
            return np.where(x < 0.5, np.nan, -((x - 0.7) ** 2))

        x, f = one_row(partial, 0.0, 1.0, 64)
        assert x == pytest.approx(0.7, abs=1e-5)
        assert not np.isnan(f)

    def test_all_nan_propagates_as_nan(self):
        # No live candidate anywhere: callers detect this via isnan/isfinite.
        x, f = one_row(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 8)
        assert np.isnan(f)

    def test_degenerate_interval(self):
        x, f = one_row(lambda x: x * 2.0, 3.0, 3.0, 16)
        assert x == 3.0
        assert f == 6.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            one_row(lambda x: x, 1.0, 0.0, 16)

    def test_deterministic(self):
        def objective(x):
            return np.sin(3.0 * x) + 0.3 * np.cos(11.0 * x)

        a = one_row(objective, 0.0, 4.0, 57)
        b = one_row(objective, 0.0, 4.0, 57)
        assert a == b

    def test_refinement_beats_coarse_grid(self, monkeypatch):
        target = 0.414213562

        def objective(x):
            return -np.abs(x - target)

        fine = [one_row(objective, 0.0, 1.0, 9, zoom=zoom) for zoom in ZOOMS]
        # A shrink of 1 takes no bracket level: the search stops at the coarse grid.
        monkeypatch.setattr(search, "REFINE_SHRINK", 1)
        _, f_coarse = one_row(objective, 0.0, 1.0, 9)
        for x_fine, f_fine in fine:
            assert f_fine > f_coarse
            assert abs(x_fine - target) < 1e-3


class TestBracketShape:
    """A zoom sets a bracket's width; the final shrink is the same for every search."""

    def test_each_family_reaches_the_shrink(self):
        assert refine_levels(boundary.SEARCH_ZOOM) == 6  # 17-point brackets
        assert refine_levels(power.SEARCH_ZOOM) == 3  # 129-point brackets
        for zoom in ZOOMS:
            assert zoom ** refine_levels(zoom) == REFINE_SHRINK
        assert refine_levels(64, 1) == 0
        assert refine_levels(8, REFINE_SHRINK * 64) == 8

    @pytest.mark.parametrize("zoom", [16, 3, 1, 0, -8])
    def test_zoom_missing_the_shrink_rejected(self, zoom):
        with pytest.raises(ValueError, match="does not reach shrink"):
            refine_levels(zoom)
        with pytest.raises(ValueError, match="does not reach shrink"):
            one_row(lambda x: x, 0.0, 1.0, 16, zoom=zoom)

    def test_row_batches_size_from_the_zoom(self):
        # search_rows batches its coarse phase by the grid plus the extras,
        # then its bracket phase by the 2 * zoom + 1 bracket points; each
        # bracket batch makes one objective call per level.
        seen = []

        def objective(c, x):
            seen.append(x.shape)
            return -x

        n_rows = 1000
        cols, extra = np.zeros((n_rows, 1)), np.zeros((n_rows, 2))
        lo, hi = np.zeros(n_rows), np.ones(n_rows)
        for zoom in ZOOMS:
            seen.clear()
            search_rows(objective, cols, lo, hi, extra, 64, maximize=True, zoom=zoom)
            coarse, bracket = 64 + 2, 2 * zoom + 1
            assert [width for _, width in seen] == sorted(
                (width for _, width in seen), key=lambda w: w != coarse
            )
            for width, repeat in ((coarse, 1), (bracket, refine_levels(zoom))):
                size = BATCH_CANDIDATES // width
                batches = [size] * (n_rows // size) + [n_rows % size]
                assert [rows for rows, w in seen if w == width] == [
                    rows for rows in batches for _ in range(repeat)
                ]


def pick_reference(values, maximize, tie_high):
    """:func:`_pick` as it was when every call patched the NaNs first."""
    values = np.where(np.isnan(values), -np.inf if maximize else np.inf, values)
    if tie_high:
        values = values[:, ::-1]
    i = values.argmax(axis=1) if maximize else values.argmin(axis=1)
    return values.shape[1] - 1 - i if tie_high else i


class TestPick:
    """The NaN patch runs only for rows whose raw pick is NaN, and picks what patching all did."""

    nan, inf = math.nan, math.inf
    ROWS = [
        [nan, 1.0, 3.0, 3.0, 2.0],  # NaN first, tie in the middle
        [1.0, 3.0, 2.0, 3.0, nan],  # NaN last, tie apart
        [1.0, nan, 1.0, nan, 1.0],  # NaNs in the middle of a flat row
        [nan, nan, nan, nan, nan],  # all dead
        [inf, nan, -inf, inf, -inf],  # both infinities, each tied
        [-inf, -inf, -inf, -inf, -inf],
        [2.0, 2.0, 2.0, 2.0, 2.0],
        [0.0, -0.0, 0.0, -1.0, 1.0],  # signed zeros compare equal
    ]

    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("tie_high", [True, False])
    def test_equals_the_patch_everything_pick(self, maximize, tie_high):
        rng = np.random.default_rng([maximize, tie_high])
        pool = np.array([math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0])
        blocks = [np.array(self.ROWS), rng.choice(pool, (200, 7)), rng.random((50, 130))]
        blocks.append(np.where(rng.random((50, 130)) < 0.01, math.nan, rng.random((50, 130))))
        for values in blocks:
            want = pick_reference(values, maximize, tie_high)
            np.testing.assert_array_equal(_pick(values, maximize, tie_high), want)
            for r in range(0, len(values), 9):  # a row alone picks as in its batch
                np.testing.assert_array_equal(_pick(values[r:r + 1], maximize, tie_high), want[r:r + 1])


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
        kw = dict(maximize=maximize, tie_high=tie_high)
        xs, fs = searched(self.scores, self.LO, self.HI, 33, extra=self.EXTRA, **kw)
        for r in range(5):
            scores = self.scores(np.array([r]))
            x, f = one_row(scores, self.LO[r], self.HI[r], 33, extra=self.EXTRA[r], **kw)
            assert xs[r] == x
            assert fs[r] == f or (np.isnan(fs[r]) and np.isnan(f))
        assert np.isnan(fs[2]) and not np.isnan(fs[1]) and xs[1] >= 0.5
        assert xs[3] == 1.5

    def test_objective_sees_rows_by_candidates(self):
        shapes = []

        def objective(x):
            shapes.append(x.shape)
            return -x

        for zoom in ZOOMS:
            shapes.clear()
            extra = np.full((4, 1), 0.5)
            searched(lambda rows: objective, np.zeros(4), np.ones(4), 16, extra=extra, zoom=zoom)
            # Coarse grid plus the extra, then each bracket; the incumbent is not re-scored.
            assert shapes == [(4, 17)] + [(4, 2 * zoom + 1)] * refine_levels(zoom)

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_grid_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            one_row(lambda x: x, 0.0, 1.0, n)

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

    @pytest.mark.parametrize("maximize", [True, False])
    def test_search_rows_equals_one_search_per_row(self, maximize, monkeypatch):
        # Each row's objective reads its own line of ``cols``: a centre and a scale.
        rng = np.random.default_rng(3)
        n_rows = 300
        cols = rng.uniform(0.1, 1.0, (n_rows, 2))
        lo, hi = np.zeros(n_rows), np.ones(n_rows)
        extra = rng.uniform(-0.5, 1.5, (n_rows, 2))
        sign = 1.0 if maximize else -1.0

        def objective(c, x):
            return -sign * c[:, 1:] * (x - c[:, :1]) ** 2

        # (candidate budget, zoom, (coarse batches, bracket batches))
        for budget, zoom, n_batches in (
            (n_rows * 129, ZOOMS[1], (1, 1)),  # one batch in both phases
            (BATCH_CANDIDATES, ZOOMS[0], (2, 1)),  # several coarse batches, one bracket batch
            (BATCH_CANDIDATES, ZOOMS[1], (2, 3)),
            (17 * 100, ZOOMS[0], (12, 3)),  # several bracket batches
        ):
            monkeypatch.setattr(search, "BATCH_CANDIDATES", budget)
            assert len(row_batches(n_rows, 64 + 2)) == n_batches[0]
            assert len(row_batches(n_rows, 2 * zoom + 1)) == n_batches[1]
            x, f = search_rows(objective, cols, lo, hi, extra, 64, maximize=maximize, zoom=zoom)
            kw = dict(maximize=maximize, zoom=zoom)
            for r in range(n_rows):
                one = slice(r, r + 1)
                got = search_rows(objective, cols[one], lo[one], hi[one], extra[one], 64, **kw)
                assert got == (x[r], f[r])


def unimodal(kind, rng, rows):
    """Random row bounds, each row's maximiser x* and an objective peaking there.

    ``smooth`` is skewed and smooth at its peak; ``kinked`` is the min of
    two smooth pieces, like the similarity-floor kink; ``flank`` scores 0
    on an infeasible flank left of the peak and is positive elsewhere.
    """
    lo = rng.uniform(-2.0, 1.0, rows)
    hi = lo + rng.uniform(0.5, 4.0, rows)
    # Most peaks interior, some past either end of the interval.
    c = rng.uniform(lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo))
    d = rng.uniform(lo, np.clip(c, lo, hi))
    a, b = rng.uniform(0.2, 5.0, (2, rows))
    s = rng.uniform(-3.0, 3.0, rows)
    a, b, c, d, s = (v[:, None] for v in (a, b, c, d, s))

    def f(x, r=slice(None)):
        t = x - c[r]
        if kind == "smooth":
            return -(a[r] * t**2 + b[r] * (np.exp(s[r] * t) - 1.0 - s[r] * t))
        if kind == "kinked":
            return -(np.maximum(-a[r] * t, b[r] * t) + 0.1 * t**2)
        return np.where(x < d[r], 0.0, 10.0 / (1.0 + a[r] * t**2))

    return lo, hi, np.clip(c[:, 0], lo, hi), f


class TestBracketInvariant:
    """On a unimodal objective each level keeps the optimum in its bracket.

    The search then ends within one final spacing,
    ``(hi - lo) / ((n - 1) * REFINE_SHRINK)``, at any zoom, of the true
    optimum x*, and scores no worse than a 20,001-point dense scan by
    more than the objective changes over that spacing.
    """

    N = 64
    ROWS = 40

    @pytest.mark.parametrize("kind", ["smooth", "kinked", "flank"])
    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("tie_high", [True, False])
    def test_optimum_within_final_spacing(self, kind, maximize, tie_high):
        lo, hi, x_star, f = unimodal(kind, np.random.default_rng(sum(map(ord, kind))), self.ROWS)
        sign = 1.0 if maximize else -1.0

        def objective(rows):
            return lambda x: sign * f(x, rows)

        spacing = (hi - lo) / ((self.N - 1) * REFINE_SHRINK)
        everything = np.arange(self.ROWS)
        f_star = objective(everything)(x_star[:, None])[:, 0]
        near = x_star[:, None] + spacing[:, None] * np.linspace(-1.0, 1.0, 101)
        near = np.clip(near, lo[:, None], hi[:, None])
        change = np.max(np.abs(objective(everything)(near) - f_star[:, None]), axis=1)
        slack = change + 1e-12 * np.maximum(1.0, np.abs(f_star))
        dense = _linspace_rows(lo, hi, np.arange(20_001, dtype=float))
        f_dense = sign * np.max(sign * objective(everything)(dense), axis=1)

        for zoom in ZOOMS:
            kw = dict(maximize=maximize, tie_high=tie_high, zoom=zoom)
            xs, fs = searched(objective, lo, hi, self.N, **kw)
            for r in range(self.ROWS):
                x, fx = one_row(objective([r]), lo[r], hi[r], self.N, **kw)
                assert (x, fx) == (xs[r], fs[r])
            assert np.all(np.abs(xs - x_star) <= spacing)
            assert np.all(np.abs(fs - f_star) <= slack)
            assert np.all(sign * (fs - f_dense) >= -slack)


def rescoring_search(objective, lo, hi, n, *, maximize, tie_high, extra, zoom):
    """:func:`search_rows` on one batch as it was when each bracket re-scored its incumbent."""
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    rows = np.arange(len(lo))
    grid = _linspace_rows(lo, hi, np.arange(n, dtype=float))
    grid = np.concatenate([grid, np.clip(extra, lo[:, None], hi[:, None])], axis=1)
    grid.sort(axis=1)
    f = objective(grid)
    i = _pick(f, maximize, tie_high)
    x_best, f_best = grid[rows, i], f[rows, i]
    half = (hi - lo) / (n - 1)
    ramp = np.arange(2 * zoom + 1, dtype=float)
    for _ in range(refine_levels(zoom)):
        window = _linspace_rows(np.maximum(lo, x_best - half), np.minimum(hi, x_best + half), ramp)
        window = np.concatenate([window, x_best[:, None]], axis=1)
        window.sort(axis=1)
        fw = objective(window)
        j = _pick(fw, maximize, tie_high)
        xj, fj = window[rows, j], fw[rows, j]
        better = fj > f_best if maximize else fj < f_best
        better |= (fj == f_best) & (xj > x_best if tie_high else xj < x_best)
        x_best = np.where(better, xj, x_best)
        f_best = np.where(better, fj, f_best)
        half /= zoom
    return x_best, f_best


class TestIncumbentNotRescored:
    """Keeping the incumbent's score picks what re-scoring it picked, ties and NaNs included."""

    ROWS = 60

    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("tie_high", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_rescoring_bracket(self, maximize, tie_high, seed):
        rng = np.random.default_rng([seed, maximize, tie_high])
        lo = rng.uniform(-2.0, 1.0, self.ROWS)
        hi = lo + rng.choice([0.0, 1e-12, 0.5, 3.0], self.ROWS)
        a, b = rng.uniform(0.2, 6.0, (2, self.ROWS, 1))
        scale = 10.0 ** rng.integers(0, 4, (self.ROWS, 1))  # coarse rounding makes wide plateaus
        cut = rng.uniform(lo - 0.5, hi + 0.5)[:, None]  # NaN flank below cut, all NaN past hi
        high_flank = rng.random((self.ROWS, 1)) < 0.3
        extra = rng.uniform(lo - 1.0, hi + 1.0, (2, self.ROWS)).T

        def objective(rows):
            def f(x):
                y = np.round(scale[rows] * (np.sin(a[rows] * x) + b[rows] * np.cos(2.0 * x)))
                dead = np.where(high_flank[rows], x > cut[rows], x < cut[rows])
                return np.where(dead, np.nan, y)

            return f

        everything = np.arange(self.ROWS)
        for zoom in ZOOMS:
            kw = dict(maximize=maximize, tie_high=tie_high, zoom=zoom)
            want = rescoring_search(objective(everything), lo, hi, 17, extra=extra, **kw)
            got = searched(objective, lo, hi, 17, extra=extra, **kw)
            np.testing.assert_array_equal(got, want)
            for r in range(0, self.ROWS, 7):
                one = one_row(objective([r]), lo[r], hi[r], 17, extra=extra[r], **kw)
                np.testing.assert_array_equal(one, [want[0][r], want[1][r]])
            f = want[1]
            assert np.isnan(f).any() and (~np.isnan(f)).sum() > self.ROWS // 2


class TestHeapTrim:
    """Batch temporaries stay on a heap that is not handed back to the kernel after each batch."""

    MMAP_THRESHOLD = 128 * 1024  # glibc's default, which setting the trim threshold pins

    def test_default_batch_temporary_stays_under_the_mmap_threshold(self):
        # The coarse calls of a default search: the oma grid and its
        # similarity seeds (88 wide), and the semi boundary's, which adds
        # the corner seed.  Then the bracket calls of each zoom, batched by
        # their own width.  glibc's chunk is the request plus an 8 B
        # header, rounded up to 16 B on x86_64, and a chunk of 128 KiB or
        # more is mmapped: 187 rows x 88 (a 131,664 B chunk) or 185 rows
        # x 89 (131,728 B) would be.
        widths = (DEFAULT_GRID_N + EPS_BANDS, DEFAULT_GRID_N + EPS_BANDS + 1)
        for width in (*widths, *(2 * zoom + 1 for zoom in ZOOMS)):
            batch = row_batches(10_000, width)[0]
            chunk = -(-((batch.stop - batch.start) * width * 8 + 8) // 16) * 16
            assert chunk < self.MMAP_THRESHOLD, width

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's trim threshold")
    def test_default_regions_fault_in_no_pages_after_warm_up(self):
        # With glibc's default trim threshold each region faulted in about
        # 6,000 pages that the previous batch had handed back.
        import resource  # Unix only, like glibc

        scenario = Scenario()

        def region(seed):
            trace_region(scenario, sample_realization(scenario, seed), list(Scheme))

        for seed in range(2):
            region(seed)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in range(2, 7):
            region(seed)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 5 <= 50
