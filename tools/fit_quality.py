"""Compare the S-curve fit with the bracket search it replaced, on random curves.

Each curve draws a sample count in 5-100, a noise level in 0-0.05 and a
random curve (``random_params``); a tenth of them take the saturated
shape of ``tests/test_similarity.py``'s ``TestFitTable`` (every sample far
up a steep curve) and a tenth a clipped one (a nearly linear curve,
growth 0.01 or 0.02).  Every curve is fitted twice:

- by ``sembit.fit_table``, all curves in one call, so curves with equal
  sample counts run in lockstep;
- by :func:`fit_logistic_reference`, the fit before its Levenberg-Marquardt
  finish: the same coarse grid, then ``FIT_LEVELS`` bracket levels of
  ``2 * FIT_BRACKET + 1`` points per axis.

The gap of a curve is fit MSE / reference MSE - 1.  Prints every curve
whose gap exceeds ``TOL`` (the tests' tolerance; below it lies rounding),
then per band of sample counts the curves above and below the reference
by more than ``TOL`` and the worst gap.  The readings are printed, not
judged: the exit status is 0.

Usage:
    python tools/fit_quality.py [--curves N] [--seed S]

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sembit import similarity  # noqa: E402
from sembit.similarity import (  # noqa: E402
    GROWTH_BOUNDS,
    GROWTH_GRID,
    OFFSET_BOUNDS,
    OFFSET_GRID,
    LogisticParams,
    SimilaritySample,
    eval_similarity,
    fit_mse,
)

# The bracket search: levels, half-width in points per side, shrink factor.
FIT_LEVELS = 40
FIT_BRACKET = 4
FIT_SHRINK = 3.0
TOL = 1e-9
# Bands of sample counts for the summary: (low, high) inclusive.
BANDS = ((5, 9), (10, 19), (20, 49), (50, 100))
# Extra curve fields of the saturated and clipped shapes.
SATURATED = {"growth": 0.3, "offset": -18.0, "snr": (40.0, 80.0)}
CLIPPED = ({"growth": 0.01, "offset": 0.0}, {"growth": 0.02})


def fit_logistic_reference(samples, counts=None):
    """The per-curve fit with bracket levels: one ``best_cell`` call per grid and level.

    The reference the Levenberg-Marquardt finish of ``fit_table`` may not
    fall behind.  ``counts``, a Counter, tallies saturated cells (det <=
    1e-30) and bracket cells clipped to a hard bound.  The coarse product
    ``g * x`` may overflow to inf on a huge finite SNR, where the sigmoid
    saturates correctly; that warning is silenced here.
    """
    counts = collections.Counter() if counts is None else counts

    def amplitudes_for(s, y):
        u = 1.0 - s
        suu = np.einsum("ij,ij->i", u, u)
        suv = np.einsum("ij,ij->i", u, s)
        svv = np.einsum("ij,ij->i", s, s)
        suy = u @ y
        svy = s @ y
        det = suu * svv - suv * suv
        ok = det > 1e-30
        counts["saturated"] += int((~ok).sum())
        a1 = np.zeros_like(det)
        a2 = np.zeros_like(det)
        a1[ok] = (suy[ok] * svv[ok] - svy[ok] * suv[ok]) / det[ok]
        a2[ok] = (svy[ok] * suu[ok] - suy[ok] * suv[ok]) / det[ok]
        a1[~ok] = y.mean()
        a2[~ok] = y.mean()
        a1 = np.clip(a1, 0.0, 1.0 - 1e-9)
        a2 = np.clip(a2, a1 + 1e-9, 1.0)
        resid = a1[:, None] * u + a2[:, None] * s - y[None, :]
        return a1, a2, np.einsum("ij,ij->i", resid, resid) / y.size

    def best_cell(growths, offsets, x, y):
        gg, oo = (m.ravel() for m in np.meshgrid(growths, offsets, indexing="ij"))
        with np.errstate(over="ignore"):
            z = gg[:, None] * x + oo[:, None]
        a_low, a_high, mse = amplitudes_for(similarity._sigmoid(z), y)
        i = int(np.argmin(mse))
        return gg[i], oo[i], a_low[i], a_high[i], mse[i]

    x = np.array([s.snr_db for s in samples], dtype=float)
    y = np.array([s.similarity for s in samples], dtype=float)
    growths, h_g = np.linspace(*GROWTH_GRID, retstep=True)
    offsets, h_o = np.linspace(*OFFSET_GRID, retstep=True)
    growth, offset, a_low, a_high, mse = best_cell(growths, offsets, x, y)
    ramp = np.linspace(-1.0, 1.0, 2 * FIT_BRACKET + 1)
    for _ in range(FIT_LEVELS):
        gs = np.clip(growth + h_g * ramp, *GROWTH_BOUNDS)
        os = np.clip(offset + h_o * ramp, *OFFSET_BOUNDS)
        counts["clipped"] += int(np.isin(gs, GROWTH_BOUNDS).sum())
        counts["clipped"] += int(np.isin(os, OFFSET_BOUNDS).sum())
        cell = best_cell(gs, os, x, y)
        if cell[4] < mse:
            growth, offset, a_low, a_high, mse = cell
        else:
            h_g, h_o = h_g / FIT_SHRINK, h_o / FIT_SHRINK
    return LogisticParams(
        k=samples[0].k, a_low=float(a_low), a_high=float(a_high), growth=float(growth),
        offset=float(offset),
    )


def random_params(rng):
    """A random curve: a_low below 0.5, a_high 0.1 or more above it, growth and offset on the coarse grid."""
    a_low = rng.uniform(0.0, 0.5)
    a_high = rng.uniform(a_low + 0.1, 1.0)
    return LogisticParams(
        k=int(rng.integers(1, 40)),
        a_low=a_low,
        a_high=a_high,
        growth=rng.uniform(0.05, 2.0),
        offset=rng.uniform(-10.0, 10.0),
    )


def curve_samples(rng, k, n, noise, snr=(-15.0, 25.0), **truth):
    """``n`` samples of one random curve (or of ``truth``'s fields) at uniform SNRs."""
    params = dataclasses.replace(random_params(rng), k=k, **truth)
    snrs = rng.uniform(*snr, size=n)
    y = np.clip(eval_similarity(params, snrs) + rng.normal(0.0, noise, size=n), 0.0, 1.0)
    return [SimilaritySample(k, float(x), float(v)) for x, v in zip(snrs, y)]


def random_curves(n_curves: int, seed: int) -> list[tuple[str, list]]:
    """``(shape, samples)`` of ``n_curves`` random curves, curve i with k = i + 1."""
    rng = np.random.default_rng(seed)
    curves = []
    for k in range(1, n_curves + 1):
        n, noise, pick = int(rng.integers(5, 101)), rng.uniform(0.0, 0.05), rng.uniform()
        if pick < 0.1:
            shape, fields = "saturated", SATURATED
        elif pick < 0.2:
            shape, fields = "clipped", CLIPPED[int(rng.integers(len(CLIPPED)))]
        else:
            shape, fields = "random", {}
        curves.append((shape, curve_samples(rng, k, n, noise, **fields)))
    return curves


def survey(n_curves: int, seed: int) -> list[tuple[str, int, float, float]]:
    """``(shape, samples, fit MSE, reference MSE)`` per random curve."""
    curves = random_curves(n_curves, seed)
    table = similarity.fit_table(samples for _, samples in curves)
    rows = []
    for shape, samples in curves:
        ref = fit_logistic_reference(samples)
        k = samples[0].k
        rows.append((shape, len(samples), fit_mse(table[k], samples), fit_mse(ref, samples)))
    return rows


def gap(fit: float, ref: float) -> float:
    """fit / ref - 1, or 0 where both are 0."""
    return fit / ref - 1.0 if ref > 0.0 else (0.0 if fit == 0.0 else np.inf)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--curves", type=int, default=230, help="random curves (default 230)")
    parser.add_argument("--seed", type=int, default=0, help="curve draw seed (default 0)")
    args = parser.parse_args(argv)
    rows = survey(args.curves, args.seed)
    above = [(i + 1, row) for i, row in enumerate(rows) if gap(row[2], row[3]) > TOL]
    print(f"{len(rows)} random curves, seed {args.seed}: {len(above)} with an MSE above the "
          f"bracket search's by more than {TOL:g} relative")
    for k, (shape, n, fit, ref) in above:
        print(f"  k={k} {shape} n={n}: mse {fit:.9e} reference {ref:.9e} gap {gap(fit, ref):.3e}")
    print(f"{'samples':>8s}  {'curves':>6s}  {'above':>5s}  {'below':>5s}  {'worst gap':>10s}")
    for low, high in BANDS:
        gaps = [gap(fit, ref) for _, n, fit, ref in rows if low <= n <= high]
        worst = f"{max(gaps):10.3e}" if gaps else f"{'-':>10s}"
        up, down = sum(g > TOL for g in gaps), sum(g < -TOL for g in gaps)
        print(f"{f'{low}-{high}':>8s}  {len(gaps):6d}  {up:5d}  {down:5d}  {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
