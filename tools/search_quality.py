"""Compare the default searches with a dense reference on random scenarios.

Each scenario draws k in 3-7, a similarity floor (a third of them in
0.16-0.22, near the curve floor, where the boundary objective can have
a second local maximum; the rest in 0-0.9), both distances in 5-60 m, a
power budget log-uniform in 0.03-3 W and one channel draw.  On it the
oma and semi boundary rows at ``ROWS + 1`` semantic rates evenly over
[0, sigma_max], and the oma and semi minimum powers of ``TRIPLES``
random target triples that the budget can meet, are solved at the
default coarse grid and with a ``REF_GRID``-point grid, ``REF_SEEDS``
similarity-seeded bands and brackets that shrink the spacing by
``REF_SHRINK``, 64 times the default's: each search keeps its own zoom
and runs as many more levels as that takes.

A boundary row misses when it falls more than ``TOL`` of its boundary's
maximum below the reference; a power row misses when its total exceeds
the reference by more than ``TOL`` relative, or is infeasible where the
reference is not.  Prints rows, misses and the worst gap per scheme, and
exits 1 on any miss.

The default boundary rows are solved as ``trace_region`` solves them: a
semi row that a certificate settles is not searched.  It takes the noma
corner where ``boundary._noma_optimal`` proves that corner optimal, the
kink band where ``boundary._kink_optimal`` proves the kink optimal, and
its oma row where ``boundary._over_budget`` proves the overlay over the
budget.  The reference searches every row, so the harness judges the
three certificates too, and it prints how many default semi rows each
one settled.

Usage:
    python tools/search_quality.py [--scenarios N] [--seed S]

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sembit import boundary, power, rates, search  # noqa: E402
from sembit.channel import Scenario, sample_realization  # noqa: E402
from sembit.power import PowerTargets  # noqa: E402
from sembit.rates import Scheme  # noqa: E402

REF_GRID = 4096
REF_SEEDS = 256
REF_SHRINK = search.REFINE_SHRINK * 64
TOL = 1e-7
ROWS = 12
TRIPLES = 8
SCHEMES = ("oma", "semi")
# The certificates that settle a semi row without its search, by the name
# the harness prints, and the function of ``boundary`` that decides it.
CERTIFICATES = {"noma corner": "_noma_optimal", "kink": "_kink_optimal",
                "over budget": "_over_budget"}
# A boundary row where the default search found a second, lower basin
# on the parent of the similarity-seeded boundary searches: reference
# 1,588,176.36 bit/s at a 709.8 kHz band, found 1,572,008.89 at 607.0 kHz.
PINNED = {
    "scenario": dict(
        k=7,
        min_similarity=0.179563899571392,
        d_s=56.81622107785738,
        d_b=25.081059253465572,
        max_power=0.04876540258002089,
    ),
    "seed": 1443098011,
    "sigma": 21091.546856725377,
}


@contextlib.contextmanager
def reference_levels():
    """Make the searches shrink by ``REF_SHRINK``, seed ``REF_SEEDS`` bands and skip no row.

    Every one of them goes through :func:`sembit.search.search_rows`,
    which reads ``search.REFINE_SHRINK`` at call time, so swapping it
    deepens every bracket phase and leaves the coarse grid alone.  The
    similarity seeds are :func:`sembit.rates.eps_seeded_bands`'s steps,
    ``rates._EPS_STEPS``, swapped for ``REF_SEEDS`` evenly spaced ones, so
    that fewer default seeds do not weaken the reference that judges them.
    The semi certificates, ``CERTIFICATES`` of ``boundary``, certify no
    row, so that the reference searches every semi row.
    """
    saved = search.REFINE_SHRINK, rates._EPS_STEPS
    certify = {name: getattr(boundary, name) for name in CERTIFICATES.values()}
    search.REFINE_SHRINK, rates._EPS_STEPS = REF_SHRINK, np.linspace(0.0, 1.0, REF_SEEDS)
    for name in certify:
        setattr(boundary, name, no_certificate)
    try:
        yield
    finally:
        search.REFINE_SHRINK, rates._EPS_STEPS = saved
        for name, original in certify.items():
            setattr(boundary, name, original)


def no_certificate(scenario, real, sigma, *_):
    """A stand-in for each of ``CERTIFICATES`` that certifies no row."""
    return np.zeros(len(sigma), bool)


def boundary_rows(scenario, real, sigma, grid_n):
    """Oma and semi boundary bit rates at the targets ``sigma``, and the certified row counts.

    The rows are solved as ``trace_region`` solves them when every scheme
    is traced: oma searches every row, and semi skips the positive
    targets that one of ``CERTIFICATES`` settles, which ``"certified"``
    counts by certificate.
    """
    bands = boundary._seeds(scenario, sigma)
    ext = boundary.oma_extremes(scenario, real)
    oma = boundary._oma_points(scenario, real, sigma, grid_n, bands, ext)
    noma = boundary._noma_points(scenario, real, sigma)
    bound = boundary._oma_rate_bound(scenario, real, sigma)
    beats = noma.bit_rate > bound * (1.0 + boundary.BOUND_RTOL)
    masks = (
        boundary._noma_optimal(scenario, real, sigma, beats),
        boundary._kink_optimal(scenario, real, sigma),
        boundary._over_budget(scenario, real, sigma),
    )
    semi = boundary._semi_points(scenario, real, sigma, grid_n, bands, oma, noma, *masks)
    certified = {name: int((m & (sigma != 0.0)).sum()) for name, m in zip(CERTIFICATES, masks)}
    return {"oma": oma.bit_rate, "semi": semi.bit_rate, "certified": certified}


def power_rows(scenario, real, targets, grid_n):
    """Oma and semi minimum totals of each triple of ``targets``, NaN where infeasible."""
    solved = power.solve_min_powers_rows(scenario, [real] * len(targets), targets, grid_n)
    return {s: solved[Scheme(s)].total for s in SCHEMES}


def both(solve, *args):
    """``solve`` at the default grid, then at the reference grid and shrink."""
    found = solve(*args, search.DEFAULT_GRID_N)
    with reference_levels():
        ref = solve(*args, REF_GRID)
    return found, ref


def boundary_gaps(found: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Shortfall of each row below the reference, over the reference boundary's maximum."""
    return (ref - found) / max(ref.max(), 1e-300)


def power_gaps(found: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Excess of each feasible reference row over the reference, relative; +inf if unsolved."""
    live = np.isfinite(ref)
    gap = np.where(np.isfinite(found), found / np.where(live, ref, 1.0) - 1.0, np.inf)
    return gap[live]


def random_case(rng: np.random.Generator):
    """One random scenario, its draw, its boundary targets and its power triples."""
    near_a_low = rng.random() < 1 / 3
    scenario = Scenario(
        k=int(rng.integers(3, 8)),
        min_similarity=float(rng.uniform(0.16, 0.22) if near_a_low else rng.uniform(0.0, 0.9)),
        d_s=float(rng.uniform(5.0, 60.0)),
        d_b=float(rng.uniform(5.0, 60.0)),
        max_power=float(np.exp(rng.uniform(np.log(0.03), np.log(3.0)))),
    )
    real = sample_realization(scenario, int(rng.integers(2**32)))
    ext = boundary.oma_extremes(scenario, real)
    sigma = np.linspace(0.0, ext.sigma_max, ROWS + 1)
    # Triples under the line between the draw's two intercepts, which
    # frequency sharing meets within the budget.
    share = rng.random((TRIPLES, 2))
    targets = [
        PowerTargets(
            sigma_target=float(a * ext.sigma_max),
            min_similarity=scenario.min_similarity,
            bit_target=float(b * (1.0 - a) * ext.r_max),
        )
        for a, b in share.tolist()
    ]
    return scenario, real, sigma, targets


def pinned_gaps() -> dict[str, float]:
    """Boundary gap of each scheme on the :data:`PINNED` row."""
    scenario = Scenario(**PINNED["scenario"])
    real = sample_realization(scenario, PINNED["seed"])
    sigma = np.array([0.0, PINNED["sigma"]])
    found, ref = both(boundary_rows, scenario, real, sigma)
    return {s: float(boundary_gaps(found[s], ref[s])[1]) for s in SCHEMES}


def survey(n_scenarios: int, seed: int) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """Gaps of every row, by ``"<kind> <scheme>"``, over ``n_scenarios`` random cases.

    Also returns how many default semi boundary rows each of
    ``CERTIFICATES`` left unsearched.
    """
    rng = np.random.default_rng(seed)
    gaps: dict[str, list] = {f"{kind} {s}": [] for kind in ("boundary", "power") for s in SCHEMES}
    certified = dict.fromkeys(CERTIFICATES, 0)
    for _ in range(n_scenarios):
        scenario, real, sigma, targets = random_case(rng)
        if sigma[-1] > 0.0:
            found, ref = both(boundary_rows, scenario, real, sigma)
            for name, n in found["certified"].items():
                certified[name] += n
            for s in SCHEMES:
                gaps[f"boundary {s}"].append(boundary_gaps(found[s], ref[s]))
        found, ref = both(power_rows, scenario, real, targets)
        for s in SCHEMES:
            gaps[f"power {s}"].append(power_gaps(found[s], ref[s]))
    return {name: np.concatenate(g) if g else np.empty(0) for name, g in gaps.items()}, certified


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", type=int, default=150, help="random scenarios (150)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the scenario draws (0)")
    ns = parser.parse_args(argv)
    gaps, certified = survey(ns.scenarios, ns.seed)
    gaps["pinned boundary"] = np.array(list(pinned_gaps().values()))
    print(
        f"grid {search.DEFAULT_GRID_N}, {rates.EPS_BANDS} seeds, shrink {search.REFINE_SHRINK}"
        f" against grid {REF_GRID}, {REF_SEEDS} seeds, shrink {REF_SHRINK};"
        f" zoom {boundary.SEARCH_ZOOM} boundary, {power.SEARCH_ZOOM} power"
    )
    misses = 0
    for name, g in gaps.items():
        n_miss = int((g > TOL).sum())
        misses += n_miss
        worst = f"{g.max():.3g}" if g.size else "-"
        print(f"{name:16s} rows {g.size:6d}  misses {n_miss:4d}  worst gap {worst}")
    semi_rows = gaps["boundary semi"].size
    for name, n in certified.items():
        print(f"semi boundary rows certified unsearched, {name}: {n} of {semi_rows}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
