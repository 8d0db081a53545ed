"""Time the boundary and power search objectives per candidate, in process.

Captures every objective call of the default regions at seeds 0-9 (the
default scenario, 200 points, the default grid, all schemes) and of one
``run_sweep`` on the bundled ``semantic-rate`` spec with 4 draws,
through wrappers on the ``search_rows`` bindings of ``sembit.boundary``
and ``sembit.power``: every boundary and power search is one
``search_rows`` call from one of them.  The semi rows are captured with
``boundary._kink_optimal`` and ``boundary._over_budget`` switched off,
so that the semi objective is timed on the rows it scored before those
two certificates: 73 calls of 380,854 candidates.  With them on, the 10
regions leave 43 calls of 102,949, in batches so much smaller that
per-call overhead would move the reading (about 34 ns per candidate
against 27 on one 2-core x86_64 host).  ``boundary._noma_optimal`` stays
on.  Each objective's captured calls are then replayed as they came, and
the tool prints its calls, candidates and nanoseconds per candidate, the
minimum over ``PASSES`` passes.  The objectives are the oma and semi boundary scores and the
minimum-power total, which scores oma and semi rows together.  Then it
prints one line for the S-curve fit of a fixed set of ``FIT_CURVES``
curves with ``FIT_SAMPLES`` noisy samples each, one ``fit_table`` call:
its coarse (growth, offset) cells, its Levenberg-Marquardt steps and the
trial cells they score, and milliseconds per fit, the minimum over
``PASSES`` fits.  The readings are printed, not judged: the
exit status is 0.

Usage:
    python tools/kernel_times.py

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import contextlib
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from sembit import boundary, cli, montecarlo, power, similarity  # noqa: E402
from sembit.boundary import trace_region  # noqa: E402
from sembit.channel import Scenario, sample_realization  # noqa: E402
from sembit.rates import Scheme  # noqa: E402

REGION_SEEDS = range(10)
SWEEP_DRAWS = 4
PASSES = 5
# The fit's sample set: the first FIT_CURVES bundled curves, FIT_SAMPLES
# samples each at uniform SNRs in [-10, 25] dB with 0.02 Gaussian noise,
# drawn from seed 0, the shape of the benchmark's fit inputs.
FIT_CURVES = 5
FIT_SAMPLES = 40
# The semi certificates switched off while the searches are captured.
UNCERTIFIED = ("_kink_optimal", "_over_budget")
# Objective labels by the name of the function that owns the objective.
OBJECTIVES = {
    "_oma_points": "boundary oma",
    "_semi_points": "boundary semi",
    "_total": "power oma+semi",
}


@contextlib.contextmanager
def capture(calls: dict[str, list]):
    """Append ``(objective, candidates)`` of each objective call to ``calls[label]``.

    The objective a search scores is a boundary ``score`` closure, or a
    ``functools.partial`` of ``power._total``, whose ``func`` names the
    owner.  Each captured objective is a partial with the batch's row
    data bound, so a replay scores exactly what the search scored.  The
    semi certificates ``UNCERTIFIED`` certify no row meanwhile.
    """
    saved = [(module, module.search_rows) for module in (boundary, power)]
    certify = {name: getattr(boundary, name) for name in UNCERTIFIED}

    def spying(search_rows):
        def spy(objective, *args, **kwargs):
            owner = getattr(objective, "func", objective).__qualname__.split(".")[0]
            label = OBJECTIVES[owner]

            def recorded(cols, x):
                calls[label].append((partial(objective, cols), x))
                return objective(cols, x)

            return search_rows(recorded, *args, **kwargs)

        return spy

    for module, search_rows in saved:
        module.search_rows = spying(search_rows)
    for name in certify:
        setattr(boundary, name, no_rows)
    try:
        yield
    finally:
        for module, search_rows in saved:
            module.search_rows = search_rows
        for name, original in certify.items():
            setattr(boundary, name, original)


def no_rows(scenario, real, sigma):
    """A stand-in for each of ``UNCERTIFIED`` that certifies no row."""
    return np.zeros(len(sigma), bool)


def captured_calls() -> dict[str, list]:
    """The objective calls of the default regions and of one 4-draw sweep, by label."""
    calls: dict[str, list] = {label: [] for label in OBJECTIVES.values()}
    scenario = Scenario()
    payload = cli._resolve_sweep_spec("semantic-rate")
    spec = montecarlo.SweepSpec.from_dict(dict(payload, n_realizations=SWEEP_DRAWS))
    with capture(calls):
        for seed in REGION_SEEDS:
            trace_region(scenario, sample_realization(scenario, seed), list(Scheme))
        montecarlo.run_sweep(spec)
    return calls


def replay_seconds(calls: list) -> float:
    """Wall time of scoring every captured call once, in order."""
    t0 = time.perf_counter()
    for objective, x in calls:
        objective(x)
    return time.perf_counter() - t0


def fit_groups() -> list[list[similarity.SimilaritySample]]:
    """The fixed sample set of the fit line, one group per curve."""
    rng = np.random.default_rng(0)
    groups = []
    for params in list(similarity.default_table())[:FIT_CURVES]:
        snrs = rng.uniform(-10.0, 25.0, FIT_SAMPLES)
        noisy = similarity.eval_similarity(params, snrs) + rng.normal(0.0, 0.02, FIT_SAMPLES)
        y = np.clip(noisy, 0.0, 1.0).tolist()
        groups.append([similarity.SimilaritySample(params.k, x, v) for x, v in zip(snrs.tolist(), y)])
    return groups


def fit_work(groups: list) -> tuple[int, int, int]:
    """Coarse cells, steps and trial cells of one ``fit_table`` call on ``groups``, counted as it runs.

    Every cell the fit scores goes through ``similarity._cells``, and every
    step starts with one ``similarity._lm_steps`` call per lockstep batch.
    """
    scored, steps = [], []
    saved_cells, saved_steps = similarity._cells, similarity._lm_steps

    def cells(growth, *args):
        scored.append(growth.size)
        return saved_cells(growth, *args)

    def lm_steps(*args):
        steps.append(len(args[0]))
        return saved_steps(*args)

    similarity._cells, similarity._lm_steps = cells, lm_steps
    try:
        similarity.fit_table(groups)
    finally:
        similarity._cells, similarity._lm_steps = saved_cells, saved_steps
    coarse = len(groups) * similarity.GROWTH_GRID[2] * similarity.OFFSET_GRID[2]
    return coarse, len(steps), sum(scored) - coarse


def fit_seconds(groups: list) -> float:
    """Wall time of one ``fit_table`` call on ``groups``."""
    t0 = time.perf_counter()
    similarity.fit_table(groups)
    return time.perf_counter() - t0


def main() -> int:
    calls = captured_calls()
    print(f"default regions at seeds {REGION_SEEDS.start}-{REGION_SEEDS.stop - 1} and one "
          f"{SWEEP_DRAWS}-draw semantic-rate sweep; min of {PASSES} passes")
    print(f"{'objective':16s}  {'calls':>6s}  {'candidates':>10s}  {'ns_per_candidate':>16s}")
    for label, made in calls.items():
        n = sum(x.size for _, x in made)
        best = min(replay_seconds(made) for _ in range(PASSES))
        print(f"{label:16s}  {len(made):6d}  {n:10d}  {best / max(n, 1) * 1e9:16.1f}")
    groups = fit_groups()
    best = min(fit_seconds(groups) for _ in range(PASSES))
    coarse, steps, trials = fit_work(groups)
    print(f"fit of {FIT_CURVES} curves x {FIT_SAMPLES} samples: {coarse} coarse cells, {steps} "
          f"steps of {trials} trial cells, {best * 1e3:.1f} ms per fit, min of {PASSES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
