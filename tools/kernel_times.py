"""Time the boundary and power search objectives per candidate, in process.

Captures every objective call of the default regions at seeds 0-9 (the
default scenario, 200 points, the default grid, all schemes) and of one
``run_sweep`` on the bundled ``semantic-rate`` spec with 4 draws,
through a wrapper on ``sembit.search.refine_search``: every boundary and
power search calls it through that one binding, as
``tools/search_quality.py`` relies on too.  Each objective's captured
calls are then replayed as they came, and the tool prints its calls,
candidates and nanoseconds per candidate, the minimum over ``PASSES``
passes.  The objectives are the oma and semi boundary scores and the
minimum-power total, which scores oma and semi rows together.  The
readings are printed, not judged: the exit status is 0.

Usage:
    python tools/kernel_times.py

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sembit import cli, montecarlo, search  # noqa: E402
from sembit.boundary import trace_region  # noqa: E402
from sembit.channel import Scenario, sample_realization  # noqa: E402
from sembit.rates import Scheme  # noqa: E402

REGION_SEEDS = range(10)
SWEEP_DRAWS = 4
PASSES = 5
# Objective labels by the name of the function that owns the objective.
OBJECTIVES = {
    "_oma_points": "boundary oma",
    "_semi_points": "boundary semi",
    "_total": "power oma+semi",
}


@contextlib.contextmanager
def capture(calls: dict[str, list]):
    """Append ``(objective, candidates)`` of each objective call to ``calls[label]``.

    The objective a search scores is a ``functools.partial`` of a
    boundary ``score`` closure, or of ``power._total``, with the batch's
    row data bound; nested partials flatten, so its ``func`` names the
    owner.
    """
    saved = search.refine_search

    def spy(objective, *args, **kwargs):
        owner = objective.func.__qualname__.split(".")[0]
        label = OBJECTIVES[owner]

        def recorded(x):
            calls[label].append((objective, x))
            return objective(x)

        return saved(recorded, *args, **kwargs)

    search.refine_search = spy
    try:
        yield
    finally:
        search.refine_search = saved


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


def main() -> int:
    calls = captured_calls()
    print(f"default regions at seeds {REGION_SEEDS.start}-{REGION_SEEDS.stop - 1} and one "
          f"{SWEEP_DRAWS}-draw semantic-rate sweep; min of {PASSES} passes")
    print(f"{'objective':16s}  {'calls':>6s}  {'candidates':>10s}  {'ns_per_candidate':>16s}")
    for label, made in calls.items():
        n = sum(x.size for _, x in made)
        best = min(replay_seconds(made) for _ in range(PASSES))
        print(f"{label:16s}  {len(made):6d}  {n:10d}  {best / max(n, 1) * 1e9:16.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
