"""Stage times of one ``power --verify --out`` request and one default ``region`` request, in process.

Runs each request through ``sembit.cli.main`` with timing wrappers on the
functions the CLI calls, and prints the microseconds per request of each
stage, the minimum over ``PASSES`` passes of the mean over a pass's
requests.  Every request writes into a fresh output directory, removed
before the request and outside its time, as the benchmark does.  The
stages, each timed by its own time only (a stage called inside another
counts for itself, not for its caller):

- parse: argument parsing, ``cli._parse``;
- scenario: loading the scenario, ``cli._load_scenario``, and its
  manifest record, ``cli._scenario_record``;
- draw: ``sample_realization``;
- solve (power): ``solve_min_powers``;
- the region's trace, in three stages: search, the one search of the
  oma and semi rows (``boundary.search_rows``); certify, the closed-form
  certificates that leave rows out of it (``boundary._oma_rate_bound``,
  ``boundary._top_optimal`` and ``boundary._over_budget``); and trace,
  the rest of ``trace_region`` (the overlay sweep, the grids, the noma
  rows, the similarity seeds, the semi fold and the lifts);
- verify (power) or contain (region): the plug-back check of all
  feasible allocations in one call, ``check_containment`` of each pair
  of schemes;
- digest: ``Scenario.digest`` for the manifest;
- render: the JSON text of ``power.json``, ``containment.json`` and
  ``manifest.json``;
- csv (region): rendering the boundary CSVs, ``boundary.write_csvs``;
- mkdir: creating the output directory, ``Path.mkdir``;
- write: opening, writing and closing each output file, ``write_text``;
- other: the request's time less its stages' (the power CSV's lines, the
  CLI's own code and the wrappers' overhead).

Each row is the minimum over passes on its own, so the rows need not add
up to the total row.  This times the CSV and manifest I/O that a traced
benchmark slice cannot.  The readings are printed, not judged: the exit
status is 0.

Usage:
    python tools/request_times.py

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import pathlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sembit import boundary, channel, cli  # noqa: E402

PASSES = 5
# A target triple every scheme meets at seed 0, so every allocation is verified.
POWER_ARGS = ["power", "--seed", "0", "--sigma", "150e3", "--floor", "0.8", "--bits", "1e6",
              "--verify"]
REGION_ARGS = ["region", "--seed", "0"]  # 200 points, the default grid, all schemes
# Requests per pass: about 0.1 s of work per pass for either command.
REQUESTS = {"power": 40, "region": 4}


class StageClock:
    """Self time per stage name, from wrappers that may nest."""

    def __init__(self):
        self.seconds: dict[str, float] = collections.defaultdict(float)
        self._inner: list[float] = []  # time spent in nested stages, per open stage

    def wrap(self, stage: str, fn):
        """``fn``, its time less that of stages it calls added to ``stage``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.seconds[stage] += elapsed - self._inner.pop()
                if self._inner:
                    self._inner[-1] += elapsed

        return timed


# (owner, attribute, stage) of every timed function, as the CLI looks each one up.
STAGES = (
    (cli, "_parse", "parse"),
    (cli, "_load_scenario", "scenario"),
    (cli, "_scenario_record", "scenario"),
    (cli, "sample_realization", "draw"),
    (cli, "solve_min_powers", "solve"),
    (cli, "trace_region", "trace"),
    (boundary, "search_rows", "search"),
    (boundary, "_oma_rate_bound", "certify"),
    (boundary, "_top_optimal", "certify"),
    (boundary, "_over_budget", "certify"),
    (cli, "_verify_solutions", "verify"),
    (cli, "check_containment", "contain"),
    (channel.Scenario, "digest", "digest"),
    (cli, "indented", "render"),
    (cli, "write_csvs", "csv"),
    (pathlib.Path, "mkdir", "mkdir"),
    (cli, "write_text", "write"),
    (boundary, "write_text", "write"),
)


@contextlib.contextmanager
def timed_stages(clock: StageClock):
    """Install the wrappers of ``STAGES``; restore them all on exit."""
    saved = []
    try:
        for owner, name, stage in STAGES:
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, clock.wrap(stage, getattr(owner, name)))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def request_stages(argv: list[str], out: Path, requests: int) -> dict[str, float]:
    """Mean seconds per request of each stage, ``other`` and ``total``, over ``requests`` requests."""
    clock = StageClock()
    total = 0.0
    with timed_stages(clock), contextlib.redirect_stdout(io.StringIO()):
        for _ in range(requests):
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.perf_counter()
            code = cli.main(argv + ["--out", str(out)])
            total += time.perf_counter() - t0
            if code != cli.EXIT_OK:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
    stages = {stage: s / requests for stage, s in clock.seconds.items()}
    stages["other"] = (total - sum(clock.seconds.values())) / requests
    stages["total"] = total / requests
    return stages


def best_stages(argv: list[str], out: Path, requests: int) -> dict[str, float]:
    """Each row of :func:`request_stages` at its minimum over ``PASSES`` passes, after a warm-up."""
    request_stages(argv, out, 1)
    runs = [request_stages(argv, out, requests) for _ in range(PASSES)]
    return {stage: min(run[stage] for run in runs) for stage in runs[0]}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (POWER_ARGS, REGION_ARGS):
            command = argv[0]
            stages = best_stages(argv, Path(tmp) / command, REQUESTS[command])
            print(f"{' '.join(argv)} --out DIR: mean of {REQUESTS[command]} requests per "
                  f"pass, min of {PASSES} passes")
            print(f"{'stage':12s}  {'us_per_request':>14s}")
            for stage, seconds in stages.items():
                print(f"{stage:12s}  {seconds * 1e6:14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
