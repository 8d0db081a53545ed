"""sembit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-semantic-rate --seed 1 --seconds 10 --trace 0

Run from a checkout whose ``src/`` holds the package.  With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` it traces a
fixed slice of the workload twice (the counts must repeat exactly) and
reports the per-layer metrics plus the tracing overhead against the same
slice untraced.  Every operation's outputs are checked against the
references in ``perfbench/reference``; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when a check failed.  All load comes from this one process, one request
at a time.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
PINNED_EPOCH = "1700000000"


def hermetic_env() -> None:
    """Pin what the package reads from the environment, and import it from ``src``."""
    os.environ.pop("SVB_THREADS", None)  # sweep worker threads; one thread is the fast path
    os.environ["SOURCE_DATE_EPOCH"] = PINNED_EPOCH
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))


def machine_info() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _cli_version() -> None:
    done = subprocess.run(
        [sys.executable, "-m", "sembit.cli", "--version"], capture_output=True, text=True, cwd=ROOT
    )
    if done.returncode != 0 or not done.stdout.startswith("sembit "):
        raise RuntimeError(f"sembit --version failed: {done.stderr.strip()}")


def measure_setup(make, probe: SpeedProbe):
    """Median over repeats of a fresh ``python -m sembit.cli --version`` plus loading the inputs, at nominal speed."""
    _cli_version()  # bytecode caches are written once per install, not per run
    times, wall, workload = [], [], None
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        _cli_version()
        workload = make()
        t1 = time.perf_counter()
        probe.sample()
        wall.append(t1 - t0)
        times.append((t1 - t0) * probe.factor(t0, t1))
    print(f"setup: wall median {statistics.median(wall):.4f} s (n={len(wall)})")
    return statistics.median(times), workload


def import_ms(module: str, select) -> float:
    """Import time in a fresh interpreter (``-X importtime``): cumulative us of the rows ``select`` picks."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        total = 0
        for line in done.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <name, indented two spaces per level>"
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit() and select(parts[2][1:]):
                total += int(parts[1])
        samples.append(total / 1e3)
    return statistics.median(samples)


def percentile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


class SpeedProbe:
    """Machine speed from a fixed calibration loop run between the ops.

    On a shared host the same work can take up to twice as long, in
    phases from a fraction of a second to a minute.  Each op's wall time
    is scaled by ``CAL_NOMINAL_S`` over the calibration loop's mean time
    in the bursts just before and just after it, which reports the op at
    the machine's nominal speed.
    """

    CAL_NOMINAL_S = 0.0018  # one loop, fast phase of a 2-core x86_64 host
    INTERVAL_S = 0.02  # at most one burst per this much op time
    BURST_SHARE = 0.02  # a burst lasts this share of the op time since the last one

    def __init__(self):
        import numpy as np

        self._x = np.linspace(0.1, 0.9, 512)
        self._grid = np.linspace(0.0, 1.0, 512)
        self._np = np
        self.times: list[float] = []  # end of each burst
        self.costs: list[float] = []  # mean seconds per loop in each burst

    def _kernel(self) -> None:
        # Equal shares of the host's differently slowed kinds of work, all of
        # which the package does: numpy ufuncs, sorting, interpreter code.
        np, x = self._np, self._x
        for i in range(100):
            np.where(np.exp(x) * np.log1p(x) > 0.5, x, 0.0)
        for i in range(45):
            np.unique(np.concatenate([self._grid, x]))
        for i in range(650):
            f"{i * 1.1!r},{len({'i': i, 'x': (i, i)})}"

    def sample(self, due_only: bool = False) -> None:
        """One burst of at least one loop; with ``due_only``, only after INTERVAL_S."""
        t0 = time.perf_counter()
        since = t0 - self.times[-1] if self.times else 0.0
        if due_only and self.times and since < self.INTERVAL_S:
            return
        loops, t1 = 0, t0
        while loops == 0 or t1 - t0 < self.BURST_SHARE * since:
            self._kernel()
            loops += 1
            t1 = time.perf_counter()
        self.times.append(t1)
        self.costs.append((t1 - t0) / loops)

    def factor(self, start: float, end: float) -> float:
        """Nominal over actual speed around [start, end]: the bursts either side."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.costs[i] for i in (before, after) if 0 <= i < len(self.costs)]
        return self.CAL_NOMINAL_S / statistics.fmean(near)


class Runner:
    """Runs ops of one workload, tallying attempts and failed checks."""

    def __init__(self, workload, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, ops) -> list[tuple[dict, float, float]]:
        """(op, seconds, start) for each op; a calibration sample precedes each op when due."""
        timed = []
        for op in ops:
            self.probe.sample(due_only=True)
            start = time.perf_counter()
            self.attempted += 1
            try:
                elapsed, problems = self.workload.run(op)
            except Exception as exc:  # unreadable outputs fail the op, not the run
                self.failures.append(f"{op['input']}: checking raised {exc!r}")
                continue
            if problems:
                self.failures.append(f"{op['input']}: {'; '.join(problems)}")
            timed.append((op, elapsed, start))
        return timed


def end_to_end(runner: Runner, rng: random.Random, seconds: float) -> dict:
    """Whole passes for about ``seconds`` of wall time; the workload's metrics at nominal speed."""
    w, probe = runner.workload, runner.probe
    first = w.make_pass(rng)
    runner.run(first[:1])  # warm-up: lazy set-up and caches, checked but not timed
    t0 = time.perf_counter()
    timed = runner.run(first)
    passes = max(1, round(seconds / (time.perf_counter() - t0)))
    for _ in range(passes - 1):
        timed += runner.run(w.make_pass(rng))
    probe.sample()
    rows = []  # (kind, units, wall seconds, seconds at nominal speed)
    for op, elapsed, start in timed:
        kind = op["input"].get("kind", w.kind)
        rows.append((kind, w.units(op), elapsed, elapsed * probe.factor(start, start + elapsed)))
    for kind in sorted({r[0] for r in rows}):
        norm = [r[3] * 1e3 / r[1] for r in rows if r[0] == kind]
        wall = [r[2] * 1e3 / r[1] for r in rows if r[0] == kind]
        for name, stat in (("p50", statistics.median), ("p90", percentile_90)):
            print(f"{kind}_ms_{name} = {stat(norm):.6g} ms (n={len(norm)}; wall {stat(wall):.6g} ms)")
    units = sum(r[1] for r in rows)
    norm_s = sum(r[3] for r in rows)
    print(f"{w.rate_name} = {units / norm_s:.6g} 1/s (wall {units / sum(r[2] for r in rows):.6g} 1/s)")
    return {
        "norm_op_ms_p50": (statistics.median(r[3] * 1e3 / r[1] for r in rows), "ms"),
        "norm_ops_per_s": (units / norm_s, "1/s"),
    }


def traced(runner: Runner, rng: random.Random, seed: int):
    """Per-layer metrics over one fixed slice of ops, traced twice; returns (metrics, mismatches).

    Each op runs untraced, then under the first tracer, then under the
    second, so the overhead compares the same work at the same moment and
    the two tracers' counts must agree exactly.
    """
    import tracer

    ops = runner.workload.make_pass(rng)[: runner.workload.trace_len]
    runner.run(ops[:1])  # warm-up
    tracers = (tracer.Tracer(), tracer.Tracer())
    untraced, traced_ = [], []
    for op in ops:
        untraced += runner.run([op])
        for i, t in enumerate(tracers):
            t.install()
            try:
                timed = runner.run([op])
            finally:
                t.uninstall()
            if i == 0:
                traced_ += timed
    runner.probe.sample()

    def nominal_s(timed):
        return sum(e * runner.probe.factor(start, start + e) for _, e, start in timed)

    print(f"traced slice: {len(ops)} ops, each run untraced and under two tracers")
    metrics, again = (t.layer_metrics() for t in tracers)
    tracers[0].dump(OUT_DIR / f"spans-{runner.workload.name}-seed{seed}.json")
    mismatches = [k for k in metrics if tracer.is_count(k) and metrics[k] != again[k]]
    metrics["trace.overhead_pct"] = (nominal_s(traced_) / nominal_s(untraced) - 1.0) * 100.0
    metrics["similarity.import_ms"] = import_ms(
        "sembit.similarity", lambda name: name.strip() == "sembit.similarity"
    )
    # Top-level sembit rows: the package, everything it pulls in, and the CLI.
    metrics["cli.import_ms"] = import_ms("sembit.cli", lambda name: name.startswith("sembit"))
    return {k: (metrics[k], unit) for k, unit in tracer.LAYER_METRICS.items()}, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sembit" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the ops, the calibration loop and the child interpreters alike.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    hermetic_env()
    import sembit
    import workloads

    if Path(sembit.__file__).resolve().parent != (ROOT / "src" / "sembit").resolve():
        print(f"error: sembit imported from {sembit.__file__}, not from src/", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        make = functools.partial(workloads.WORKLOADS[args.workload], work_dir)
        rng = random.Random(args.seed)
        print(f"machine: {machine_info()}")
        print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
        probe = SpeedProbe()
        mismatches = []
        if args.trace:
            runner = Runner(make(), probe)
            metrics, mismatches = traced(runner, rng, args.seed)
            for name in mismatches:
                print(f"count not repeated across two traced passes: {name}")
        else:
            setup_s, workload = measure_setup(make, probe)
            runner = Runner(workload, probe)
            metrics = end_to_end(runner, rng, args.seconds)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics["setup_s"] = (setup_s, "s")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        failed = len(runner.failures)
        print(f"failed_frac = {failed / runner.attempted:.6g} ({failed} of {runner.attempted})")
        for line in runner.failures[:10]:
            print(f"FAILED {line}")
        correct = not runner.failures and not mismatches
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": runner.attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
