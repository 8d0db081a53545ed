"""Peak memory and minor page faults of default regions and of sweeps, each in one process.

Runs ``sembit region --seed i --out DIR`` in process for i = 0, 1, ...
(200 points, the default grid, all schemes; DIR is temporary) and, at
each checkpoint, prints how many regions have run, the process's peak
resident set (``ru_maxrss``) and the mean minor page faults per region
since the previous checkpoint.  Then it does the same for ``SWEEPS``
``run_sweep`` calls on the bundled ``semantic-rate`` spec with
``SWEEP_DRAWS`` draws each and base seed i, the call the benchmark's
sweep workload times.  Each of the two runs in a fresh interpreter, so
the regions' peak does not hide the sweeps'; before its checkpoints each
prints its import footprint, the peak resident set right after ``import
sembit.cli`` and whether OpenSSL (``_hashlib``) is loaded yet.  The
checkpoints fix the work, where a timed benchmark run reads its peak
after however many calls it completed, so two versions of the code
compare call for call.  The
readings are printed, not judged: the exit status is 0 unless the
arguments are bad.

Usage:
    python tools/memprobe.py [--regions 1,60,200]

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sembit import cli, montecarlo  # noqa: E402

# ru_maxrss is in KiB on Linux and in bytes on macOS.
RSS_UNIT = 1 if sys.platform == "darwin" else 1024
# Sweep checkpoints, and the draws of each sweep call.
SWEEPS = (1, 100, 1000)
SWEEP_DRAWS = 4


def checkpoints(text: str) -> list[int]:
    """Comma-separated region counts, positive and strictly increasing."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise argparse.ArgumentTypeError(f"counts must be positive and increasing: {text!r}")
    return counts


def footprint() -> None:
    """Print the peak RSS so far and whether ``_hashlib`` is loaded, before any work."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * RSS_UNIT / 2**20
    loaded = "yes" if "_hashlib" in sys.modules else "no"
    print(f"import sembit.cli: maxrss_mb {rss_mb:.2f}, _hashlib loaded: {loaded}")


def readings(name: str, counts, run) -> None:
    """Call ``run(i)`` for i = 0, 1, ... and print a reading at each of ``counts``."""
    print(f"{name:>7}  {'maxrss_mb':>9}  {'minflt_per_' + name[:-1]:>17}")
    done = 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for count in counts:
        for i in range(done, count):
            run(i)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        per_call = (usage.ru_minflt - faults) / (count - done)
        rss_mb = usage.ru_maxrss * RSS_UNIT / 2**20
        print(f"{count:7d}  {rss_mb:9.2f}  {per_call:17.1f}", flush=True)
        done, faults = count, usage.ru_minflt


def regions(counts) -> None:
    """Readings of default regions, and the tally of their exit codes."""
    codes: collections.Counter[int] = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "region")

        def run(seed):
            # A power-limited draw exits 3 with a message; the tally below counts it.
            with contextlib.redirect_stderr(io.StringIO()):
                codes[cli.main(["region", "--seed", str(seed), "--out", out])] += 1

        readings("regions", counts, run)
    print("exit codes: " + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))


def sweeps(counts) -> None:
    """Readings of ``run_sweep`` on the bundled semantic-rate spec, ``SWEEP_DRAWS`` draws a call."""
    payload = cli._resolve_sweep_spec("semantic-rate")

    def run(seed):
        spec = dict(payload, n_realizations=SWEEP_DRAWS, base_seed=seed)
        montecarlo.run_sweep(montecarlo.SweepSpec.from_dict(spec))

    readings("sweeps", counts, run)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regions",
        type=checkpoints,
        default=[1, 60, 200],
        help="region counts at which to print a reading (default 1,60,200)",
    )
    args = parser.parse_args(argv)
    for probe, counts in (("regions", args.regions), ("sweeps", list(SWEEPS))):
        # A fresh interpreter that loads this file as the script would.
        code = (
            f"import runpy; probe = runpy.run_path({__file__!r}); "
            f"probe['footprint'](); probe[{probe!r}]({counts!r})"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
