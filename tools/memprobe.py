"""Peak memory and minor page faults of default regions, sweeps and power requests, each in one process.

Runs ``sembit region --seed i --out DIR`` in process for i = 0, 1, ...
(200 points, the default grid, all schemes; DIR is temporary) and, at
each checkpoint, prints how many regions have run, the process's peak
resident set (``ru_maxrss``), the mean minor page faults per region
since the previous checkpoint and whether OpenSSL (``_hashlib``) is
loaded.  Then it does the same for ``run_sweep`` calls on the bundled
``semantic-rate`` spec with ``SWEEP_DRAWS`` draws each and base seed i,
the call the benchmark's sweep workload times, and for ``power --verify
--out DIR`` requests, the benchmark's ``cli-requests`` power op: request
i takes the i-th power input of ``perfbench/reference/cli-requests.json``
(cycling), so about one in six exits 4.  Each of the three runs in a
fresh interpreter, so one's peak does not hide another's; before its
checkpoints each prints its import footprint, the peak resident set
right after ``import sembit.cli`` and whether ``_hashlib`` is loaded
yet.  The checkpoints fix the work, where a timed benchmark run reads
its peak after however many calls it completed, so two versions of the
code compare call for call.  The readings are printed, not judged: the
exit status is 0 unless the arguments are bad.

Usage:
    python tools/memprobe.py [--regions 1,60,200] [--sweeps 1,100,1000] [--powers 1,100,1000]

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from sembit import cli, montecarlo  # noqa: E402

# ru_maxrss is in KiB on Linux and in bytes on macOS.
RSS_UNIT = 1 if sys.platform == "darwin" else 1024
# The draws of each sweep call.
SWEEP_DRAWS = 4
# The inputs of the benchmark's power requests.
POWER_INPUTS = REPO / "perfbench" / "reference" / "cli-requests.json"


def checkpoints(text: str) -> list[int]:
    """Comma-separated call counts, positive and strictly increasing."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise argparse.ArgumentTypeError(f"counts must be positive and increasing: {text!r}")
    return counts


def openssl() -> str:
    """Whether ``_hashlib``, which maps OpenSSL into the process, is loaded."""
    return f"_hashlib loaded: {'yes' if '_hashlib' in sys.modules else 'no'}"


def footprint() -> None:
    """Print the peak RSS so far and whether ``_hashlib`` is loaded, before any work."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * RSS_UNIT / 2**20
    print(f"import sembit.cli: maxrss_mb {rss_mb:.2f}, {openssl()}")


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
        print(f"{count:7d}  {rss_mb:9.2f}  {per_call:17.1f}  {openssl()}", flush=True)
        done, faults = count, usage.ru_minflt


def requests(name: str, counts, argv) -> None:
    """Readings of ``cli.main(argv(i) + ["--out", DIR])``, and the tally of their exit codes."""
    codes: collections.Counter[int] = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")

        def run(i):
            # A power-limited region or an infeasible power target exits 3 or 4
            # with a message; the tally below counts it.
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[cli.main(argv(i) + ["--out", out])] += 1

        readings(name, counts, run)
    print("exit codes: " + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))


def regions(counts) -> None:
    """Readings of default regions."""
    requests("regions", counts, lambda seed: ["region", "--seed", str(seed)])


def powers(counts) -> None:
    """Readings of the benchmark's ``power --verify --out`` requests."""
    with open(POWER_INPUTS, encoding="utf-8") as fh:
        items = [it["input"] for it in json.load(fh)["items"] if it["input"]["kind"] == "power"]

    def argv(i):
        inp = items[i % len(items)]
        return ["power", "--seed", str(inp["seed"]), "--sigma", repr(inp["sigma"]),
                "--floor", repr(inp["floor"]), "--bits", repr(inp["bits"]), "--verify"]

    requests("powers", counts, argv)


def sweeps(counts) -> None:
    """Readings of ``run_sweep`` on the bundled semantic-rate spec, ``SWEEP_DRAWS`` draws a call."""
    payload = cli._resolve_sweep_spec("semantic-rate")

    def run(seed):
        spec = dict(payload, n_realizations=SWEEP_DRAWS, base_seed=seed)
        montecarlo.run_sweep(montecarlo.SweepSpec.from_dict(spec))

    readings("sweeps", counts, run)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for probe, default in (("regions", "1,60,200"), ("sweeps", "1,100,1000"),
                           ("powers", "1,100,1000")):
        parser.add_argument(
            f"--{probe}",
            type=checkpoints,
            default=default,
            help=f"{probe[:-1]} counts at which to print a reading (default {default})",
        )
    args = parser.parse_args(argv)
    for probe in ("regions", "sweeps", "powers"):
        counts = getattr(args, probe)
        # A fresh interpreter that loads this file as the script would.
        code = (
            f"import runpy; probe = runpy.run_path({__file__!r}); "
            f"probe['footprint'](); probe[{probe!r}]({counts!r})"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
