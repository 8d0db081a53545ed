"""Peak memory and minor page faults of default regions solved in one process.

Runs ``sembit region --seed i --out DIR`` in process for i = 0, 1, ...
(200 points, the default grid, all schemes; DIR is temporary) and, at
each checkpoint, prints how many regions have run, the process's peak
resident set (``ru_maxrss``) and the mean minor page faults per region
since the previous checkpoint.  The checkpoints fix the work, where a
timed benchmark run reads its peak after however many regions it
completed, so two versions of the code compare region for region.  The
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
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sembit import cli  # noqa: E402

# ru_maxrss is in KiB on Linux and in bytes on macOS.
RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def checkpoints(text: str) -> list[int]:
    """Comma-separated region counts, positive and strictly increasing."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise argparse.ArgumentTypeError(f"counts must be positive and increasing: {text!r}")
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regions",
        type=checkpoints,
        default=[1, 60, 200],
        help="region counts at which to print a reading (default 1,60,200)",
    )
    args = parser.parse_args(argv)
    codes: collections.Counter[int] = collections.Counter()
    print(f"{'regions':>7}  {'maxrss_mb':>9}  {'minflt_per_region':>17}")
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "region")
        done = 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for count in args.regions:
            for seed in range(done, count):
                # A power-limited draw exits 3 with a message; the tally below counts it.
                with contextlib.redirect_stderr(io.StringIO()):
                    codes[cli.main(["region", "--seed", str(seed), "--out", out])] += 1
            usage = resource.getrusage(resource.RUSAGE_SELF)
            per_region = (usage.ru_minflt - faults) / (count - done)
            rss_mb = usage.ru_maxrss * RSS_UNIT / 2**20
            print(f"{count:7d}  {rss_mb:9.2f}  {per_region:17.1f}")
            done, faults = count, usage.ru_minflt
    print("exit codes: " + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
