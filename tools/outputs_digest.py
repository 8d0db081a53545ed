"""Digest the outputs of a fixed set of CLI runs, to compare two versions.

Runs, in process through ``sembit.cli.main`` and with SOURCE_DATE_EPOCH
pinned, in a temporary directory:

- ``region`` at seeds 0, 3, 4 and 7, ``--schemes semi`` and
  ``--schemes oma,semi`` at seed 7, ``--seed 1 --points 60 --grid 128``,
  and ``--seed 1 --points 1000 --schemes oma,semi``, whose rows span
  more than one bracket batch of the row-batched search;
- ``power --verify --out`` on each of ``TRIPLES`` at seeds 0, 3 and 4,
  and one ``power --verify`` to stdout;
- the three bundled sweeps at ``--realizations 60``;
- ``replay`` of the seed-7 region's manifest;
- ``fit`` on a CSV the tool writes from fixed S-curves (``FIT_CURVES``).

Prints each run's exit code, the SHA-256 of each file it wrote (manifests
included) and of its stdout, and one combined digest over all of those
lines.  Two versions whose outputs and exit codes match print the same
lines.  The digests are printed, not judged: the exit status is 0.
The runs work inside the temporary directory, so the fit manifest
records a relative input path that repeats from run to run.

``--save DIR`` also keeps every output file, as ``DIR/<label>/<name>``
with a run's stdout in ``DIR/<label>/stdout.txt``.  ``--compare OLD NEW``
runs nothing: for each file of two saved sets it prints the largest
relative move of any number, |a - b| / max(|a|, |b|), with the worst
pair and how many numbers moved.  A file whose text differs beyond its
numbers, or that only one set has, is named as such.

Usage:
    python tools/outputs_digest.py [--save DIR]
    python tools/outputs_digest.py --compare OLD_DIR NEW_DIR

Run from the root of a checkout; ``src`` goes on the import path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sembit import cli  # noqa: E402

EPOCH = "1700000000"
# (sigma, floor, bits): the floor binds, bit-only, the rate target binds,
# near the curve ceiling (oma's bit band too narrow at seed 0), and three
# infeasible for every scheme (the rate target, then the floor, above the
# curve ceiling, and a semantic rate wider than the carrier).
TRIPLES = (
    ("150e3", "0.8", "1e6"),
    ("0", "0.8", "2e6"),
    ("210e3", "0.5", "1e6"),
    ("229400", "0.6", "1.8e6"),
    ("230e3", "0.8", "1e6"),
    ("100e3", "0.95", "1e6"),
    ("260e3", "0.8", "1e5"),
)
# k: (a_low, a_high, growth, offset) of the curves the fit's samples lie on,
# each sampled at FIT_SNR_DB.
FIT_CURVES = {2: (0.2, 0.95, 0.4, 1.0), 4: (0.15, 0.9, 0.3, -0.5), 8: (0.1, 0.85, 0.25, -2.0)}
FIT_SNR_DB = [-10.0 + 1.25 * i for i in range(25)]
FIT_INPUT = "fit-samples.csv"
STDOUT_NAME = "stdout.txt"
# A number as the writers print it: a JSON or CSV float, an integer, or a
# non-finite float's spelling.
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)")


def write_fit_samples(path: Path) -> None:
    """The ``k,snr_db,similarity`` CSV of FIT_CURVES at FIT_SNR_DB."""
    rows = ["k,snr_db,similarity"]
    for k, (a_low, a_high, growth, offset) in FIT_CURVES.items():
        for snr in FIT_SNR_DB:
            eps = a_low + (a_high - a_low) / (1.0 + math.exp(-(growth * snr + offset)))
            rows.append(f"{k},{snr!r},{eps!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def runs(tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run, in order; a run writes into the directory named by its label."""
    out: list[tuple[str, list[str]]] = []

    def region(label: str, *args: str) -> None:
        out.append((label, ["region", *args, "--out", str(tmp / label)]))

    for seed in (0, 3, 4, 7):
        region(f"region-seed{seed}", "--seed", str(seed))
    region("region-semi", "--seed", "7", "--schemes", "semi")
    region("region-oma-semi", "--seed", "7", "--schemes", "oma,semi")
    region("region-seed1-60-128", "--seed", "1", "--points", "60", "--grid", "128")
    region("region-seed1-1000-oma-semi", "--seed", "1", "--points", "1000", "--schemes", "oma,semi")
    for i, (sigma, floor, bits) in enumerate(TRIPLES):
        for seed in (0, 3, 4):
            label = f"power-{i}-seed{seed}"
            argv = ["power", "--seed", str(seed), "--sigma", sigma, "--floor", floor]
            out.append((label, [*argv, "--bits", bits, "--verify", "--out", str(tmp / label)]))
    sigma, floor, bits = TRIPLES[0]
    argv = ["power", "--seed", "7", "--sigma", sigma, "--floor", floor, "--bits", bits]
    out.append(("power-stdout", [*argv, "--verify"]))
    for name in sorted(cli.BUNDLED_SWEEPS):
        label = f"sweep-{name}"
        argv = ["sweep", "--spec", name, "--realizations", "60"]
        out.append((label, [*argv, "--out", str(tmp / label)]))
    manifest = str(tmp / "region-seed7" / "manifest.json")
    label = "replay-region-seed7"
    out.append((label, ["replay", manifest, "--out", str(tmp / label)]))
    out.append(("fit", ["fit", "--input", FIT_INPUT, "--out", str(tmp / "fit")]))
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(save: Path | None) -> str:
    """The digest lines of the run set; with ``save``, keep its outputs there too."""
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_fit_samples(Path(FIT_INPUT))
            for label, argv in runs(Path(tmp)):
                stdout = io.StringIO()
                # Exit-3 and exit-4 runs explain themselves on stderr; the code is what counts.
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                lines.append(f"exit {code}  {label}")
                # (digest name, saved name, bytes) of the run's stdout and files.
                outputs = []
                if stdout.getvalue():
                    outputs.append(("<stdout>", STDOUT_NAME, stdout.getvalue().encode()))
                out_dir = Path(tmp) / label
                if out_dir.is_dir():
                    outputs += [(p.name, p.name, p.read_bytes()) for p in sorted(out_dir.iterdir())]
                for name, saved, data in outputs:
                    lines.append(f"{sha256(data)}  {label}/{name}")
                    if save is not None:
                        (save / label).mkdir(parents=True, exist_ok=True)
                        (save / label / saved).write_bytes(data)
        finally:
            os.chdir(cwd)
    text = "".join(line + "\n" for line in lines)
    return text + f"{sha256(text.encode())}  combined"


def _move(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 when equal (infinities and NaNs too), inf across a non-finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(old: Path, new: Path) -> str:
    """One report line body for a file both sets hold."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "identical"
    ta, tb = a.decode("utf-8"), b.decode("utf-8")
    if NUMBER.split(ta) != NUMBER.split(tb):
        return "text differs beyond its numbers"
    na, nb = NUMBER.findall(ta), NUMBER.findall(tb)
    moves = [(_move(float(x), float(y)), x, y) for x, y in zip(na, nb)]
    worst = max(moves)
    if not worst[0]:
        return "same numbers, spelled differently"
    moved = sum(m > 0 for m, _, _ in moves)
    pair = f"({worst[1]} -> {worst[2]})"
    return f"max rel move {worst[0]:.3g} {pair}, {moved} of {len(moves)} numbers moved"


def compare(old_dir: Path, new_dir: Path) -> str:
    """The report of :func:`compare_file` over two saved sets, one line per file."""
    names: set[str] = set()
    for d in (old_dir, new_dir):
        names |= {p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()}
    lines = []
    for name in sorted(names):
        old, new = old_dir / name, new_dir / name
        if not old.is_file() or not new.is_file():
            which = "new" if new.is_file() else "old"
            lines.append(f"only in the {which} set  {name}")
        else:
            lines.append(f"{compare_file(old, new)}  {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", type=Path, metavar="DIR", help="also keep the outputs in DIR")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        print(compare(*(d.resolve() for d in args.compare)))
    else:
        print(digest(args.save.resolve() if args.save else None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
