"""Alternating benchmark pairs of two checkouts, recorded as one BENCH_<pr>.json.

For each seed in A..B, runs ``perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`` once in each checkout, as a subprocess with the
checkout as its working directory, so each side times its own code.
The side that runs first alternates: the base in pairs 0, 2, 4, ...,
the head in pairs 1, 3, 5, ....  Only the last stdout line of a run is
read: the result JSON that ``perfbench/README.md`` documents.

The file records the machine, both checkouts (the path as given, and
the commit), every run (exit code, attempted and failed ops, metrics),
and per end-to-end metric of the head checkout's ``BENCHMARK.json``: its
unit, direction and bound, each side's median and quartiles, the
head/base ratio of every pair and the pairs the head won.  Two verdicts
per metric follow: ``claim_met`` when the head won at least 9 of every
10 pairs and the medians differ by more than the base's interquartile
range, and ``regressed`` when the head's median is worse than the
base's by more than the bound.  The verdicts are recorded, not
enforced: the exit status is 0 once the file is written.

An existing ``--out`` file gains (or replaces) this workload's entry, so
one file holds every workload of a comparison; it must name the same
machine and checkouts.  Checkouts whose absolute paths differ in length
are refused (exit 2): the benchmark's timings move with the checkout's
path length, with no code cause.

Usage:
    python tools/bench_pairs.py --base DIR --head DIR --workload W \\
        --seeds A-B --seconds S --out BENCH_<pr>.json

Shared CI runners cannot time, so CI does not run this tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

# The head must win at least CLAIM_WINS of every CLAIM_PAIRS pairs for a claim.
CLAIM_WINS, CLAIM_PAIRS = 9, 10
SIDES = ("base", "head")


def seed_range(text: str) -> list[int]:
    """``A-B`` as the seeds A, A+1, ..., B."""
    first, sep, last = text.partition("-")
    try:
        a, b = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range A-B of integers: {text!r}")
    if not sep or b < a:
        raise argparse.ArgumentTypeError(f"not a range A-B with A <= B: {text!r}")
    return list(range(a, b + 1))


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
    }


def checkout(path: Path) -> dict:
    """A checkout's path as given, and its commit (None outside a git work tree)."""
    done = subprocess.run(
        ["git", "-C", str(path), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    commit = done.stdout.strip() if done.returncode == 0 else None
    return {"path": str(path), "commit": commit}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout ``root``: its exit code, op counts and metric values."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"error: {root}: seed {seed} printed no result line (exit {done.returncode}):\n"
            f"{done.stderr.strip()}"
        )
    return {
        "exit_code": done.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(pairs: list[dict], spec: dict) -> dict:
    """One end-to-end metric over the pairs: both sides' spread, the pair wins and the verdicts."""
    name, lower = spec["name"], spec["better"] == "lower"
    values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
    base, head = quartiles(values["base"]), quartiles(values["head"])
    wins = sum((h < b) if lower else (h > b) for b, h in zip(values["base"], values["head"]))
    gain = base["median"] - head["median"] if lower else head["median"] - base["median"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "base": {"runs": values["base"], **base},
        "head": {"runs": values["head"], **head},
        "ratios": [h / b for b, h in zip(values["base"], values["head"])],
        "wins": wins,
        "change": head["median"] / base["median"] - 1.0,
        "claim_met": wins * CLAIM_PAIRS >= CLAIM_WINS * len(pairs) and gain > base["iqr"],
        "regressed": -gain > spec["bound"] * abs(base["median"]),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--head", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True, help="one workload name of perfbench/run.py")
    parser.add_argument("--seeds", type=seed_range, required=True, help="pair seeds, A-B")
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<pr>.json to write")
    args = parser.parse_args(argv)
    roots = {side: getattr(args, side).resolve() for side in SIDES}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: --{side} {root} has no perfbench/run.py", file=sys.stderr)
            return 2
    if len(str(roots["base"])) != len(str(roots["head"])):
        print(
            f"error: checkout paths differ in length ({roots['base']}, {roots['head']}); "
            "timings move with it, so give both the same length",
            file=sys.stderr,
        )
        return 2
    record = {"machine": machine(), **{side: checkout(getattr(args, side)) for side in SIDES}}
    if args.out.exists():
        earlier = json.loads(args.out.read_text(encoding="utf-8"))
        for key in record:
            if earlier.get(key) != record[key]:
                print(f"error: {args.out} records another {key}: {earlier.get(key)}", file=sys.stderr)
                return 2
        record["workloads"] = earlier["workloads"]
    specs = json.loads((roots["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, args.seconds)
            print(f"pair {i} seed {seed} {side}: {pair[side]}", flush=True)
        pairs.append(pair)
    record.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds,
        "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "pairs": pairs,
        "metrics": {spec["name"]: summary(pairs, spec) for spec in specs},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, m in record["workloads"][args.workload]["metrics"].items():
        print(
            f"{name}: base {m['base']['median']:.6g} head {m['head']['median']:.6g} "
            f"({m['change']:+.2%}), head won {m['wins']} of {len(pairs)}, "
            f"claim_met {m['claim_met']}, regressed {m['regressed']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
