"""Compare the region boundaries of two checkouts over a fixed region set.

Traces every scheme of each region of ``regions()`` with
``trace_region`` at its defaults, once per checkout, each in a
subprocess that imports ``sembit`` from that checkout's ``src``.  The
set holds 600 regions: the default scenario at draws (CLI seeds) 0-299,
and 60 scenarios from ``default_rng(5)`` at draws ``derive_seed(0, i)``
for i in 0-4.  Each random scenario draws, in this order, k in 3-7, a
similarity floor in 0-0.9, the semantic and the bit user's distances in
5-60 m, and a power budget log-uniform in 0.03-3 W.

For each scheme it prints the boundaries both sides traced, their rows,
the rows whose sigma, bit rate or similarity moved, and the worst fall
of a head row's bit rate below the base's, over the base boundary's
maximum bit rate, with the region and row where it happens.  A boundary
whose length changed, or that only one side traced, is named instead of
compared.  The gate holds when no row falls more than ``FALL_TOL`` of
its boundary's maximum and no boundary changed length or went missing;
the tool exits 1 when it does not.

With ``--sweeps`` it compares minimum powers instead: each bundled
sweep spec's per-(value, draw, scheme) totals, as
``montecarlo._sweep_totals`` solves them over the spec's own draws.  For
each spec and scheme it prints the rows, the rows that moved, and the
worst relative rise of a head total above the base's, with the value and
draw where it happens; then every row whose feasibility changed, and any
spec whose shape changed or that one side lacks.  That gate holds when
no total rises more than ``FALL_TOL`` relative and no row changed
feasibility or shape.

Usage:
    python tools/trace_gate.py --base DIR --head DIR [--regions N] [--sweeps]

``--base`` and ``--head`` are checkout roots, each with ``src/sembit``;
the tool itself may live in either or neither.  ``--regions N`` traces
only the first N regions of the set.
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FALL_TOL = 1e-9
DEFAULT_DRAWS = 300
RANDOM_SCENARIOS = 60
RANDOM_DRAWS = 5
SCHEMES = ("oma", "noma", "semi")
COLUMNS = ("sigma", "bit_rate", "similarity")


def regions() -> list[tuple[str, dict, str, int]]:
    """(label, scenario fields over the defaults, draw kind, draw index) of each region.

    A default region's draw is the CLI seed; a random scenario's is
    ``derive_seed(0, index)``.
    """
    out = [(f"default/{seed}", {}, "seed", seed) for seed in range(DEFAULT_DRAWS)]
    rng = np.random.default_rng(5)
    for j in range(RANDOM_SCENARIOS):
        fields = {
            "k": int(rng.integers(3, 8)),
            "min_similarity": float(rng.uniform(0.0, 0.9)),
            "d_s": float(rng.uniform(5.0, 60.0)),
            "d_b": float(rng.uniform(5.0, 60.0)),
            "max_power": math.exp(rng.uniform(math.log(0.03), math.log(3.0))),
        }
        out += [(f"scenario{j}/{i}", fields, "derived", i) for i in range(RANDOM_DRAWS)]
    return out


def trace(src: Path, out: Path, count: int, sweeps: bool = False) -> None:
    """Trace the first ``count`` regions with the ``sembit`` under ``src``; save columns to ``out``.

    Runs in the subprocess of one checkout.  Each column is saved as
    ``<region index>:<scheme>:<column>``.  With ``sweeps``, saves each
    bundled spec's totals as ``<spec name>`` and its values as
    ``<spec name>:values`` instead.
    """
    sys.path.insert(0, str(src))
    import sembit

    if Path(sembit.__file__).resolve().parent != (src / "sembit").resolve():
        raise SystemExit(f"imported sembit from {sembit.__file__}, not from {src}")
    np.savez(out, **(_sweep_columns(sembit) if sweeps else _region_columns(sembit, count)))


def _region_columns(sembit, count: int) -> dict[str, np.ndarray]:
    """The boundary columns of the first ``count`` regions, by ``<index>:<scheme>:<column>``."""
    columns = {}
    for i, (_, fields, kind, index) in enumerate(regions()[:count]):
        scenario = sembit.Scenario(**fields)
        seed = index if kind == "seed" else sembit.derive_seed(0, index)
        real = sembit.sample_realization(scenario, seed)
        found, _ = sembit.trace_region(scenario, real, list(SCHEMES))
        for scheme, b in found.items():
            for name in COLUMNS:
                columns[f"{i}:{scheme.value}:{name}"] = np.asarray(getattr(b, name))
    return columns


def _sweep_columns(sembit) -> dict[str, np.ndarray]:
    """Each bundled spec's totals, shape (values, draws, schemes), and its values."""
    from sembit import cli, montecarlo

    columns = {}
    for name in cli.BUNDLED_SWEEPS:
        spec = montecarlo.SweepSpec.from_dict(cli._resolve_sweep_spec(name))
        reals = [
            sembit.sample_realization(spec.scenario, sembit.derive_seed(spec.base_seed, i))
            for i in range(spec.n_realizations)
        ]
        columns[name] = montecarlo._sweep_totals(spec, reals)
        columns[f"{name}:values"] = np.asarray(spec.values, dtype=float)
    return columns


def run_side(root: Path, out: Path, count: int, sweeps: bool = False) -> dict[str, np.ndarray]:
    """The saved columns of one checkout, traced in a subprocess from its root."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--trace", str(root / "src"), str(out)]
    argv += ["--regions", str(count)] + (["--sweeps"] if sweeps else [])
    subprocess.run(argv, cwd=root, check=True)
    with np.load(out) as saved:
        return {key: saved[key] for key in saved.files}


def _moved(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows where two equal-length columns differ; two NaNs are equal."""
    return (a != b) & ~(np.isnan(a) & np.isnan(b))


def compare(base: dict, head: dict, labels: list[str]) -> tuple[list[str], bool]:
    """The report lines over two sides' columns, and whether the gate holds."""
    lines = [f"{'scheme':<7}{'boundaries':>11}{'rows':>9}{'moved':>8}{'worst fall':>12}  where"]
    holds = True
    odd = []
    for scheme in SCHEMES:
        boundaries = rows = moved = 0
        worst, where = 0.0, "-"
        for i, label in enumerate(labels):
            key = f"{i}:{scheme}:"
            sides = [key + "sigma" in side for side in (base, head)]
            if not any(sides):
                continue
            if not all(sides):
                odd.append(f"{scheme} {label}: traced by the {'base' if sides[0] else 'head'} only")
                continue
            old = np.array([base[key + name] for name in COLUMNS])
            new = np.array([head[key + name] for name in COLUMNS])
            if old.shape != new.shape:
                odd.append(f"{scheme} {label}: length {old.shape[1]} -> {new.shape[1]}")
                continue
            boundaries += 1
            rows += old.shape[1]
            moved += int(_moved(old, new).any(axis=0).sum())
            top = old[1].max(initial=0.0)
            if top > 0.0:
                fall = (old[1] - new[1]) / top
                row = int(np.argmax(fall))
                if fall[row] > worst:
                    worst, where = float(fall[row]), f"{label} row {row}"
        holds &= worst <= FALL_TOL
        lines.append(f"{scheme:<7}{boundaries:>11}{rows:>9}{moved:>8}{worst:>12.3g}  {where}")
    holds &= not odd
    changed = ", ".join(odd) or "none"
    lines.append(f"boundaries whose length changed or that one side lacks: {changed}")
    verdict = "holds" if holds else "fails"
    lines.append(
        f"gate {verdict}: no row may fall more than {FALL_TOL:g} of its boundary's maximum"
        " below the base, and no boundary may change length"
    )
    return lines, holds


def compare_sweeps(base: dict, head: dict) -> tuple[list[str], bool]:
    """The report lines over two sides' sweep totals, and whether the sweep gate holds."""
    lines = [f"{'spec':<18}{'scheme':<7}{'rows':>7}{'moved':>7}{'worst rise':>12}  where"]
    odd, flips = [], []
    holds = True
    names = [k for k in {**base, **head} if ":" not in k]
    for name in names:
        if not (name in base and name in head):
            odd.append(f"{name}: run by the {'base' if name in base else 'head'} only")
            continue
        old, new, values = base[name], head[name], base[f"{name}:values"].tolist()
        if old.shape != new.shape:
            odd.append(f"{name}: shape {old.shape} -> {new.shape}")
            continue
        for j, scheme in enumerate(SCHEMES):
            a, b = old[..., j], new[..., j]
            for v, d in zip(*np.nonzero(np.isfinite(a) != np.isfinite(b))):
                change = f"{a.item(v, d)!r} -> {b.item(v, d)!r}"
                flips.append(f"{name} {scheme} value {values[v]!r} draw {d}: {change}")
            with np.errstate(invalid="ignore"):
                rise = np.where(b > a, (b - a) / np.maximum(a, np.finfo(float).tiny), 0.0)
            worst, where = 0.0, "-"
            if rise.size and rise.max() > 0.0:
                v, d = np.unravel_index(np.argmax(rise), rise.shape)
                worst, where = rise.item(v, d), f"value {values[v]!r} draw {d}"
            holds &= worst <= FALL_TOL
            moved = int(_moved(a, b).sum())
            lines.append(f"{name:<18}{scheme:<7}{a.size:>7}{moved:>7}{worst:>12.3g}  {where}")
    holds &= not odd and not flips
    lines.append(f"rows whose feasibility changed: {', '.join(flips) or 'none'}")
    lines.append(f"specs whose shape changed or that one side lacks: {', '.join(odd) or 'none'}")
    verdict = "holds" if holds else "fails"
    lines.append(
        f"gate {verdict}: no minimum power may rise more than {FALL_TOL:g} above the base,"
        " and no row may change feasibility or shape"
    )
    return lines, holds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, metavar="DIR")
    parser.add_argument("--head", type=Path, metavar="DIR")
    parser.add_argument("--regions", type=int, default=len(regions()), metavar="N")
    parser.add_argument(
        "--sweeps", action="store_true", help="compare the bundled sweeps' minimum powers"
    )
    parser.add_argument("--trace", type=Path, nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace:
        trace(*args.trace, args.regions, args.sweeps)
        return 0
    if args.base is None or args.head is None:
        parser.error("--base and --head are required")
    labels = [label for label, *_ in regions()[: args.regions]]
    with tempfile.TemporaryDirectory() as tmp:
        sides = [
            run_side(root.resolve(), Path(tmp) / f"{side}.npz", args.regions, args.sweeps)
            for side, root in (("base", args.base), ("head", args.head))
        ]
    if args.sweeps:
        print(f"sweep gate over the bundled specs: base {args.base}, head {args.head}")
        lines, holds = compare_sweeps(*sides)
    else:
        print(f"trace gate over {len(labels)} regions: base {args.base}, head {args.head}")
        lines, holds = compare(*sides, labels)
    print("\n".join(lines))
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
