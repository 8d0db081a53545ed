"""Command-line front end.

Subcommands:
    fit     fit S-curves to a measurement CSV, write a parameter table
    region  trace the three boundaries for one channel draw
    power   solve the three minimum-power problems for one target triple
    sweep   run a Monte-Carlo minimum-power sweep
    replay  re-run any earlier command from its manifest

Every data-producing command writes a manifest.json beside its outputs
holding the fully resolved inputs (inline scenario/spec, seeds, grid
sizes), the package version, and a timestamp.  Re-running a command from
its manifest reproduces the data outputs byte for byte; the timestamp
honours SOURCE_DATE_EPOCH so even the manifest can be pinned.

Exit codes: 0 success, 2 malformed input, 3 empty overlay region
(power-limited draw), 4 infeasible targets, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import fields, replace
from importlib import resources
from math import inf
from pathlib import Path

from . import __version__
from .boundary import check_containment, trace_region
from .channel import Scenario, sample_realization
from .errors import (
    DegenerateData,
    DomainMismatch,
    EmptyRegion,
    Infeasible,
    InfeasibleTarget,
    InsufficientData,
    SembitError,
    TargetUnreachable,
)
from .montecarlo import SweepSpec, run_sweep
from .power import PowerTargets, solve_min_powers
from .rates import Scheme, rates_for
from .search import DEFAULT_GRID_N, check_grid_n
from .similarity import fit_logistic, fit_mse, ParamTable, read_samples_csv

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_EMPTY_REGION = 3
EXIT_INFEASIBLE = 4

BUNDLED_SWEEPS = {
    "semantic-rate": "sweep_semantic_rate.json",
    "similarity-floor": "sweep_similarity_floor.json",
    "source-length": "sweep_source_length.json",
}
_VERIFY_RTOL = 1e-6


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(pinned) if pinned else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, command: str, args: dict, scenario: Scenario | None) -> None:
    payload = {
        "command": command,
        "args": args,
        "version": __version__,
        "timestamp": _timestamp(),
    }
    if scenario is not None:
        payload["scenario_sha256"] = scenario.digest()
    _write_json(out_dir / "manifest.json", payload)


def _load_scenario(path: str | None) -> Scenario:
    if path is None:
        return Scenario()
    return Scenario.load(path)


def _run_fit(params: dict, out_dir: Path) -> int:
    groups = read_samples_csv(params["input"])
    entries = []
    for k in sorted(groups):
        fitted = fit_logistic(groups[k])
        entries.append(fitted)
        print(f"k={k}: n={len(groups[k])} mse={fit_mse(fitted, groups[k]):.6e}")
    table = ParamTable(entries)
    out_dir.mkdir(parents=True, exist_ok=True)
    table.dump(out_dir / "params.json")
    _write_manifest(out_dir, "fit", params, None)
    return EXIT_OK


def _run_region(params: dict, out_dir: Path) -> int:
    check_grid_n(params["grid"])
    scenario = Scenario.from_dict(params["scenario"])
    real = sample_realization(scenario, params["seed"])
    boundaries, empty_overlay = trace_region(
        scenario, real, params["schemes"], params["points"], params["grid"]
    )
    if empty_overlay is not None:
        print(f"overlay region is empty on this draw: {empty_overlay}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    for scheme, boundary in boundaries.items():
        boundary.write_csv(out_dir / f"{scheme.value}.csv")
    verdicts = {}
    pairs = [
        ("semi_covers_oma", Scheme.OMA, Scheme.SEMI),
        ("semi_covers_noma", Scheme.NOMA, Scheme.SEMI),
        ("noma_covers_oma", Scheme.OMA, Scheme.NOMA),
        ("oma_covers_noma", Scheme.NOMA, Scheme.OMA),
    ]
    for name, inner, outer in pairs:
        if inner in boundaries and outer in boundaries:
            try:
                verdict = check_containment(boundaries[inner], boundaries[outer])
            except DomainMismatch as exc:
                verdicts[name] = {"error": str(exc)}
                continue
            worst = verdict.max_violation
            verdicts[name] = {**_record(verdict), "max_violation": worst if worst != inf else "inf"}
    if verdicts:
        _write_json(out_dir / "containment.json", verdicts)
    _write_manifest(out_dir, "region", params, scenario)
    return EXIT_EMPTY_REGION if empty_overlay is not None else EXIT_OK


def _record(obj) -> dict:
    """A flat dataclass as a dict of its fields, without ``asdict``'s deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _verify_solution(scenario, real, targets, alloc) -> list[str]:
    """Plug the allocation back through the rate equations; list violations."""
    probe = scenario
    if alloc.total_power > scenario.max_power:
        probe = scenario.with_updates(max_power=alloc.total_power * (1 + 1e-12))
    achieved = rates_for(probe, real, alloc)
    problems = []
    if achieved.sem_rate < targets.sigma_target * (1 - _VERIFY_RTOL):
        problems.append(
            f"semantic rate {achieved.sem_rate:.9g} < target {targets.sigma_target:.9g}"
        )
    sem_active = targets.sigma_target > 0 or alloc.scheme is Scheme.NOMA
    if sem_active and achieved.similarity < targets.min_similarity * (1 - _VERIFY_RTOL):
        problems.append(
            f"similarity {achieved.similarity:.9g} < floor {targets.min_similarity:.9g}"
        )
    if achieved.bit_rate < targets.bit_target * (1 - _VERIFY_RTOL):
        problems.append(
            f"bit rate {achieved.bit_rate:.9g} < target {targets.bit_target:.9g}"
        )
    return problems


def _run_power(params: dict, out_dir: Path | None) -> int:
    check_grid_n(params["grid"])
    scenario = Scenario.from_dict(params["scenario"])
    real = sample_realization(scenario, params["seed"])
    targets = PowerTargets(
        sigma_target=params["sigma"],
        min_similarity=params["floor"],
        bit_target=params["bits"],
    )
    report: dict = {
        "targets": _record(targets),
        "seed": params["seed"],
        "schemes": {},
    }
    feasible_any = False
    failed_verify = []
    for scheme, sol in solve_min_powers(scenario, real, targets, params["grid"]).items():
        name = scheme.value
        if isinstance(sol, Infeasible):
            report["schemes"][name] = {
                "feasible": False,
                "cause": sol.cause,
                "message": str(sol),
            }
            continue
        feasible_any = True
        entry = {
            "feasible": True,
            "min_power_w": sol.total,
            "allocation": {**_record(sol.alloc), "scheme": sol.alloc.scheme.value},
        }
        if params["verify"]:
            problems = _verify_solution(scenario, real, targets, sol.alloc)
            entry["verified"] = not problems
            if problems:
                entry["violations"] = problems
                failed_verify.extend(f"{name}: {p}" for p in problems)
        report["schemes"][name] = entry
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "power.json", report)
        with open(out_dir / "power.csv", "w", encoding="utf-8", newline="") as fh:
            t = f"{targets.sigma_target!r},{targets.min_similarity!r},{targets.bit_target!r}"
            lines = ["sigma_target,min_similarity,bit_target,scheme,min_power_w\r\n"]
            for name in ("oma", "noma", "semi"):
                entry = report["schemes"][name]
                power = repr(entry["min_power_w"]) if entry["feasible"] else "nan"
                lines.append(f"{t},{name},{power}\r\n")
            fh.write("".join(lines))
        _write_manifest(out_dir, "power", params, scenario)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    if failed_verify:
        for line in failed_verify:
            print(f"verification failed: {line}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if feasible_any else EXIT_INFEASIBLE


def _resolve_sweep_spec(name_or_path: str) -> dict:
    if name_or_path in BUNDLED_SWEEPS:
        blob = (
            resources.files("sembit.data")
            .joinpath(BUNDLED_SWEEPS[name_or_path])
            .read_text(encoding="utf-8")
        )
        return json.loads(blob)
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_sweep_cmd(params: dict, out_dir: Path) -> int:
    spec = SweepSpec.from_dict(params["spec"])
    result = run_sweep(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.write_csv(out_dir / "sweep.csv")
    _write_manifest(out_dir, "sweep", params, spec.scenario)
    return EXIT_OK


def _dispatch(command: str, args: dict, out_dir: Path | None) -> int:
    if command == "fit":
        return _run_fit(args, out_dir)
    if command == "region":
        return _run_region(args, out_dir)
    if command == "power":
        return _run_power(args, out_dir)
    if command == "sweep":
        return _run_sweep_cmd(args, out_dir)
    raise ValueError(f"manifest names unknown command {command!r}")


def _cmd_replay(ns) -> int:
    with open(ns.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    command = manifest.get("command")
    args = manifest.get("args")
    if not isinstance(args, dict) or not isinstance(command, str):
        raise ValueError(f"{ns.manifest}: not a sembit manifest")
    out_dir = Path(ns.out) if ns.out else None
    if command != "power" and out_dir is None:
        raise ValueError("--out is required to replay this command")
    return _dispatch(command, args, out_dir)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sembit",
        description="Rate regions and minimum-power allocation for mixed semantic/bit downlinks",
    )
    parser.add_argument("--version", action="version", version=f"sembit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit S-curves from a k,snr_db,similarity CSV")
    p_fit.add_argument("--input", required=True, help="measurement CSV")
    p_fit.add_argument("--out", required=True, help="output directory")

    p_region = sub.add_parser("region", help="trace region boundaries for one draw")
    p_region.add_argument("--scenario", help="scenario JSON (default: built-in scenario)")
    p_region.add_argument("--seed", type=int, default=0)
    p_region.add_argument("--points", type=int, default=200, help="boundary grid points")
    p_region.add_argument(
        "--grid", type=int, default=DEFAULT_GRID_N, help="coarse search grid size (>= 2)"
    )
    p_region.add_argument(
        "--schemes",
        default="all",
        help="comma list of oma,noma,semi or 'all' (default all)",
    )
    p_region.add_argument("--out", required=True, help="output directory")

    p_power = sub.add_parser("power", help="minimum power for a target triple")
    p_power.add_argument("--scenario", help="scenario JSON (default: built-in scenario)")
    p_power.add_argument("--seed", type=int, default=0)
    p_power.add_argument("--sigma", type=float, required=True, help="semantic rate target")
    p_power.add_argument("--floor", type=float, required=True, help="similarity floor")
    p_power.add_argument("--bits", type=float, required=True, help="bit rate target")
    p_power.add_argument(
        "--grid", type=int, default=DEFAULT_GRID_N, help="coarse search grid size (>= 2)"
    )
    p_power.add_argument(
        "--verify", action="store_true", help="plug allocations back through the rate equations"
    )
    p_power.add_argument("--out", help="output directory (default: JSON to stdout)")

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo minimum-power sweep")
    p_sweep.add_argument(
        "--spec",
        required=True,
        help=f"sweep spec JSON path or one of {sorted(BUNDLED_SWEEPS)}",
    )
    p_sweep.add_argument("--realizations", type=int, help="override n_realizations")
    p_sweep.add_argument("--seed", type=int, help="override base_seed")
    p_sweep.add_argument("--out", required=True, help="output directory")

    p_replay = sub.add_parser("replay", help="re-run a command from its manifest")
    p_replay.add_argument("manifest", help="manifest.json from an earlier run")
    p_replay.add_argument("--out", help="output directory for the replayed run")

    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.command == "fit":
            return _run_fit({"input": ns.input}, Path(ns.out))
        if ns.command == "region":
            schemes = (
                ["oma", "noma", "semi"]
                if ns.schemes == "all"
                else [s.strip() for s in ns.schemes.split(",") if s.strip()]
            )
            for s in schemes:
                Scheme(s)  # validate early; raises ValueError on a bad name
            args = {
                "scenario": _load_scenario(ns.scenario).to_dict(),
                "seed": ns.seed,
                "points": ns.points,
                "grid": ns.grid,
                "schemes": schemes,
            }
            return _run_region(args, Path(ns.out))
        if ns.command == "power":
            args = {
                "scenario": _load_scenario(ns.scenario).to_dict(),
                "seed": ns.seed,
                "sigma": ns.sigma,
                "floor": ns.floor,
                "bits": ns.bits,
                "grid": ns.grid,
                "verify": ns.verify,
            }
            return _run_power(args, Path(ns.out) if ns.out else None)
        if ns.command == "sweep":
            spec = SweepSpec.from_dict(_resolve_sweep_spec(ns.spec))  # validate before writing
            overrides = {"n_realizations": ns.realizations, "base_seed": ns.seed}
            spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
            return _run_sweep_cmd({"spec": spec.to_dict()}, Path(ns.out))
        if ns.command == "replay":
            return _cmd_replay(ns)
        raise ValueError(f"unknown command {ns.command!r}")
    except EmptyRegion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_REGION
    except (Infeasible, InfeasibleTarget, TargetUnreachable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        ValueError,
        OSError,
        KeyError,
        json.JSONDecodeError,
        InsufficientData,
        DegenerateData,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SembitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
