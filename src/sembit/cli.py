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

import numpy as np

from . import __version__
from .boundary import check_containment, trace_region
from .channel import Scenario, sample_realization
from .errors import (
    DomainMismatch,
    Infeasible,
    SembitError,
    reject_unknown,
    require_float,
    require_int,
    require_keys,
)
from .jsontext import Verbatim, indented, write_text
from .montecarlo import SweepSpec, run_sweep
from .power import PowerTargets, solve_min_powers
from .rates import ALLOC_FIELDS, Scheme, rates_rows
from .search import DEFAULT_GRID_N, check_grid_n
from .similarity import fit_mse, fit_table, read_samples_csv

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
    """The time a manifest records: ``SOURCE_DATE_EPOCH`` where set, else now.

    ValueError naming the variable for a value that is not whole seconds
    ``gmtime`` takes.
    """
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = time.gmtime(int(pinned) if pinned else int(time.time()))
    except (ValueError, OverflowError, OSError):
        message = f"SOURCE_DATE_EPOCH must be whole seconds in range, got {pinned!r}"
        raise ValueError(message) from None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


def _write_json(path: Path, payload: dict) -> None:
    write_text(path, indented(payload, sort_keys=True) + "\n")


def _manifest(command: str, args: dict) -> dict:
    """A manifest recording ``args``, timestamped now.

    Each command builds it before its first output, so a bad
    ``SOURCE_DATE_EPOCH`` leaves nothing written.
    """
    return {"command": command, "args": args, "version": __version__, "timestamp": _timestamp()}


def _write_manifest(out_dir: Path, manifest: dict, scenario: Scenario | None = None) -> None:
    if scenario is not None:
        manifest = {**manifest, "scenario_sha256": scenario.digest()}
    _write_json(out_dir / "manifest.json", manifest)


def _scenario_record(scenario: Scenario) -> dict:
    """What ``scenario.to_dict()`` renders as: its fields, its table as the table's cached text."""
    return {**_record(scenario), "params": Verbatim(scenario.params.sorted_indented_json)}


def _load_scenario(path: str | None) -> Scenario:
    if path is None:
        return Scenario()
    return Scenario.load(path)


def _run_fit(path: str, out_dir: Path) -> int:
    manifest = _manifest("fit", {"input": path})
    groups = read_samples_csv(path)
    table = fit_table(groups.values())
    for fitted in table:
        samples = groups[fitted.k]
        print(f"k={fitted.k}: n={len(samples)} mse={fit_mse(fitted, samples):.6e}")
    out_dir.mkdir(parents=True, exist_ok=True)
    table.dump(out_dir / "params.json")
    _write_manifest(out_dir, manifest)
    return EXIT_OK


def _run_region(scenario: Scenario, params: dict, args: dict, out_dir: Path) -> int:
    """Trace ``scenario``'s region with the seed, points, grid and schemes of ``params``.

    The manifest records ``args``.
    """
    manifest = _manifest("region", args)
    check_grid_n(params["grid"])
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
    _write_manifest(out_dir, manifest, scenario)
    return EXIT_EMPTY_REGION if empty_overlay is not None else EXIT_OK


def _record(obj) -> dict:
    """A flat dataclass as a dict of its fields, without ``asdict``'s deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _verify_solutions(scenario, real, targets, allocs) -> list[list[str]]:
    """Plug the allocations back through the rate equations in one call; list each one's violations.

    Each allocation's budget is checked against a scenario whose power
    budget admits the largest of them: a minimum power may exceed the budget.
    """
    top = max(alloc.total_power for alloc in allocs)
    probe = scenario
    if top > scenario.max_power:
        probe = scenario.with_updates(max_power=top * (1 + 1e-12))
    for alloc in allocs:
        alloc.check_budget(probe)
    lines = np.array([[getattr(alloc, f) for alloc in allocs] for f in ALLOC_FIELDS])
    columns = rates_rows(scenario, real.gain_s, real.gain_b, real.gain_eff, lines)
    found = []
    for alloc, (sem_rate, bit_rate, similarity) in zip(allocs, zip(*(c.tolist() for c in columns))):
        problems = []
        if sem_rate < targets.sigma_target * (1 - _VERIFY_RTOL):
            problems.append(f"semantic rate {sem_rate:.9g} < target {targets.sigma_target:.9g}")
        sem_active = targets.sigma_target > 0 or alloc.scheme is Scheme.NOMA
        if sem_active and similarity < targets.min_similarity * (1 - _VERIFY_RTOL):
            problems.append(f"similarity {similarity:.9g} < floor {targets.min_similarity:.9g}")
        if bit_rate < targets.bit_target * (1 - _VERIFY_RTOL):
            problems.append(f"bit rate {bit_rate:.9g} < target {targets.bit_target:.9g}")
        found.append(problems)
    return found


def _run_power(scenario: Scenario, params: dict, args: dict, out_dir: Path | None) -> int:
    """Solve ``scenario`` for the seed, targets, grid and verify flag of ``params``.

    With ``out_dir`` the manifest records ``args``; without, the report goes to stdout.
    """
    manifest = _manifest("power", args) if out_dir is not None else None
    check_grid_n(params["grid"])
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
    feasible = {}
    for scheme, sol in solve_min_powers(scenario, real, targets, params["grid"]).items():
        name = scheme.value
        if isinstance(sol, Infeasible):
            report["schemes"][name] = {
                "feasible": False,
                "cause": sol.cause,
                "message": str(sol),
            }
            continue
        feasible[name] = sol.alloc
        report["schemes"][name] = {
            "feasible": True,
            "min_power_w": sol.total,
            "allocation": {**_record(sol.alloc), "scheme": sol.alloc.scheme.value},
        }
    failed_verify = []
    if params["verify"] and feasible:
        checks = _verify_solutions(scenario, real, targets, list(feasible.values()))
        for name, problems in zip(feasible, checks):
            entry = report["schemes"][name]
            entry["verified"] = not problems
            if problems:
                entry["violations"] = problems
                failed_verify.extend(f"{name}: {p}" for p in problems)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "power.json", report)
        t = f"{targets.sigma_target!r},{targets.min_similarity!r},{targets.bit_target!r}"
        lines = ["sigma_target,min_similarity,bit_target,scheme,min_power_w\r\n"]
        for name in ("oma", "noma", "semi"):
            entry = report["schemes"][name]
            power = repr(entry["min_power_w"]) if entry["feasible"] else "nan"
            lines.append(f"{t},{name},{power}\r\n")
        write_text(out_dir / "power.csv", "".join(lines), newline="")
        _write_manifest(out_dir, manifest, scenario)
    else:
        print(indented(report, sort_keys=True))
    if failed_verify:
        for line in failed_verify:
            print(f"verification failed: {line}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if feasible else EXIT_INFEASIBLE


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


def _run_sweep_cmd(spec: SweepSpec, args: dict, out_dir: Path) -> int:
    manifest = _manifest("sweep", args)
    result = run_sweep(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.write_csv(out_dir / "sweep.csv")
    _write_manifest(out_dir, manifest, spec.scenario)
    return EXIT_OK


def _scheme_names(name: str, value) -> list[str]:
    """``value``, a list of scheme names; ValueError for anything else or an unknown name."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{name} must be a list of scheme names, got {value!r}")
    for s in value:
        Scheme(s)
    return value


def _of_type(kind: type, what: str):
    """A manifest arg reader that takes a ``kind`` as it is; ValueError for any other value."""

    def read(name: str, value):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return value

    return read


# Each command's manifest args, with the function that reads one from its
# JSON value: it returns the value to run with or raises ValueError naming it.
_SCENARIO_ARGS = {
    "scenario": lambda _, payload: Scenario.from_dict(payload),
    "seed": require_int,
    "grid": require_int,
}
_MANIFEST_ARGS = {
    "fit": {"input": _of_type(str, "a string")},
    "region": {**_SCENARIO_ARGS, "points": require_int, "schemes": _scheme_names},
    "power": {**_SCENARIO_ARGS, "sigma": require_float, "floor": require_float,
              "bits": require_float, "verify": _of_type(bool, "true or false")},
    "sweep": {"spec": lambda _, payload: SweepSpec.from_dict(payload)},
}


def _dispatch(command: str, args: dict, out_dir: Path | None) -> int:
    """Run ``command`` on a manifest's ``args``, each read and checked before anything runs.

    The new manifest records ``args`` as they were read.
    """
    readers = _MANIFEST_ARGS.get(command)
    if readers is None:
        raise ValueError(f"manifest names unknown command {command!r}")
    reject_unknown(f"{command} args", args, readers)
    require_keys(f"{command} args", args, readers)
    params = {name: read(name, args[name]) for name, read in readers.items()}
    if command == "fit":
        return _run_fit(params["input"], out_dir)
    if command == "sweep":
        return _run_sweep_cmd(params["spec"], args, out_dir)
    run = _run_region if command == "region" else _run_power
    return run(params.pop("scenario"), params, args, out_dir)


def _cmd_replay(ns) -> int:
    with open(ns.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        manifest = {}
    command, args = manifest.get("command"), manifest.get("args")
    if not isinstance(args, dict) or not isinstance(command, str):
        raise ValueError(f"{ns.manifest}: not a sembit manifest")
    out_dir = Path(ns.out) if ns.out else None
    if command != "power" and out_dir is None:
        raise ValueError("--out is required to replay this command")
    return _dispatch(command, args, out_dir)


_OUT = {"required": True, "help": "output directory"}
_SCENARIO = {"help": "scenario JSON (default: built-in scenario)"}
_GRID = {"type": int, "default": DEFAULT_GRID_N, "help": "coarse search grid size (>= 2)"}
# Each subcommand's help and its arguments' ``add_argument`` keywords, by
# option string or positional name: the one table that builds the argparse
# parsers and that :func:`_table_parse` reads.
_COMMANDS = {
    "fit": ("fit S-curves from a k,snr_db,similarity CSV", {
        "--input": {"required": True, "help": "measurement CSV"},
        "--out": _OUT,
    }),
    "region": ("trace region boundaries for one draw", {
        "--scenario": _SCENARIO,
        "--seed": {"type": int, "default": 0},
        "--points": {"type": int, "default": 200, "help": "boundary grid points"},
        "--grid": _GRID,
        "--schemes": {"default": "all", "help": "comma list of oma,noma,semi or 'all' (default all)"},
        "--out": _OUT,
    }),
    "power": ("minimum power for a target triple", {
        "--scenario": _SCENARIO,
        "--seed": {"type": int, "default": 0},
        "--sigma": {"type": float, "required": True, "help": "semantic rate target"},
        "--floor": {"type": float, "required": True, "help": "similarity floor"},
        "--bits": {"type": float, "required": True, "help": "bit rate target"},
        "--grid": _GRID,
        "--verify": {"action": "store_true", "default": False,
                     "help": "plug allocations back through the rate equations"},
        "--out": {"help": "output directory (default: JSON to stdout)"},
    }),
    "sweep": ("Monte-Carlo minimum-power sweep", {
        "--spec": {"required": True,
                   "help": f"sweep spec JSON path or one of {sorted(BUNDLED_SWEEPS)}"},
        "--realizations": {"type": int, "help": "override n_realizations"},
        "--seed": {"type": int, "help": "override base_seed"},
        "--out": _OUT,
    }),
    "replay": ("re-run a command from its manifest", {
        "manifest": {"help": "manifest.json from an earlier run"},
        "--out": {"help": "output directory for the replayed run"},
    }),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Every subcommand's arguments come from ``_COMMANDS``.  Parsing leaves
    the parsers unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="sembit",
        description="Rate regions and minimum-power allocation for mixed semantic/bit downlinks",
    )
    parser.add_argument("--version", action="version", version=f"sembit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
    return parser


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives ``argv``, where ``_COMMANDS`` alone decides it; else None.

    The table decides a subcommand followed by its own arguments, each
    once and each spelled out: ``--opt v`` or ``--opt=v`` with a value
    that converts, a flag as ``--opt``, a positional as a plain token.  A
    value must be non-empty and not start with "-", so argparse would not
    read it as an option.  Any other argv (abbreviations, repeats, "-h",
    "--", missing or bad values, unknown options) is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]][1]
    positional = next((name for name in arguments if not name.startswith("-")), None)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("--"):
            name, eq, value = token.partition("=")
        elif token.startswith("-") or positional is None:
            return None
        else:  # a plain token is the positional's value, as if given with "="
            name, eq, value = positional, "=", token
        keywords = arguments.get(name)
        if keywords is None or name in given:
            return None
        if keywords.get("action") == "store_true":
            if eq:
                return None
            given[name] = True
            continue
        if not eq:
            value = next(tokens, "")
        if not value or value.startswith("-"):
            return None
        try:
            given[name] = keywords.get("type", str)(value)
        except ValueError:
            return None
    ns = argparse.Namespace(command=argv[0])
    for name, keywords in arguments.items():
        if name not in given and keywords.get("required", name == positional):
            return None
        setattr(ns, name.lstrip("-"), given.get(name, keywords.get("default")))
    return ns


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser's ``parse_args`` parses it.

    An argv the option table decides (:func:`_table_parse`) runs no
    argparse code; any other goes to the top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _table_parse(argv)
    return ns if ns is not None else _build_parser().parse_args(argv)


def main(argv=None) -> int:
    ns = _parse(argv)
    try:
        if ns.command == "fit":
            return _run_fit(ns.input, Path(ns.out))
        if ns.command == "sweep":
            spec = SweepSpec.from_dict(_resolve_sweep_spec(ns.spec))  # validate before writing
            overrides = {"n_realizations": ns.realizations, "base_seed": ns.seed}
            spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
            return _run_sweep_cmd(spec, {"spec": spec.to_dict()}, Path(ns.out))
        if ns.command == "replay":
            return _cmd_replay(ns)
        # region or power: each manifest arg is the option of its name, the scenario's a path
        params = {name: getattr(ns, name) for name in _MANIFEST_ARGS[ns.command]}
        scenario_path = params.pop("scenario")
        if ns.command == "region":
            names = ["oma", "noma", "semi"] if ns.schemes == "all" else ns.schemes.split(",")
            params["schemes"] = _scheme_names("schemes", [s.strip() for s in names if s.strip()])
        scenario = _load_scenario(scenario_path)
        args = {**params, "scenario": _scenario_record(scenario)}
        run = _run_region if ns.command == "region" else _run_power
        return run(scenario, params, args, Path(ns.out) if ns.out else None)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SembitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
