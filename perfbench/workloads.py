"""Workload inputs, the calls that drive sembit, and the output checks.

Each workload draws its inputs from a pool fixed at ``BUILD_SEED``.  The
pool and the outputs the program gave for it when the benchmark was
defined live in ``reference/<workload>.json``; a run's ``--seed`` picks
which pool items run and in what order.  Every operation is observed
(timed call plus the outputs it wrote) and then compared with its
reference.  Comparisons of powers and rates are one-sided, so a better
optimiser passes.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
import shutil
import time
from importlib import resources
from pathlib import Path

# Call through the module attributes so the tracer's patches are seen.
from sembit import cli, montecarlo

BUILD_SEED = 20261017
# A min power may exceed its reference, and a boundary bit rate or a fit
# quality fall short of it, by at most this relative amount.
RTOL = 1e-6
# Semi must never cost more than the cheaper of oma and noma.
SEMI_RTOL = 1e-12
SCHEMES = ("oma", "noma", "semi")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _jsonable(x: float):
    return x if math.isfinite(x) else None


def call_cli(argv: list[str]):
    """Run one in-process ``cli.main`` request; returns (exit code or exception, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # any escape is a failed request
            rc = exc
        elapsed = time.perf_counter() - t0
    return rc, elapsed


def _exit_problems(observed: dict, expect: dict) -> list[str]:
    if "error" in observed:
        return [f"raised {observed['error']}"]
    problems = []
    if observed["exit"] == 1:
        problems.append("exit 1 (internal error or --verify violation)")
    if observed["exit"] != expect["exit"]:
        problems.append(f"exit {observed['exit']} != reference {expect['exit']}")
    return problems


def _semi_problem(powers: dict) -> list[str]:
    """semi > min(oma, noma) * (1 + SEMI_RTOL), over the schemes that are feasible."""
    rivals = [powers[s] for s in ("oma", "noma") if _finite(powers.get(s))]
    semi = powers.get("semi")
    if rivals and _finite(semi) and semi > min(rivals) * (1 + SEMI_RTOL):
        return [f"semi {semi!r} > min(oma, noma) {min(rivals)!r}"]
    return []


class Workload:
    """One pool of inputs: ``make_pass`` picks ops, ``run`` times and checks one."""

    name = ""
    kind = ""  # what one op is, for ops whose input names no kind
    rate_name = ""  # throughput line in the report
    trace_len = 0  # ops in a traced pass

    def __init__(self, work_dir: Path, items: list[dict] | None = None):
        self.work_dir = work_dir
        self.items = load_reference(self.name)["items"] if items is None else items

    def make_pass(self, rng: random.Random) -> list:
        raise NotImplementedError

    def units(self, op) -> int:
        """Operations one op counts for in throughput and per-op times."""
        return 1

    def observe(self, op) -> tuple[float, dict]:
        raise NotImplementedError

    def compare(self, observed: dict, expect: dict) -> list[str]:
        raise NotImplementedError

    def run(self, op) -> tuple[float, list[str]]:
        elapsed, observed = self.observe(op)
        return elapsed, self.compare(observed, op["expect"])

    def _fresh_dir(self, label: str) -> Path:
        out = self.work_dir / label
        shutil.rmtree(out, ignore_errors=True)
        return out


class SweepWorkload(Workload):
    """``run_sweep`` on the bundled semantic-rate spec, a few draws per call."""

    name = "sweep-semantic-rate"
    kind = "sweep_draw"
    rate_name = "sweep_draws_per_s"
    trace_len = 8
    DRAWS = 4  # realisations per run_sweep call
    PASS = 16  # run_sweep calls per pass

    def __init__(self, work_dir: Path, items: list[dict] | None = None):
        super().__init__(work_dir, items)
        blob = resources.files("sembit.data").joinpath("sweep_semantic_rate.json")
        self.spec_payload = json.loads(blob.read_text(encoding="utf-8"))
        self.n_values = len(self.spec_payload["values"])

    def make_pass(self, rng):
        return rng.sample(self.items, self.PASS)

    def units(self, op):
        # One draw-solve is one draw at one sweep value, all three schemes.
        return self.DRAWS * self.n_values

    def observe(self, op):
        payload = dict(self.spec_payload, n_realizations=self.DRAWS, base_seed=op["input"]["base_seed"])
        spec = montecarlo.SweepSpec.from_dict(payload)
        t0 = time.perf_counter()
        try:
            result = montecarlo.run_sweep(spec)
        except Exception as exc:  # any escape is a failed call
            return time.perf_counter() - t0, {"error": repr(exc)}
        elapsed = time.perf_counter() - t0
        rows = [
            [r.sweep_value, r.scheme, _jsonable(r.mean_power_w), r.infeasible_frac]
            for r in result.rows
        ]
        return elapsed, {"rows": rows}

    def compare(self, observed, expect):
        if "error" in observed:
            return [f"raised {observed['error']}"]
        got, ref = observed["rows"], expect["rows"]
        if [r[:2] for r in got] != [r[:2] for r in ref]:
            return ["sweep rows differ in values or schemes"]
        problems = []
        by_value: dict[float, dict] = {}
        for (value, scheme, mean, infeasible), (_, _, ref_mean, ref_infeasible) in zip(got, ref):
            by_value.setdefault(value, {})[scheme] = mean
            if infeasible != ref_infeasible:
                problems.append(f"{scheme}@{value}: infeasible_frac {infeasible} != {ref_infeasible}")
            if (mean is None) != (ref_mean is None):
                problems.append(f"{scheme}@{value}: mean power {mean} vs reference {ref_mean}")
            elif mean is not None and mean > ref_mean * (1 + RTOL):
                problems.append(f"{scheme}@{value}: mean power {mean!r} above reference {ref_mean!r}")
        for value, powers in by_value.items():
            problems += [f"@{value}: {p}" for p in _semi_problem(powers)]
        return problems


class RegionWorkload(Workload):
    """``sembit region`` with default settings, one draw per request."""

    name = "region-draws"
    kind = "region"
    rate_name = "regions_per_s"
    STRATUM = 3
    trace_len = 5

    @functools.cached_property
    def strata(self) -> list[list[dict]]:
        # Cost grows with the number of hybrid boundary points (the overlay
        # knots merge into the hybrid grid); a pass takes one draw from each
        # group of STRATUM draws of similar cost.
        ranked = sorted(self.items, key=lambda it: len(it["expect"]["bits"]["semi"]))
        return [ranked[i : i + self.STRATUM] for i in range(0, len(ranked), self.STRATUM)]

    def make_pass(self, rng):
        ops = [rng.choice(stratum) for stratum in self.strata]
        rng.shuffle(ops)
        return ops

    def observe(self, op):
        out = self._fresh_dir("region")
        rc, elapsed = call_cli(["region", "--seed", str(op["input"]["seed"]), "--out", str(out)])
        if not isinstance(rc, int):
            return elapsed, {"error": repr(rc)}
        bits = {}
        for scheme in SCHEMES:
            path = out / f"{scheme}.csv"
            if path.exists():
                with open(path, encoding="utf-8", newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                bits[scheme] = [float(f"{float(r[1]):.10g}") for r in rows]
        verdicts = {}
        path = out / "containment.json"
        if path.exists():
            with open(path, encoding="utf-8") as fh:
                verdicts = {k: v.get("contained") for k, v in json.load(fh).items()}
        return elapsed, {"exit": rc, "bits": bits, "verdicts": verdicts}

    def compare(self, observed, expect):
        problems = _exit_problems(observed, expect)
        if "error" in observed:
            return problems
        for name in ("semi_covers_oma", "semi_covers_noma"):
            if name in expect["verdicts"] and observed["verdicts"].get(name) is not True:
                problems.append(f"{name} verdict {observed['verdicts'].get(name)}")
        for scheme, ref in expect["bits"].items():
            got = observed["bits"].get(scheme)
            if got is None or len(got) != len(ref):
                problems.append(f"{scheme} boundary has {None if got is None else len(got)} points, reference {len(ref)}")
                continue
            slack = RTOL * max(ref, default=0.0)
            worst = min((g - r for g, r in zip(got, ref)), default=0.0)
            if worst < -slack:
                problems.append(f"{scheme} boundary falls {-worst!r} bit/s below reference")
        return problems


def fit_samples(index: int) -> dict[int, list[tuple[float, float]]]:
    """Noisy logistic samples, five source lengths, for fit input ``index``."""
    rng = random.Random(f"{BUILD_SEED}/fit/{index}")
    groups = {}
    for k in (3, 4, 5, 6, 7):
        a_low, a_high = rng.uniform(0.1, 0.25), rng.uniform(0.85, 0.98)
        growth, offset = rng.uniform(0.3, 0.8), rng.uniform(-4.0, 1.0)
        rows = []
        for _ in range(40):
            snr = rng.uniform(-10.0, 25.0)
            clean = a_low + (a_high - a_low) / (1.0 + math.exp(-(growth * snr + offset)))
            rows.append((snr, min(1.0, max(0.0, clean + rng.gauss(0.0, 0.02)))))
        groups[k] = rows
    return groups


def write_fit_csv(path: Path, groups) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "snr_db", "similarity"])
        for k, rows in groups.items():
            writer.writerows([k, repr(s), repr(y)] for s, y in rows)


def logistic_mse(entry: dict, rows) -> float:
    """Mean squared error of a fitted curve, computed independently of sembit."""
    span = entry["a_high"] - entry["a_low"]
    total = 0.0
    for snr, y in rows:
        z = entry["growth"] * snr + entry["offset"]
        sig = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        total += (entry["a_low"] + span * sig - y) ** 2
    return total / len(rows)


def power_argv(inp: dict, out: Path) -> list[str]:
    return [
        "power",
        "--seed", str(inp["seed"]),
        "--sigma", repr(inp["sigma"]),
        "--floor", repr(inp["floor"]),
        "--bits", repr(inp["bits"]),
        "--verify",
        "--out", str(out),
    ]


class CliWorkload(Workload):
    """Closed loop, one client: ``power --verify --out`` requests and a few ``fit`` requests."""

    name = "cli-requests"
    rate_name = "requests_per_s"
    POWER_PER_FIT = 80
    trace_len = 2 * (POWER_PER_FIT + 1)

    def __init__(self, work_dir: Path, items: list[dict] | None = None):
        super().__init__(work_dir, items)
        self.power = [it for it in self.items if it["input"]["kind"] == "power"]
        self.fits = [it for it in self.items if it["input"]["kind"] == "fit"]
        self.fit_inputs = {}
        for it in self.fits:
            index = it["input"]["index"]
            groups = fit_samples(index)
            path = work_dir / f"fit-{index}.csv"
            write_fit_csv(path, groups)
            self.fit_inputs[index] = (path, groups)

    def make_pass(self, rng):
        # Fit cost varies several-fold with how long coordinate descent runs,
        # so every pass runs each fit input once and only the order varies.
        fits = rng.sample(self.fits, len(self.fits))
        ops = []
        for fit in fits:
            ops += rng.sample(self.power, self.POWER_PER_FIT)
            ops.append(fit)
        return ops

    def observe(self, op):
        inp = op["input"]
        if inp["kind"] == "power":
            return self._observe_power(inp)
        return self._observe_fit(inp)

    def _observe_power(self, inp):
        out = self._fresh_dir("power")
        rc, elapsed = call_cli(power_argv(inp, out))
        if not isinstance(rc, int):
            return elapsed, {"error": repr(rc)}
        report = {}
        # Some infeasible targets exit 4 from an exception before any output is written.
        if (out / "power.json").exists():
            with open(out / "power.json", encoding="utf-8") as fh:
                report = json.load(fh)["schemes"]
        schemes = {
            name: entry["min_power_w"] if entry["feasible"] else entry["cause"]
            for name, entry in report.items()
        }
        verified = all(e.get("verified") is True for e in report.values() if e["feasible"])
        return elapsed, {"exit": rc, "schemes": schemes, "verified": verified}

    def _observe_fit(self, inp):
        out = self._fresh_dir("fit")
        path, groups = self.fit_inputs[inp["index"]]
        rc, elapsed = call_cli(["fit", "--input", str(path), "--out", str(out)])
        if not isinstance(rc, int):
            return elapsed, {"error": repr(rc)}
        mse = {}
        if rc == 0:
            with open(out / "params.json", encoding="utf-8") as fh:
                for entry in json.load(fh)["entries"]:
                    mse[str(entry["k"])] = logistic_mse(entry, groups[entry["k"]])
        return elapsed, {"exit": rc, "mse": mse}

    def compare(self, observed, expect):
        problems = _exit_problems(observed, expect)
        if "error" in observed:
            return problems
        if "mse" in expect:
            for k, ref in expect["mse"].items():
                got = observed["mse"].get(k)
                if got is None or got > ref * (1 + RTOL) + 1e-15:
                    problems.append(f"fit k={k}: mse {got!r} above reference {ref!r}")
            return problems
        if not observed["verified"]:
            problems.append("--verify reported a violation")
        for name, ref in expect["schemes"].items():
            got = observed["schemes"].get(name)
            if isinstance(ref, str):
                if got != ref:
                    problems.append(f"{name}: {got!r}, reference infeasible ({ref})")
            elif not _finite(got) or got > ref * (1 + RTOL):
                problems.append(f"{name}: min power {got!r} above reference {ref!r}")
        return problems + _semi_problem(observed["schemes"])


WORKLOADS = {w.name: w for w in (SweepWorkload, RegionWorkload, CliWorkload)}
