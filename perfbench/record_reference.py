"""Record the input pools and reference outputs in ``perfbench/reference``.

    python3 perfbench/record_reference.py

The references are the outputs of the commit that defined the benchmark;
later changes are checked against them, so do not re-record them to make
a check pass.  Pools are drawn from ``workloads.BUILD_SEED``.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import time

import run

run.hermetic_env()  # before numpy and sembit are imported
import workloads  # noqa: E402
from workloads import BUILD_SEED  # noqa: E402

SWEEP_POOL = 48
REGION_POOL = 15
REGION_POWER_LIMITED = 3
POWER_POOL = 1000
FIT_POOL = 4


def sweep_inputs() -> list[dict]:
    rng = random.Random(f"{BUILD_SEED}/sweep")
    return [{"base_seed": rng.randrange(2**32)} for _ in range(SWEEP_POOL)]


def region_inputs() -> list[dict]:
    """Draw seeds, including power-limited draws (their overlay region is empty, exit 3)."""
    from sembit.boundary import noma_power_floor
    from sembit.channel import Scenario, sample_realization

    scenario = Scenario()
    rng = random.Random(f"{BUILD_SEED}/region")
    normal, limited = [], []
    while len(normal) < REGION_POOL - REGION_POWER_LIMITED or len(limited) < REGION_POWER_LIMITED:
        seed = rng.randrange(2**32)
        is_limited = noma_power_floor(scenario, sample_realization(scenario, seed)) > scenario.max_power
        pool, cap = (limited, REGION_POWER_LIMITED) if is_limited else (normal, REGION_POOL - REGION_POWER_LIMITED)
        if len(pool) < cap:
            pool.append({"seed": seed})
    return normal + limited


def cli_inputs() -> list[dict]:
    """Power triples over ranges that include infeasible targets, then the fit inputs."""
    rng = random.Random(f"{BUILD_SEED}/power")
    power = [
        {
            "kind": "power",
            "seed": rng.randrange(2**32),
            "sigma": rng.uniform(0.0, 260e3),
            "floor": rng.uniform(0.5, 0.95),
            "bits": rng.uniform(1e5, 2e6),
        }
        for _ in range(POWER_POOL)
    ]
    return power + [{"kind": "fit", "index": i} for i in range(FIT_POOL)]


def record(cls, inputs: list[dict], work_dir) -> dict:
    """Observe each input twice; the outputs must repeat exactly."""
    workload = cls(work_dir, [{"input": inp} for inp in inputs])
    items = []
    for op in workload.items:
        _, first = workload.observe(op)
        _, observed = workload.observe(op)
        if first != observed:
            raise SystemExit(f"{cls.name} {op['input']}: outputs differ between two identical calls")
        problems = workload.compare(observed, observed)
        if problems:
            raise SystemExit(f"{cls.name} {op['input']}: reference output fails its own checks: {problems}")
        items.append({"input": op["input"], "expect": observed})
    return {"workload": cls.name, "build_seed": BUILD_SEED, "rtol": workloads.RTOL, "items": items}


def main() -> int:

    run.OUT_DIR.mkdir(exist_ok=True)
    work_dir = run.Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for cls, inputs in (
            (workloads.SweepWorkload, sweep_inputs()),
            (workloads.RegionWorkload, region_inputs()),
            (workloads.CliWorkload, cli_inputs()),
        ):
            t0 = time.perf_counter()
            payload = record(cls, inputs, work_dir)
            with open(workloads.REFERENCE_DIR / f"{cls.name}.json", "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"{cls.name}: {len(inputs)} items in {time.perf_counter() - t0:.1f} s")
        with open(workloads.REFERENCE_DIR / "machine.json", "w", encoding="utf-8") as fh:
            json.dump(run.machine_info(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
