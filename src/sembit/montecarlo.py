"""Monte-Carlo minimum-power sweeps over Rayleigh fading draws.

One sweep varies a single quantity (semantic-rate target, similarity
floor, bit-rate target, or source length) and, for each value, averages
the three schemes' minimum powers over seeded channel draws.  Realisation
i always uses the seed derived from (base_seed, i) and is drawn once, then
reused for every sweep value (common random numbers keeps the scheme
curves directly comparable).  No sweep variable changes the mean link
gains, so one draw serves them all.

Infeasibility here is structural (bandwidth or curve-ceiling bound), so
for a given sweep value a scheme is either feasible for every draw or for
none; the per-row infeasible fraction is 0 or 1.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .channel import ChannelRealization, Scenario, derive_seed, sample_realization
from .power import PowerSolution, PowerTargets, solve_min_powers

SWEEP_VARIABLES = ("sigma_target", "min_similarity", "bit_target", "k")
SCHEME_ORDER = ("oma", "noma", "semi")


@dataclass(frozen=True)
class SweepSpec:
    """Complete, serialisable description of one sweep."""

    scenario: Scenario
    variable: str
    values: tuple[float, ...]
    targets: PowerTargets
    n_realizations: int = 500
    base_seed: int = 0
    grid_n: int = 512

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if not self.values:
            raise ValueError("a sweep needs at least one value")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")

    def apply(self, value: float) -> tuple[Scenario, PowerTargets]:
        """Scenario/targets pair with the swept variable set to ``value``."""
        if self.variable == "sigma_target":
            return self.scenario, replace(self.targets, sigma_target=float(value))
        if self.variable == "bit_target":
            return self.scenario, replace(self.targets, bit_target=float(value))
        if self.variable == "min_similarity":
            return (
                self.scenario.with_updates(min_similarity=float(value)),
                replace(self.targets, min_similarity=float(value)),
            )
        return self.scenario.with_updates(k=int(value)), self.targets

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "variable": self.variable,
            "values": list(self.values),
            "targets": {
                "sigma_target": self.targets.sigma_target,
                "min_similarity": self.targets.min_similarity,
                "bit_target": self.targets.bit_target,
            },
            "n_realizations": self.n_realizations,
            "base_seed": self.base_seed,
            "grid_n": self.grid_n,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepSpec":
        t = payload.get("targets", {})
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            variable=str(payload["variable"]),
            values=tuple(float(v) for v in payload["values"]),
            targets=PowerTargets(
                sigma_target=float(t.get("sigma_target", 0.0)),
                min_similarity=float(t.get("min_similarity", 0.0)),
                bit_target=float(t.get("bit_target", 0.0)),
            ),
            n_realizations=int(payload.get("n_realizations", 500)),
            base_seed=int(payload.get("base_seed", 0)),
            grid_n=int(payload.get("grid_n", 512)),
        )

    @classmethod
    def load(cls, path) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    scheme: str
    mean_power_w: float
    stderr: float
    infeasible_frac: float


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    def rows_for(self, scheme: str) -> list[SweepRow]:
        return [r for r in self.rows if r.scheme == scheme]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sweep_value", "scheme", "mean_power_w", "stderr", "infeasible_frac"]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        repr(r.sweep_value),
                        r.scheme,
                        repr(r.mean_power_w),
                        repr(r.stderr),
                        repr(r.infeasible_frac),
                    ]
                )


def _solve_draw(
    scenario: Scenario, targets: PowerTargets, grid_n: int, real: ChannelRealization
) -> list[float]:
    """Three scheme minima for one draw, in SCHEME_ORDER; NaN marks an infeasible scheme."""
    return [
        sol.total if isinstance(sol, PowerSolution) else math.nan
        for sol in solve_min_powers(scenario, real, targets, grid_n).values()
    ]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute a sweep; deterministic for a given spec."""
    reals = [
        sample_realization(spec.scenario, derive_seed(spec.base_seed, i))
        for i in range(spec.n_realizations)
    ]
    rows = []
    for value in spec.values:
        scenario, targets = spec.apply(value)
        arr = np.asarray(
            [_solve_draw(scenario, targets, spec.grid_n, real) for real in reals], dtype=float
        )
        for j, scheme in enumerate(SCHEME_ORDER):
            col = arr[:, j]
            feasible = np.isfinite(col)
            n_ok = int(feasible.sum())
            if n_ok:
                mean = float(np.mean(col[feasible]))
                stderr = (
                    float(np.std(col[feasible], ddof=1) / math.sqrt(n_ok))
                    if n_ok > 1
                    else 0.0
                )
            else:
                mean = math.nan
                stderr = math.nan
            rows.append(
                SweepRow(
                    sweep_value=float(value),
                    scheme=scheme,
                    mean_power_w=mean,
                    stderr=stderr,
                    infeasible_frac=1.0 - n_ok / spec.n_realizations,
                )
            )
    return SweepResult(spec=spec, rows=tuple(rows))
