"""Monte-Carlo minimum-power sweeps over Rayleigh fading draws.

One sweep varies a single quantity (semantic-rate target, similarity
floor, bit-rate target, or source length) and, for each value, averages
the three schemes' minimum powers over seeded channel draws.  Realisation
i always uses the seed derived from (base_seed, i) and is drawn once, then
reused for every sweep value (common random numbers keeps the scheme
curves directly comparable).  No sweep variable changes the mean link
gains, so one draw serves them all.  Each (sweep value, draw) pair is
one row with its own targets, and the rows of every value are solved
together: one :func:`sembit.search.search_rows` call for the oma and
semi searches, which runs one search per row batch, or one in all when
the rows fit one batch.  Only a source-length sweep keeps one row set
per value, since k changes the similarity S-curve.

Most infeasibility is structural (bandwidth or curve-ceiling bound), the
same for every draw of a sweep value.  Not all: a bit target so large that
its power overflows to +inf on a weak draw is infeasible on that draw
alone, so a scheme can be feasible on some draws of a value and not on
others (at bit target 1.024e9 on the bundled semantic-rate spec, noma on
2 of 500).  A row's infeasible fraction is the share of its draws that
are infeasible, and its mean and standard error are those of the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np

from .channel import ChannelRealization, Scenario, derive_seed, sample_realization
from .errors import reject_unknown, require_float, require_int, require_keys
from .jsontext import indented, write_text
from .power import PowerTargets, solve_min_powers_rows
from .rates import Scheme
from .search import DEFAULT_GRID_N, check_grid_n

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
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if not self.values:
            raise ValueError("a sweep needs at least one value")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        check_grid_n(self.grid_n)
        for value in self.values:  # a bad value fails here, not after the draws
            if self.variable == "k":
                require_int("k sweep value", value)
            self.apply(value)

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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        targets = {f.name: getattr(self.targets, f.name) for f in fields(self.targets)}
        scenario = self.scenario.to_dict()
        return {**out, "scenario": scenario, "values": list(self.values), "targets": targets}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepSpec":
        reject_unknown("sweep spec", payload, (f.name for f in fields(cls)))
        require_keys("sweep spec", payload, ("scenario", "variable", "values"))
        values, t = payload["values"], payload.get("targets", {})
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"sweep values must be a list of numbers, got {values!r}")
        reject_unknown("sweep targets", t, (f.name for f in fields(PowerTargets)))
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            variable=str(payload["variable"]),
            values=tuple(require_float("sweep value", v) for v in values),
            targets=PowerTargets(
                **{f.name: require_float(f.name, t.get(f.name, 0.0)) for f in fields(PowerTargets)}
            ),
            n_realizations=require_int("n_realizations", payload.get("n_realizations", 500)),
            base_seed=require_int("base_seed", payload.get("base_seed", 0)),
            grid_n=require_int("grid_n", payload.get("grid_n", DEFAULT_GRID_N)),
        )

    @classmethod
    def load(cls, path) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path) -> None:
        write_text(path, indented(self.to_dict(), sort_keys=True) + "\n")


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
        """Write the rows as CSV in one call; no field can need quoting."""
        lines = ["sweep_value,scheme,mean_power_w,stderr,infeasible_frac\r\n"]
        for r in self.rows:
            stats = f"{r.mean_power_w!r},{r.stderr!r},{r.infeasible_frac!r}"
            lines.append(f"{r.sweep_value!r},{r.scheme},{stats}\r\n")
        write_text(path, "".join(lines), newline="")


def _sweep_totals(spec: SweepSpec, reals: list[ChannelRealization]) -> np.ndarray:
    """Each scheme's minimum power per (sweep value, draw), shape (values, draws, 3).

    Schemes run in SCHEME_ORDER and NaN marks an infeasible one.  The rows
    of all values with the same source length form one row set.
    """
    settings = [spec.apply(value) for value in spec.values]
    # k picks the S-curve; a floor sweep's scenarios differ only in
    # min_similarity, which the solve takes from the targets instead.
    groups: dict[int, list[int]] = {}
    for i, (scenario, _) in enumerate(settings):
        groups.setdefault(scenario.k, []).append(i)
    totals = np.empty((len(settings), len(reals), len(SCHEME_ORDER)))
    for members in groups.values():
        targets = [settings[i][1] for i in members for _ in reals]
        solved = solve_min_powers_rows(
            settings[members[0]][0], reals * len(members), targets, spec.grid_n
        )
        for j, scheme in enumerate(SCHEME_ORDER):
            totals[members, :, j] = solved[Scheme(scheme)].total.reshape(len(members), -1)
    return totals


def _feasible_stats(col: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the finite entries of ``col``; NaN for both if none."""
    ok = col[np.isfinite(col)]
    if not ok.size:
        return math.nan, math.nan
    stderr = float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return float(np.mean(ok)), stderr


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute a sweep; deterministic for a given spec."""
    reals = [
        sample_realization(spec.scenario, derive_seed(spec.base_seed, i))
        for i in range(spec.n_realizations)
    ]
    # (values, schemes, draws), draws contiguous: one reduction along them
    # gives each fully feasible column exactly what np.mean and np.std of
    # that column alone would.  A partly feasible column drops its NaNs.
    totals = np.ascontiguousarray(_sweep_totals(spec, reals).transpose(0, 2, 1))
    n = spec.n_realizations
    n_ok = np.isfinite(totals).sum(axis=2).tolist()
    means = totals.mean(axis=2).tolist()
    stderrs = totals.std(axis=2, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(totals.shape[:2])
    stderrs = stderrs.tolist()
    rows = []
    for v, value in enumerate(spec.values):
        for j, scheme in enumerate(SCHEME_ORDER):
            if n_ok[v][j] == n:
                mean, stderr = means[v][j], stderrs[v][j]
            else:
                mean, stderr = _feasible_stats(totals[v, j])
            rows.append(
                SweepRow(
                    sweep_value=float(value),
                    scheme=scheme,
                    mean_power_w=mean,
                    stderr=stderr,
                    infeasible_frac=1.0 - n_ok[v][j] / n,
                )
            )
    return SweepResult(spec=spec, rows=tuple(rows))
