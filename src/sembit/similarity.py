"""Generalised-logistic semantic similarity model.

A semantic decoder's end-to-end similarity score is modelled as an S-curve
in the receive SNR expressed in dB:

    similarity(snr_db) = a_low + (a_high - a_low) / (1 + exp(-(growth * snr_db + offset)))

The curve saturates at ``a_low`` for snr_db -> -inf and at ``a_high`` for
snr_db -> +inf, so only targets strictly inside (a_low, a_high) can be
inverted to a finite SNR.  All public entry points take SNR in dB; the
conversion from transmit power to SNR (p * g / (W * N0), then 10*log10)
happens in the power helpers below so that rate and boundary code never
handles the dB convention directly.

One parameter set is fitted per semantic source length ``k`` (symbols per
message); a :class:`ParamTable` maps k to its curve.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    DegenerateData,
    InsufficientData,
    TargetBelowFloor,
    TargetUnreachable,
    require_finite,
)

LN10_OVER_10 = math.log(10.0) / 10.0

# Fit search box: coarse grid per the build contract, refinement may move
# slightly outside the grid but stays inside these hard bounds.
GROWTH_GRID = (0.05, 2.0, 32)
OFFSET_GRID = (-10.0, 10.0, 64)
GROWTH_BOUNDS = (1e-3, 20.0)
OFFSET_BOUNDS = (-40.0, 40.0)
_AMPLITUDE_GAP = 1e-9


@dataclass(frozen=True)
class LogisticParams:
    """S-curve parameters for one source length.

    Attributes:
        k: source length (symbols per message), positive integer.
        a_low: lower similarity asymptote, in [0, 1).
        a_high: upper similarity asymptote, in (a_low, 1].
        growth: slope parameter per dB, > 0.
        offset: horizontal placement of the transition (dimensionless).
    """

    k: int
    a_low: float
    a_high: float
    growth: float
    offset: float

    def __post_init__(self):
        require_finite(self, "a_low", "a_high", "growth", "offset")
        if int(self.k) != self.k or self.k <= 0:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not 0.0 <= self.a_low < 1.0:
            raise ValueError(f"a_low must lie in [0, 1), got {self.a_low}")
        if not self.a_low < self.a_high <= 1.0:
            raise ValueError(
                f"a_high must lie in (a_low, 1], got {self.a_high} with a_low={self.a_low}"
            )
        if self.growth <= 0.0:
            raise ValueError(f"growth must be positive, got {self.growth}")


@dataclass(frozen=True)
class SimilaritySample:
    """One measured (SNR, similarity) point for source length k."""

    k: int
    snr_db: float
    similarity: float

    def __post_init__(self):
        if not 0.0 <= self.similarity <= 1.0:
            raise ValueError(f"similarity must lie in [0, 1], got {self.similarity}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


def _sigmoid(z):
    """Numerically stable logistic function, scalar or ndarray."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def eval_similarity(params: LogisticParams, snr_db):
    """Similarity at the given SNR (dB).  Accepts scalars or arrays.

    -inf maps to a_low and +inf to a_high, so callers may feed the
    log-domain SNR of a zero-power allocation directly.
    """
    z = params.growth * np.asarray(snr_db, dtype=float) + params.offset
    val = params.a_low + (params.a_high - params.a_low) * _sigmoid(z)
    if np.isscalar(snr_db) or np.ndim(snr_db) == 0:
        return float(val)
    return val


def invert_similarity(params: LogisticParams, target: float) -> float:
    """SNR in dB at which the curve reaches ``target`` similarity.

    Raises:
        TargetBelowFloor: target <= a_low (already met at any SNR).
        TargetUnreachable: target >= a_high (never met at finite SNR).
    """
    if target <= params.a_low:
        raise TargetBelowFloor(
            f"target {target} is at or below the lower asymptote {params.a_low}"
        )
    if target >= params.a_high:
        raise TargetUnreachable(
            f"target {target} is at or above the upper asymptote {params.a_high}"
        )
    span = params.a_high - params.a_low
    # target = a_low + span * sigmoid(growth*x + offset)  solved for x
    z = -math.log(span / (target - params.a_low) - 1.0)
    return (z - params.offset) / params.growth


def required_power_for_similarity(
    params: LogisticParams,
    target: float,
    bandwidth: float,
    channel_gain: float,
    noise_psd: float,
) -> float:
    """Minimum transmit power (W) so the decoder similarity reaches ``target``.

    The receive SNR over ``bandwidth`` Hz is p * channel_gain /
    (bandwidth * noise_psd); the required SNR follows from inverting the
    S-curve.  Targets at or below the floor cost nothing and return 0.

    Raises:
        TargetUnreachable: target >= a_high.
        ValueError: non-positive bandwidth, gain or noise density.
    """
    if bandwidth <= 0 or channel_gain <= 0 or noise_psd <= 0:
        raise ValueError("bandwidth, channel_gain and noise_psd must be positive")
    if target >= params.a_high:
        raise TargetUnreachable(
            f"target {target} is at or above the upper asymptote {params.a_high}"
        )
    return float(power_for_similarity_grid(params, target, bandwidth, channel_gain, noise_psd))


def power_for_similarity_grid(
    params: LogisticParams,
    targets: np.ndarray,
    bandwidths: np.ndarray,
    channel_gain: float,
    noise_psd: float,
) -> np.ndarray:
    """Transmit power (W) that lifts the similarity to ``targets``, elementwise.

    The one statement of the inverted S-curve that every semantic power in
    the package goes through, :func:`required_power_for_similarity`
    included.  Instead of raising, unreachable targets (>= a_high) map to
    +inf and free targets (<= a_low) map to 0.  ``targets`` and
    ``bandwidths`` broadcast against each other; bandwidths must be
    positive.
    """
    targets = np.asarray(targets, dtype=float)
    span = params.a_high - params.a_low
    with np.errstate(divide="ignore", invalid="ignore"):
        z = -np.log(span / (targets - params.a_low) - 1.0)
        snr_lin = np.exp(LN10_OVER_10 * (z - params.offset) / params.growth)
        power = bandwidths * noise_psd / channel_gain * snr_lin
    power = np.where(targets < params.a_high, power, np.inf)
    return np.where(targets <= params.a_low, 0.0, power)


class ParamTable:
    """Immutable map from source length k to its fitted S-curve."""

    def __init__(self, entries: Iterable[LogisticParams]):
        table = {}
        for p in entries:
            if p.k in table:
                raise ValueError(f"duplicate entry for k={p.k}")
            table[p.k] = p
        if not table:
            raise ValueError("a parameter table needs at least one entry")
        self._table: Mapping[int, LogisticParams] = dict(sorted(table.items()))

    def __getitem__(self, k: int) -> LogisticParams:
        try:
            return self._table[k]
        except KeyError:
            raise KeyError(
                f"no curve fitted for k={k}; available: {sorted(self._table)}"
            ) from None

    def __contains__(self, k: int) -> bool:
        return k in self._table

    def __iter__(self):
        return iter(self._table.values())

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        if not isinstance(other, ParamTable):
            return NotImplemented
        return self._table == other._table

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(self._table)

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "k": p.k,
                    "a_low": p.a_low,
                    "a_high": p.a_high,
                    "growth": p.growth,
                    "offset": p.offset,
                }
                for p in self
            ]
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ParamTable":
        try:
            rows = payload["entries"]
        except (KeyError, TypeError):
            raise ValueError('parameter table JSON must contain an "entries" list')
        entries = []
        for row in rows:
            entries.append(
                LogisticParams(
                    k=int(row["k"]),
                    a_low=float(row["a_low"]),
                    a_high=float(row["a_high"]),
                    growth=float(row["growth"]),
                    offset=float(row["offset"]),
                )
            )
        return cls(entries)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ParamTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def default_table() -> ParamTable:
    """Bundled illustrative table (synthetic curves, see data/README note)."""
    payload = resources.files("sembit.data").joinpath("default_params.json")
    return ParamTable.from_dict(json.loads(payload.read_text(encoding="utf-8")))


def read_samples_csv(path) -> dict[int, list[SimilaritySample]]:
    """Read ``k,snr_db,similarity`` rows grouped by k.

    Raises ValueError with a line number on any malformed row so the CLI
    can surface the exact input problem.
    """
    groups: dict[int, list[SimilaritySample]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != [
            "k",
            "snr_db",
            "similarity",
        ]:
            raise ValueError(
                f"{path}: expected header 'k,snr_db,similarity', got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                k = int(row[0])
                sample = SimilaritySample(k, float(row[1]), float(row[2]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            groups.setdefault(k, []).append(sample)
    if not groups:
        raise ValueError(f"{path}: no data rows")
    return groups


def _amplitudes_for(s: np.ndarray, y: np.ndarray):
    """Closed-form least-squares floor/ceiling given logistic weights ``s``.

    The model a_low*(1-s) + a_high*s is linear in the two amplitudes, so
    each (growth, offset) cell reduces to a 2x2 normal-equation solve.
    Returns clamped (a_low, a_high) and the resulting mean squared error.
    ``s`` may be 1-D (one cell) or 2-D (cells x samples).
    """
    s = np.atleast_2d(s)
    u = 1.0 - s
    suu = np.einsum("ij,ij->i", u, u)
    suv = np.einsum("ij,ij->i", u, s)
    svv = np.einsum("ij,ij->i", s, s)
    suy = u @ y
    svy = s @ y
    det = suu * svv - suv * suv
    ok = det > 1e-30
    a1 = np.zeros_like(det)
    a2 = np.zeros_like(det)
    a1[ok] = (suy[ok] * svv[ok] - svy[ok] * suv[ok]) / det[ok]
    a2[ok] = (svy[ok] * suu[ok] - suy[ok] * suv[ok]) / det[ok]
    # Saturated cells (all s equal) are unidentifiable: pin both to the mean.
    a1[~ok] = y.mean()
    a2[~ok] = y.mean()
    a1 = np.clip(a1, 0.0, 1.0 - _AMPLITUDE_GAP)
    a2 = np.clip(a2, a1 + _AMPLITUDE_GAP, 1.0)
    resid = a1[:, None] * u + a2[:, None] * s - y[None, :]
    mse = np.einsum("ij,ij->i", resid, resid) / y.size
    return a1, a2, mse


def fit_logistic(samples: Sequence[SimilaritySample]) -> LogisticParams:
    """Fit one S-curve to samples that all share the same k.

    Strategy: exhaustive coarse grid over (growth, offset) with the two
    amplitudes solved in closed form per cell, then coordinate descent on
    (growth, offset) with bounded scalar line searches until the relative
    MSE improvement drops below 1e-10 (500 sweeps cap).  Deterministic:
    no random restarts, ties resolved by grid order.

    Raises:
        InsufficientData: fewer than 4 samples or fewer than 4 distinct SNRs.
        DegenerateData: all similarity values identical.
        ValueError: samples mix different k.
    """
    if len(samples) < 4:
        raise InsufficientData(f"need at least 4 samples, got {len(samples)}")
    ks = {s.k for s in samples}
    if len(ks) != 1:
        raise ValueError(f"samples mix source lengths {sorted(ks)}")
    k = ks.pop()
    x = np.array([s.snr_db for s in samples], dtype=float)
    y = np.array([s.similarity for s in samples], dtype=float)
    if np.unique(x).size < 4:
        raise InsufficientData(
            f"need at least 4 distinct SNR points, got {np.unique(x).size}"
        )
    if np.ptp(y) < 1e-12:
        raise DegenerateData("all similarity samples are equal")

    g_lo, g_hi, g_n = GROWTH_GRID
    o_lo, o_hi, o_n = OFFSET_GRID
    growths = np.linspace(g_lo, g_hi, g_n)
    offsets = np.linspace(o_lo, o_hi, o_n)
    gg, oo = np.meshgrid(growths, offsets, indexing="ij")
    cells = _sigmoid(gg.ravel()[:, None] * x[None, :] + oo.ravel()[:, None])
    _, _, mse = _amplitudes_for(cells, y)
    best = int(np.argmin(mse))
    growth = float(gg.ravel()[best])
    offset = float(oo.ravel()[best])

    def cell_mse(c1: float, c2: float) -> float:
        s = _sigmoid(c1 * x + c2)
        return float(_amplitudes_for(s, y)[2][0])

    current = cell_mse(growth, offset)
    for _ in range(500):
        previous = current
        res = minimize_scalar(
            lambda g: cell_mse(g, offset), bounds=GROWTH_BOUNDS, method="bounded"
        )
        if res.fun < current:
            growth, current = float(res.x), float(res.fun)
        res = minimize_scalar(
            lambda o: cell_mse(growth, o), bounds=OFFSET_BOUNDS, method="bounded"
        )
        if res.fun < current:
            offset, current = float(res.x), float(res.fun)
        if previous - current <= 1e-10 * max(previous, 1e-300):
            break

    a_low, a_high, _ = _amplitudes_for(_sigmoid(growth * x + offset), y)
    return LogisticParams(
        k=k,
        a_low=float(a_low[0]),
        a_high=float(a_high[0]),
        growth=growth,
        offset=offset,
    )


def fit_mse(params: LogisticParams, samples: Sequence[SimilaritySample]) -> float:
    """Mean squared error of a fitted curve against its samples."""
    x = np.array([s.snr_db for s in samples], dtype=float)
    y = np.array([s.similarity for s in samples], dtype=float)
    resid = eval_similarity(params, x) - y
    return float(np.mean(resid * resid))
