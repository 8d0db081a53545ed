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
import functools
import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateData,
    InsufficientData,
    TargetBelowFloor,
    TargetUnreachable,
    reject_unknown,
    require_finite,
    require_float,
    require_int,
    require_keys,
)

LN10_OVER_10 = math.log(10.0) / 10.0

# Fit search (see fit_logistic): a coarse (growth, offset) grid, then a
# fixed number of bracket levels that may leave the grid but stay inside
# the hard bounds.
GROWTH_GRID = (0.05, 2.0, 32)
OFFSET_GRID = (-10.0, 10.0, 64)
GROWTH_BOUNDS = (1e-3, 20.0)
OFFSET_BOUNDS = (-40.0, 40.0)
FIT_LEVELS = 40
FIT_BRACKET = 4
FIT_SHRINK = 3.0
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


# LogisticParams' field names, in order: the keys of a parameter table entry.
_ENTRY_FIELDS = tuple(f.name for f in fields(LogisticParams))


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
    log-domain SNR of a zero-power allocation directly.  A scalar
    comes back as a float, bit for bit the array path's element.
    """
    if np.ndim(snr_db) == 0:
        # _sigmoid's branches on one value; np.exp, not math.exp, so the
        # exponential is the one the array path computes.
        z = params.growth * float(snr_db) + params.offset
        if z >= 0:
            sig = 1.0 / (1.0 + float(np.exp(-z)))
        else:
            ez = float(np.exp(z))
            sig = ez / (1.0 + ez)
        return params.a_low + (params.a_high - params.a_low) * sig
    z = params.growth * np.asarray(snr_db, dtype=float) + params.offset
    return params.a_low + (params.a_high - params.a_low) * _sigmoid(z)


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
    included.  With c = ln(10) / (10 * growth), the power over band w is

        exp(ln(N0 / g) - c * offset - c * ln((a_high - a_low) / (t - a_low) - 1)) * w

    that is, N0 * w / g times the odds (t - a_low) / (a_high - t) to the
    power c, times exp(-c * offset); the constant factors stay in the
    exponent, where a steep curve cannot overflow them on their own.
    Instead of raising, unreachable targets (>= a_high) map to +inf and
    free targets (<= a_low) map to 0.  At a_high and at a_low the formula
    gives those itself, and so does a target within rounding of a_high;
    a target beyond either (or NaN) makes the logarithm's argument
    negative or NaN, which one reduction finds, and only then is it
    patched.  ``targets`` and ``bandwidths`` broadcast against each
    other; bandwidths must be positive.
    """
    targets = np.asarray(targets, dtype=float)
    c = LN10_OVER_10 / params.growth
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_scale = np.log(noise_psd / channel_gain) - c * params.offset
        inv_odds = (params.a_high - params.a_low) / (targets - params.a_low) - 1.0
        power = np.exp(log_scale - c * np.log(inv_odds)) * bandwidths
    if inv_odds.size and not inv_odds.min() >= 0:
        power = np.where(targets < params.a_high, power, np.inf)
        power = np.where(targets <= params.a_low, 0.0, power)
    return power


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
        self._table: Mapping[int, LogisticParams] = MappingProxyType(dict(sorted(table.items())))

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
        return {"entries": [{f: getattr(p, f) for f in _ENTRY_FIELDS} for p in self]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ParamTable":
        """The table of an ``{"entries": [...]}`` payload.

        Besides ``entries`` the payload may hold a free-text ``note``;
        ValueError for any other key, in the payload or in an entry.
        """
        rows = payload.get("entries") if isinstance(payload, Mapping) else None
        if not isinstance(rows, list):
            kind = 'parameter table must be an object with an "entries" list'
            raise ValueError(f"{kind}, got {payload!r}")
        reject_unknown("parameter table", payload, ("entries", "note"))
        entries = []
        for row in rows:
            reject_unknown("parameter table entry", row, _ENTRY_FIELDS)
            require_keys("parameter table entry", row, _ENTRY_FIELDS)
            k = require_int("k", row["k"])
            floats = {f: require_float(f, row[f]) for f in _ENTRY_FIELDS[1:]}
            entries.append(LogisticParams(k=k, **floats))
        return cls(entries)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ParamTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@functools.cache
def default_table() -> ParamTable:
    """Bundled illustrative table of synthetic curves (``data/default_params.json``).

    Parsed once per process; every caller shares the one read-only table.
    """
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
    ``s`` is 2-D (cells x samples).
    """
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


def _best_cell(growths: np.ndarray, offsets: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Lowest-MSE cell of the ``growths`` x ``offsets`` grid, first in grid order.

    Returns (growth, offset, a_low, a_high, mse) of that cell.
    """
    gg, oo = (m.ravel() for m in np.meshgrid(growths, offsets, indexing="ij"))
    a_low, a_high, mse = _amplitudes_for(_sigmoid(gg[:, None] * x + oo[:, None]), y)
    i = int(np.argmin(mse))
    return gg[i], oo[i], a_low[i], a_high[i], mse[i]


def fit_logistic(samples: Sequence[SimilaritySample]) -> LogisticParams:
    """Fit one S-curve to samples that all share the same k.

    Strategy: the two amplitudes are solved in closed form per (growth,
    offset) cell (variable projection, Golub and Pereyra 1973), so only
    those two are searched.  An exhaustive coarse grid (``GROWTH_GRID`` x
    ``OFFSET_GRID``) picks the start.  Each of ``FIT_LEVELS`` bracket levels
    then scores ``2 * FIT_BRACKET + 1`` points per axis over growth +- h_g
    and offset +- h_o, clipped to the hard bounds, with the half-widths
    starting at one coarse spacing.  The fit moves to the best cell only
    when its MSE is strictly lower; otherwise both half-widths shrink by
    ``FIT_SHRINK``.  Every fit scores the same number of cells whatever the
    data.  Deterministic: no random restarts, ties resolved by grid order.

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

    growths, h_g = np.linspace(*GROWTH_GRID, retstep=True)
    offsets, h_o = np.linspace(*OFFSET_GRID, retstep=True)
    growth, offset, a_low, a_high, mse = _best_cell(growths, offsets, x, y)
    ramp = np.linspace(-1.0, 1.0, 2 * FIT_BRACKET + 1)
    for _ in range(FIT_LEVELS):
        cell = _best_cell(
            np.clip(growth + h_g * ramp, *GROWTH_BOUNDS),
            np.clip(offset + h_o * ramp, *OFFSET_BOUNDS),
            x,
            y,
        )
        if cell[4] < mse:
            growth, offset, a_low, a_high, mse = cell
        else:
            h_g, h_o = h_g / FIT_SHRINK, h_o / FIT_SHRINK
    return LogisticParams(
        k=k, a_low=float(a_low), a_high=float(a_high), growth=float(growth), offset=float(offset)
    )


def fit_mse(params: LogisticParams, samples: Sequence[SimilaritySample]) -> float:
    """Mean squared error of a fitted curve against its samples."""
    x = np.array([s.snr_db for s in samples], dtype=float)
    y = np.array([s.similarity for s in samples], dtype=float)
    resid = eval_similarity(params, x) - y
    return float(np.mean(resid * resid))
