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
from .jsontext import indented, write_text
from .search import BATCH_CANDIDATES

LN10_OVER_10 = math.log(10.0) / 10.0

# Fit search (see fit_table): a coarse (growth, offset) grid, then up to
# FIT_STEPS Levenberg-Marquardt steps that may leave the grid but stay
# inside the hard bounds.  Each step scores its trial at every damping
# of FIT_DAMPINGS at once and keeps the best.
GROWTH_GRID = (0.05, 2.0, 32)
OFFSET_GRID = (-10.0, 10.0, 64)
GROWTH_BOUNDS = (1e-3, 20.0)
OFFSET_BOUNDS = (-40.0, 40.0)
FIT_STEPS = 24
FIT_DAMPINGS = 4.0 ** np.arange(-10, 16)
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
        if int(self.k) != self.k or self.k <= 0:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not 0.0 <= self.similarity <= 1.0:
            raise ValueError(f"similarity must lie in [0, 1], got {self.similarity}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


def _sigmoid(z):
    """Numerically stable logistic function of an array, with one exponential exp(-|z|).

    Bit for bit the two textbook branches, 1 / (1 + exp(-z)) for z >= 0
    and exp(z) / (1 + exp(z)) below.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def eval_similarity(params: LogisticParams, snr_db):
    """Similarity at the given SNR (dB).  Accepts scalars or arrays.

    -inf maps to a_low and +inf to a_high, so callers may feed the
    log-domain SNR of a zero-power allocation directly.  A scalar
    comes back as a float, bit for bit an array's element.
    """
    z = params.growth * np.asarray(snr_db, dtype=float) + params.offset
    eps = params.a_low + (params.a_high - params.a_low) * _sigmoid(z)
    return float(eps) if np.ndim(snr_db) == 0 else eps


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

    @functools.cached_property
    def canonical_json(self) -> str:
        """``to_dict()`` as compact JSON with sorted keys, built once: the table is immutable."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @functools.cached_property
    def sorted_indented_json(self) -> str:
        """``to_dict()`` as indented JSON with sorted keys, built once, as manifests render it."""
        return indented(self.to_dict(), sort_keys=True)

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
        write_text(path, indented(self.to_dict()) + "\n")

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


def _cells(growth: np.ndarray, offset: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Closed-form least-squares floor/ceiling and MSE of (growth, offset) cells.

    Row c of ``growth`` and ``offset`` (curves x cells) holds cells of the
    curve whose samples are row c of ``x`` and ``y`` (curves x samples).
    The model a_low*(1-s) + a_high*s is linear in the two amplitudes, so
    each cell reduces to a 2x2 normal-equation solve.  Returns clamped
    a_low, a_high and the mean squared error, each curves x cells.
    """
    with np.errstate(over="ignore"):  # g * x of a huge finite SNR: the sigmoid saturates
        z = growth[:, :, None] * x[:, None] + offset[:, :, None]
    s = _sigmoid(z)
    u = 1.0 - s
    flat_u, flat_s = u.reshape(-1, y.shape[1]), s.reshape(-1, y.shape[1])
    suu, suv, svv = (
        np.einsum("ij,ij->i", a, b).reshape(growth.shape)
        for a, b in ((flat_u, flat_u), (flat_u, flat_s), (flat_s, flat_s))
    )
    # One gemv per curve: a stacked einsum would sum in another order.
    suy = np.array([uc @ yc for uc, yc in zip(u, y)])
    svy = np.array([sc @ yc for sc, yc in zip(s, y)])
    det = suu * svv - suv * suv
    ok = det > 1e-30
    det = np.where(ok, det, 1.0)
    # Saturated cells (all s equal) are unidentifiable: pin both to the mean.
    y_mean = y.mean(axis=1)[:, None]
    a_low = np.where(ok, (suy * svv - svy * suv) / det, y_mean)
    a_high = np.where(ok, (svy * suu - suy * suv) / det, y_mean)
    a_low = np.clip(a_low, 0.0, 1.0 - _AMPLITUDE_GAP)
    a_high = np.clip(a_high, a_low + _AMPLITUDE_GAP, 1.0)
    resid = (a_low[:, :, None] * u + a_high[:, :, None] * s - y[:, None]).reshape(-1, y.shape[1])
    mse = np.einsum("ij,ij->i", resid, resid).reshape(growth.shape) / y.shape[1]
    return a_low, a_high, mse


def _lm_steps(a_low, a_high, growth, offset, x, y):
    """Levenberg-Marquardt (growth, offset) steps of each curve at each of ``FIT_DAMPINGS``.

    Row c of ``x`` and ``y`` holds the samples of the curve whose cell
    and clamped amplitudes are element c of the other arguments.  The
    residual is the one :func:`_cells` scores, a_low*(1-s) + a_high*s - y
    with the amplitudes projected out and clamped.  Its Jacobian column for
    a parameter p is (a_high - a_low)*ds/dp + da_low/dp*(1-s) +
    da_high/dp*s, with ds/dp = s(1-s)x for growth and s(1-s) for offset:
    a combination of the four columns 1-s, s, span*s(1-s)*x and
    span*s(1-s).  A free amplitude moves as the unconstrained
    least-squares solution does (Golub and Pereyra 1973); a clamped one
    has derivative zero, and a ceiling clamped to the floor's gap follows
    the floor.  The normal equations are damped by each damping times
    their diagonal (Marquardt 1963) and solved in closed form after
    scaling that diagonal to one, so every damping gives a regular 2 x 2
    system.  Returns the growth and offset steps, curves x dampings each.
    """
    with np.errstate(over="ignore"):  # g * x of a huge finite SNR: the sigmoid saturates
        s = _sigmoid(growth[:, None] * x + offset[:, None])
    u = 1.0 - s
    ds = s * u
    # Sample sums of the columns 1-s, s, ds*x, ds and y: one matmul per
    # curve, as in _cells, since a stacked product may sum in another order.
    gram = np.array([c @ c.T for c in np.stack((u, s, ds * x, ds, y), axis=1)])
    g00, g01, g11 = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    det = g00 * g11 - g01 * g01
    ok = det > 1e-30  # as in _cells: saturated cells pin both amplitudes to the mean
    inv = np.stack((g11, -g01, -g01, g00), axis=1).reshape(-1, 2, 2) / np.where(ok, det, 1.0)[:, None, None]
    free = inv @ gram[:, :2, 4:]  # the unconstrained amplitudes
    # Their derivatives: inv @ (dB' (y - B free) - B' dB free), where B has
    # the columns 1-s and s and dB = [-t, t] for t = ds/dp of parameter p.
    t_resid = gram[:, 2:4, 4] - (gram[:, 2:4, :2] @ free)[:, :, 0]
    spread = (free[:, 1] - free[:, 0])[:, :, None] * gram[:, :2, 2:4]
    d_free = inv @ (t_resid[:, None] * [[-1.0], [1.0]] - spread)
    tied = (a_high == a_low + _AMPLITUDE_GAP)[:, None]
    d_low = d_free[:, 0] * (ok & (a_low > 0.0) & (a_low < 1.0 - _AMPLITUDE_GAP))[:, None]
    d_high = np.where(tied, d_low, d_free[:, 1] * (ok & (a_high < 1.0))[:, None])
    # Row p: the Jacobian column of parameter p in the basis 1-s, s, ds*x, ds.
    span = (a_high - a_low)[:, None, None] * np.eye(2)
    coef = np.concatenate((np.stack((d_low, d_high), axis=2), span), axis=2)
    jtj = coef @ gram[:, :4, :4] @ coef.transpose(0, 2, 1)
    amps = np.stack((a_low, a_high), axis=1)[:, :, None]
    jtr = (coef @ (gram[:, :4, :2] @ amps - gram[:, :4, 4:]))[:, :, 0]
    diag = jtj[:, (0, 1), (0, 1)]
    root = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    corr = (jtj[:, 0, 1] / (root[:, 0] * root[:, 1]))[:, None]
    b_g, b_o = (-jtr / root).T[:, :, None]
    damped = 1.0 + FIT_DAMPINGS
    den = damped * damped - corr * corr
    return (damped * b_g - corr * b_o) / (den * root[:, :1]), (damped * b_o - corr * b_g) / (den * root[:, 1:])


def _fit_curves(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fit the curves whose samples are the rows of ``x`` and ``y``, in lockstep.

    Returns one (a_low, a_high, growth, offset) row per curve.
    """
    growths = np.linspace(*GROWTH_GRID)
    offsets = np.linspace(*OFFSET_GRID)
    gg, oo = (m.ravel() for m in np.meshgrid(growths, offsets, indexing="ij"))
    # Coarse chunks of whole growth rows.  A gemv may sum a chunk's last
    # rows in another order when the chunk is not a whole number of its
    # row blocks; 64-cell rows keep every cell's sums the full grid's.  Up
    # to 255 samples a chunk's float temporaries stay on the heap.
    step = max(1, BATCH_CANDIDATES // (offsets.size * x.shape[1])) * offsets.size
    best = []
    for xc, yc in zip(x[:, None], y[:, None]):
        chunks = [_cells(gg[None, i:i + step], oo[None, i:i + step], xc, yc)
                  for i in range(0, gg.size, step)]
        a_low, a_high, mse = (np.concatenate(col, axis=1)[0] for col in zip(*chunks))
        i = np.argmin(mse)
        best.append((a_low[i], a_high[i], gg[i], oo[i], mse[i]))
    fit = np.array(best).T  # rows: a_low, a_high, growth, offset, mse; a column per curve
    live = np.arange(len(x))  # the curves still stepping
    for _ in range(FIT_STEPS):
        at, xs, ys = fit[:, live], x[live], y[live]
        d_g, d_o = _lm_steps(*at[:4], xs, ys)
        g = np.clip(at[2][:, None] + d_g, *GROWTH_BOUNDS)
        o = np.clip(at[3][:, None] + d_o, *OFFSET_BOUNDS)
        a_low, a_high, mse = _cells(g, o, xs, ys)
        trials = np.stack((a_low, a_high, g, o, mse))
        trial = trials[:, np.arange(live.size), np.argmin(mse, axis=1)]
        better = trial[4] < at[4]
        # A curve that did not move would score the same trials at every later step.
        live = live[better]
        if not live.size:
            break
        fit[:, live] = trial[:, better]
    return fit[:4].T


def _fit_inputs(samples: Sequence[SimilaritySample]):
    """(k, snr_db, similarity) of one curve's samples, checked as fit_table documents.

    Each message names the group's k; a mixed group's lists its ks.
    """
    ks = sorted({s.k for s in samples})
    if len(ks) > 1:
        raise ValueError(f"samples mix source lengths {ks}")
    curve = f"k={ks[0]}: " if ks else ""
    if len(samples) < 4:
        raise InsufficientData(f"{curve}need at least 4 samples, got {len(samples)}")
    x = np.array([s.snr_db for s in samples], dtype=float)
    y = np.array([s.similarity for s in samples], dtype=float)
    if np.unique(x).size < 4:
        raise InsufficientData(
            f"{curve}need at least 4 distinct SNR points, got {np.unique(x).size}"
        )
    if np.ptp(y) < 1e-12:
        raise DegenerateData(f"{curve}all similarity samples are equal")
    return ks[0], x, y


def fit_table(groups: Iterable[Sequence[SimilaritySample]]) -> ParamTable:
    """Fit one S-curve per group of samples, each group one k.

    Strategy: the two amplitudes are solved in closed form per (growth,
    offset) cell (variable projection, Golub and Pereyra 1973), so only
    those two are searched.  An exhaustive coarse grid (``GROWTH_GRID`` x
    ``OFFSET_GRID``) picks each curve's start.  Then each of up to
    ``FIT_STEPS`` Levenberg-Marquardt steps (:func:`_lm_steps`) takes the
    Jacobian of the projected, clamped residual at the curve's cell, solves
    its damped normal equations at every damping of ``FIT_DAMPINGS``,
    clips each trial cell to the hard bounds and scores it through the
    same closed form.  A curve moves to its best trial only when that
    trial's MSE is strictly lower, so no curve ends above its coarse cell.
    A step that does not move a curve ends that curve's search: every later
    one would score the same trials.  Curves with the same number of
    samples run in lockstep, one batch of trials per step for the curves
    still moving, and every curve ends where it would alone.
    Deterministic: no random restarts, ties resolved by grid and damping
    order.  Every group is checked before any curve is fitted.

    Raises:
        InsufficientData: fewer than 4 samples or fewer than 4 distinct SNRs.
        DegenerateData: all similarity values identical.
        ValueError: a group mixes different k.
    """
    by_size: dict[int, list] = {}
    for samples in groups:
        k, x, y = _fit_inputs(samples)
        by_size.setdefault(x.size, []).append((k, x, y))
    entries = []
    for n, curves in by_size.items():
        # A step's float temporaries hold curves x dampings x n floats, at
        # most BATCH_CANDIDATES as in the searches' batches up to 630 samples.
        per_batch = max(1, BATCH_CANDIDATES // (FIT_DAMPINGS.size * n))
        for i in range(0, len(curves), per_batch):
            ks, xs, ys = zip(*curves[i:i + per_batch])
            fitted = _fit_curves(np.array(xs), np.array(ys))
            entries += [LogisticParams(k, *map(float, row)) for k, row in zip(ks, fitted)]
    return ParamTable(entries)


def fit_logistic(samples: Sequence[SimilaritySample]) -> LogisticParams:
    """Fit one S-curve to samples that all share the same k: :func:`fit_table` of one group."""
    (fitted,) = fit_table([samples])
    return fitted


def fit_mse(params: LogisticParams, samples: Sequence[SimilaritySample]) -> float:
    """Mean squared error of a fitted curve against its samples."""
    x = np.array([s.snr_db for s in samples], dtype=float)
    y = np.array([s.similarity for s in samples], dtype=float)
    resid = eval_similarity(params, x) - y
    return float(np.mean(resid * resid))
