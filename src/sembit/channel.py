"""Downlink scenario description and fading realisations.

A :class:`Scenario` fixes everything that does not change between channel
draws: carrier bandwidth, power budget, noise density, the two user
distances, the path-loss law, the semantic source length k, the minimum
acceptable similarity, and the fitted S-curve table.  A
:class:`ChannelRealization` is one Rayleigh draw of the two link gains.

Distances follow g = pathloss_ref * d**(-pathloss_exp) * e with e a
unit-mean exponential (squared magnitude of a Rayleigh coefficient).
Draws are Philox-keyed so realisation i of a sweep depends only on
(base_seed, i), never on sweep order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from .errors import DistanceBelowReference, reject_unknown, require_finite, require_float, require_int
from .jsontext import indented, write_text
from .similarity import LogisticParams, ParamTable, default_table

_MASK64 = (1 << 64) - 1
_WATT_PER_DBM = 1e-3


def dbm_to_watt(dbm: float) -> float:
    return _WATT_PER_DBM * 10.0 ** (dbm / 10.0)


def watt_to_dbm(watt: float) -> float:
    return 10.0 * math.log10(watt / _WATT_PER_DBM)


def path_loss(distance: float, pathloss_ref: float, pathloss_exp: float) -> float:
    """Mean channel gain at ``distance`` metres.

    ``pathloss_ref`` is the linear gain at the 1 m reference distance;
    distances below the reference are rejected rather than extrapolated.
    """
    if distance < 1.0:
        raise DistanceBelowReference(
            f"distance {distance} m is below the 1 m reference"
        )
    if pathloss_ref <= 0 or pathloss_exp <= 0:
        raise ValueError("pathloss_ref and pathloss_exp must be positive")
    return pathloss_ref * distance ** (-pathloss_exp)


@dataclass(frozen=True)
class Scenario:
    """Static system parameters for one downlink study.

    Attributes:
        total_bandwidth: carrier bandwidth W in Hz.
        max_power: transmit power budget P in W.
        noise_psd: one-sided noise density N0 in W/Hz.
        k: semantic source length (symbols per message).
        min_similarity: similarity floor every semantic transmission must meet.
        d_s: semantic user distance in m.
        d_b: bit user distance in m.
        pathloss_ref: linear gain at the 1 m reference distance.
        pathloss_exp: path-loss exponent.
        params: fitted S-curve table; must contain an entry for k.
    """

    total_bandwidth: float = 1e6
    max_power: float = 1.0
    noise_psd: float = 1e-17
    k: int = 4
    min_similarity: float = 0.8
    d_s: float = 20.0
    d_b: float = 30.0
    pathloss_ref: float = 1e-3
    pathloss_exp: float = 4.0
    params: ParamTable = field(default_factory=default_table)

    def __post_init__(self):
        require_finite(
            self,
            "total_bandwidth",
            "max_power",
            "noise_psd",
            "min_similarity",
            "d_s",
            "d_b",
            "pathloss_ref",
            "pathloss_exp",
        )
        if self.total_bandwidth <= 0:
            raise ValueError("total_bandwidth must be positive")
        if self.max_power <= 0:
            raise ValueError("max_power must be positive")
        if self.noise_psd <= 0:
            raise ValueError("noise_psd must be positive")
        if not 0.0 <= self.min_similarity < 1.0:
            raise ValueError("min_similarity must lie in [0, 1)")
        if self.k not in self.params:
            raise ValueError(
                f"no S-curve for k={self.k}; table has {self.params.lengths}"
            )
        # Path-loss validation happens in path_loss(); evaluate once here so
        # a bad scenario fails at construction, not first use.
        path_loss(self.d_s, self.pathloss_ref, self.pathloss_exp)
        path_loss(self.d_b, self.pathloss_ref, self.pathloss_exp)

    @property
    def logistic(self) -> LogisticParams:
        return self.params[self.k]

    @property
    def mean_gain_s(self) -> float:
        return path_loss(self.d_s, self.pathloss_ref, self.pathloss_exp)

    @property
    def mean_gain_b(self) -> float:
        return path_loss(self.d_b, self.pathloss_ref, self.pathloss_exp)

    def with_updates(self, **changes) -> "Scenario":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**out, "params": self.params.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        if not isinstance(payload, Mapping):
            raise ValueError(f"scenario must be an object, got {payload!r}")
        data = dict(payload)
        units = data.pop("units", None)
        if units not in (None, "dBm"):
            raise ValueError(f'unsupported units flag {units!r}; only "dBm"')
        if units == "dBm":
            for name in ("max_power", "noise_psd"):
                if name in data:
                    dbm = require_float(name, data[name])
                    try:
                        data[name] = dbm_to_watt(dbm)
                    except OverflowError:
                        raise ValueError(f"{name} of {dbm!r} dBm overflows a power in W") from None
        params = data.pop("params", None)
        table = default_table() if params is None else ParamTable.from_dict(params)
        reject_unknown("scenario", data, (f.name for f in fields(cls)))
        values = {k: (require_int if k == "k" else require_float)(k, v) for k, v in data.items()}
        return cls(params=table, **values)

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path) -> None:
        write_text(path, indented(self.to_dict()) + "\n")

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form, for run manifests.

        The canonical form is ``to_dict()`` as compact JSON with sorted
        keys.  Only the scalar fields are encoded per call; the table's
        cached ``canonical_json`` is spliced in at the ``"params"`` key.
        """
        scalars = {f.name: getattr(self, f.name) for f in fields(self)}
        scalars["params"] = None
        text = json.dumps(scalars, sort_keys=True, separators=(",", ":"))
        head, _, tail = text.partition('"params":null')
        blob = f'{head}"params":{self.params.canonical_json}{tail}'
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChannelRealization:
    """One fading draw: instantaneous link gains for both users."""

    gain_s: float
    gain_b: float
    seed: int | None = None

    def __post_init__(self):
        require_finite(self, "gain_s", "gain_b")
        if self.gain_s <= 0 or self.gain_b <= 0:
            raise ValueError("channel gains must be positive")

    @property
    def gain_eff(self) -> float:
        """Effective shared-band gain: the weaker of the two links."""
        return min(self.gain_s, self.gain_b)


def derive_seed(base_seed: int, index: int) -> int:
    """Per-realisation seed from (base_seed, index), schedule independent.

    splitmix64-style avalanche of the pair so nearby indices decorrelate;
    the same (base_seed, index) always yields the same stream regardless of
    how many realisations run or in which order.
    """
    z = (int(base_seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _philox_words(key: int) -> tuple[int, int]:
    """First two words of Philox4x64-10 at counter (1, 0, 0, 0) and key (``key``, 0).

    The block of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
    3" (SC 2011), in Python integers: numpy's ``Philox(key=key)`` steps its
    counter from 0 to 1 before its first block.
    """
    c0, c1, c2, c3, k0, k1 = 1, 0, 0, 0, key, 0
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * c0
        p1 = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
    return c0, c1


def sample_realization(scenario: Scenario, seed: int) -> ChannelRealization:
    """Draw one Rayleigh-faded realisation of both links.

    Uses a Philox counter generator keyed by the seed and inverse-CDF
    exponentials (-log1p(-u)), so the draw is reproducible across platforms
    and independent of global RNG state.  The uniforms are bit for bit
    ``np.random.Generator(np.random.Philox(key=seed & (2**64 - 1))).random(2)``:
    each word's top 53 bits times 2**-53.  The log is numpy's, since
    ``math.log1p`` can differ by one ulp.
    """
    key = int(seed) & _MASK64
    u = np.array([(word >> 11) * 2.0**-53 for word in _philox_words(key)])
    e = (-np.log1p(-u)).tolist()
    return ChannelRealization(
        gain_s=scenario.mean_gain_s * e[0],
        gain_b=scenario.mean_gain_b * e[1],
        seed=key,
    )
