"""Rate regions and minimum-power allocation for mixed semantic/bit downlinks.

A base station serves one user that consumes semantic content (scored by
a similarity measure that saturates with SNR) and one that consumes plain
bits, out of a shared band and power budget.  This package models the
similarity S-curve, traces the achievable (semantic rate, bit rate)
region boundary for orthogonal, overlay, and hybrid multiplexing, solves
the dual minimum-power problem, and runs seeded fading sweeps.
"""

from .boundary import (
    Containment,
    Extremes,
    RegionBoundary,
    check_containment,
    noma_boundary,
    noma_power_floor,
    noma_sigma_min,
    oma_extremes,
    trace_region,
)
from .channel import (
    ChannelRealization,
    Scenario,
    dbm_to_watt,
    derive_seed,
    path_loss,
    sample_realization,
    watt_to_dbm,
)
from .errors import (
    DegenerateData,
    DistanceBelowReference,
    DomainMismatch,
    EmptyRegion,
    Infeasible,
    InfeasibleTarget,
    InsufficientData,
    SembitError,
    TargetBelowFloor,
    TargetUnreachable,
)
from .montecarlo import SweepResult, SweepRow, SweepSpec, run_sweep
from .power import (
    PowerSolution,
    PowerTargets,
    solve_min_powers,
)
from .rates import (
    Allocation,
    RatePair,
    Scheme,
    lemma1_bounds,
    rates_for,
    snr_db,
)
from .similarity import (
    LogisticParams,
    ParamTable,
    SimilaritySample,
    default_table,
    eval_similarity,
    fit_logistic,
    fit_mse,
    fit_table,
    invert_similarity,
    power_for_similarity_grid,
    read_samples_csv,
    required_power_for_similarity,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ChannelRealization",
    "Containment",
    "DegenerateData",
    "DistanceBelowReference",
    "DomainMismatch",
    "EmptyRegion",
    "Extremes",
    "Infeasible",
    "InfeasibleTarget",
    "InsufficientData",
    "LogisticParams",
    "ParamTable",
    "PowerSolution",
    "PowerTargets",
    "RatePair",
    "RegionBoundary",
    "Scenario",
    "Scheme",
    "SembitError",
    "SimilaritySample",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "TargetBelowFloor",
    "TargetUnreachable",
    "check_containment",
    "dbm_to_watt",
    "default_table",
    "derive_seed",
    "eval_similarity",
    "fit_logistic",
    "fit_mse",
    "fit_table",
    "invert_similarity",
    "lemma1_bounds",
    "noma_boundary",
    "noma_power_floor",
    "noma_sigma_min",
    "oma_extremes",
    "path_loss",
    "power_for_similarity_grid",
    "rates_for",
    "read_samples_csv",
    "required_power_for_similarity",
    "run_sweep",
    "sample_realization",
    "snr_db",
    "solve_min_powers",
    "trace_region",
    "watt_to_dbm",
]
