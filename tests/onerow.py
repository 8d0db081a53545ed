"""One-target solves built from the row solvers, for tests that check a single point.

The package solves boundary points and minimum powers over row sets.
Each helper here solves a row set of one (or reads one row of a larger
set), so a test that compares a batched row with its one-target solve
compares two row solves of the same target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sembit import Allocation, Infeasible, PowerSolution, Scheme, boundary, power, solve_min_powers
from sembit.rates import ALLOC_FIELDS
from sembit.search import DEFAULT_GRID_N


@dataclass(frozen=True)
class BoundaryPoint:
    """One solved boundary point with its optimising allocation, None where unsolved."""

    sigma: float
    bit_rate: float
    similarity: float
    alloc: Allocation | None


def _points(scheme, rows, sigma):
    """Every row of the columns ``rows`` as a :class:`BoundaryPoint`."""
    points = []
    for i, s in enumerate(sigma.tolist()):
        alloc = None
        if rows.solved[i]:
            alloc = Allocation(scheme, **{f: getattr(rows, f).item(i) for f in ALLOC_FIELDS})
        points.append(BoundaryPoint(s, rows.bit_rate.item(i), rows.similarity.item(i), alloc))
    return points


def _oma_points(scenario, real, sigma, grid_n):
    """The oma rows of ``boundary._region_rows`` with every row reported and no hybrid."""
    ext = boundary.oma_extremes(scenario, real)
    report = np.ones(len(sigma), bool)
    return boundary._region_rows(scenario, real, sigma, grid_n, ext, report, False)[0]


def _semi_points(scenario, real, sigma, grid_n):
    """The hybrid rows of ``boundary._region_rows`` with no oma row reported."""
    ext = boundary.oma_extremes(scenario, real)
    report = np.zeros(len(sigma), bool)
    return boundary._region_rows(scenario, real, sigma, grid_n, ext, report, True)[1]


def solve_oma_point(scenario, real, sigma_target, grid_n=DEFAULT_GRID_N) -> BoundaryPoint:
    """The orthogonal boundary point at one semantic-rate target."""
    sigma = np.array([sigma_target], dtype=float)
    return _points(Scheme.OMA, _oma_points(scenario, real, sigma, grid_n), sigma)[0]


def solve_noma_point(scenario, real, sigma_target) -> BoundaryPoint:
    """The overlay operating point at one semantic-rate target."""
    sigma = np.array([sigma_target], dtype=float)
    return _points(Scheme.NOMA, boundary._noma_points(scenario, real, sigma), sigma)[0]


def solve_semi_point(scenario, real, sigma_target, grid_n=DEFAULT_GRID_N) -> BoundaryPoint:
    """The hybrid boundary point at one semantic-rate target."""
    sigma = np.array([sigma_target], dtype=float)
    return _points(Scheme.SEMI, _semi_points(scenario, real, sigma, grid_n), sigma)[0]


def sweep_boundary(scenario, real, scheme, n_points=200, grid_n=DEFAULT_GRID_N):
    """One scheme's boundary from ``trace_region``; raises the EmptyRegion it returns."""
    scheme = Scheme(scheme)
    found, empty = boundary.trace_region(scenario, real, [scheme], n_points, grid_n)
    if empty is not None:
        raise empty
    return found[scheme]


def min_power(scheme, scenario, real, targets, grid_n=DEFAULT_GRID_N) -> PowerSolution:
    """``solve_min_powers(...)[scheme]``; raises it where it is an :class:`Infeasible`."""
    result = solve_min_powers(scenario, real, targets, grid_n)[scheme]
    if isinstance(result, Infeasible):
        raise result
    return result


def row_solutions(scenario, targets, solved, i):
    """Row ``i`` of every scheme in ``solved``, as ``solve_min_powers`` returns its one row."""
    return {s: power._solution(scenario, targets, s, rows, i) for s, rows in solved.items()}
