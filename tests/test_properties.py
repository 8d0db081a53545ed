"""Property tests over random scenarios, draws and target triples.

Floors range past the curve ceiling and the semantic-rate target is often
exactly zero, the corners where one scheme drops out while another stays
feasible.  Target fractions are never subnormal: a subnormal rate target
has fewer significant bits than the plug-back check's 1e-6 tolerance.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sembit as sb
from sembit.cli import _verify_solution

TABLE = sb.default_table()
GRID_N = 64
# The searched minimum is exact only to the final bracket spacing,
# 1/((GRID_N - 1) * 32**3) of the band; an optimum on the kink where the
# similarity floor takes over from the rate target turns that into a
# first-order power error (up to 4.3e-6 seen at GRID_N = 64).
MONOTONE_RTOL = 1e-4


@st.composite
def cases(draw):
    k = draw(st.sampled_from(TABLE.lengths))
    w = draw(st.floats(5e5, 2e6))
    scenario = sb.Scenario(
        total_bandwidth=w,
        max_power=draw(st.floats(0.05, 2.0)),
        k=k,
        min_similarity=draw(st.floats(0.3, 0.99)),
        d_s=draw(st.floats(12.0, 55.0)),
        d_b=draw(st.floats(12.0, 55.0)),
    )
    real = sb.sample_realization(scenario, draw(st.integers(0, 2**32 - 1)))
    fraction = st.floats(0.0, 1.0, allow_subnormal=False)
    sigma_frac = draw(st.one_of(st.just(0.0), fraction))
    targets = sb.PowerTargets(
        sigma_target=sigma_frac * w / k,
        min_similarity=draw(st.floats(0.3, 0.99)),
        bit_target=4.0 * draw(fraction) * w,
    )
    return scenario, real, targets


@settings(max_examples=100, deadline=None)
@given(cases())
def test_min_power_solutions(case):
    scenario, real, targets = case
    sols = sb.solve_min_powers(scenario, real, targets, GRID_N)
    feasible = {s: sol for s, sol in sols.items() if isinstance(sol, sb.PowerSolution)}
    for scheme, sol in feasible.items():
        assert math.isfinite(sol.total)
        assert _verify_solution(scenario, real, targets, sol.alloc) == [], scheme
    corners = [feasible[s].total for s in (sb.Scheme.OMA, sb.Scheme.NOMA) if s in feasible]
    if corners:
        assert sb.Scheme.SEMI in feasible
        assert feasible[sb.Scheme.SEMI].total <= min(corners) * (1 + 1e-12)
    try:
        semi = sb.solve_semi_min_power(scenario, real, targets, GRID_N)
    except sb.Infeasible as exc:
        semi = exc
    assert type(semi) is type(sols[sb.Scheme.SEMI])
    if sb.Scheme.SEMI in feasible:
        assert semi == feasible[sb.Scheme.SEMI]


@settings(max_examples=30, deadline=None)
@given(cases())
def test_boundary_contains_itself(case):
    scenario, real, _ = case
    b = sb.sweep_boundary(scenario, real, sb.Scheme.OMA, n_points=6, grid_n=16)
    assert sb.check_containment(b, b).contained


@settings(max_examples=30, deadline=None)
@given(cases(), st.sampled_from([sb.Scheme.OMA, sb.Scheme.SEMI]))
def test_boundary_does_not_increase(case, scheme):
    scenario, real, _ = case
    b = sb.sweep_boundary(scenario, real, scheme, n_points=8, grid_n=16)
    assert np.all(np.diff(b.sigma) >= 0)
    assert np.all(np.diff(b.bit_rate) <= 0)


@settings(max_examples=60, deadline=None)
@given(
    cases(),
    st.sampled_from(["sigma_target", "bit_target", "min_similarity"]),
    st.floats(0.0, 1.0),
)
def test_min_power_monotone_in_each_target(case, field, shrink):
    # Lowering one target never costs more, and never loses feasibility.
    scenario, real, targets = case
    easier = replace(targets, **{field: getattr(targets, field) * shrink})
    low = sb.solve_min_powers(scenario, real, easier, GRID_N)
    high = sb.solve_min_powers(scenario, real, targets, GRID_N)
    for scheme, sol in high.items():
        if isinstance(sol, sb.PowerSolution):
            assert isinstance(low[scheme], sb.PowerSolution), scheme
            assert low[scheme].total <= sol.total * (1 + MONOTONE_RTOL), scheme
