"""Property tests over random scenarios, draws and target triples.

Floors range past the curve ceiling and the semantic-rate target is often
exactly zero, the corners where one scheme drops out while another stays
feasible.  Target fractions are never subnormal: a subnormal rate target
has fewer significant bits than the plug-back check's 1e-6 tolerance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sembit as sb
from sembit.cli import _verify_solutions
from sembit.power import _row_set
from sembit.rates import (
    ALLOC_FIELDS,
    MIN_BAND_FRACTION,
    hybrid_max_rate,
    orth_inv_slope,
    orth_max_rate,
    overlay_inv_slope,
    rates_rows,
    sem_power,
    water_fill_max_grid,
)

from onerow import min_power, sweep_boundary

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
    if feasible:
        allocs = [sol.alloc for sol in feasible.values()]
        checks = _verify_solutions(scenario, real, targets, allocs)
        assert checks == [[]] * len(allocs), dict(zip(feasible, checks))
    corners = [feasible[s].total for s in (sb.Scheme.OMA, sb.Scheme.NOMA) if s in feasible]
    if corners:
        assert sb.Scheme.SEMI in feasible
        assert feasible[sb.Scheme.SEMI].total <= min(corners) * (1 + 1e-12)
    try:
        semi = min_power(sb.Scheme.SEMI, scenario, real, targets, GRID_N)
    except sb.Infeasible as exc:
        semi = exc
    assert type(semi) is type(sols[sb.Scheme.SEMI])
    if sb.Scheme.SEMI in feasible:
        assert semi == feasible[sb.Scheme.SEMI]


@settings(max_examples=30, deadline=None)
@given(cases())
def test_boundary_contains_itself(case):
    scenario, real, _ = case
    b = sweep_boundary(scenario, real, sb.Scheme.OMA, n_points=6, grid_n=16)
    assert sb.check_containment(b, b).contained


@settings(max_examples=30, deadline=None)
@given(cases(), st.sampled_from([sb.Scheme.OMA, sb.Scheme.SEMI]))
def test_boundary_does_not_increase(case, scheme):
    scenario, real, _ = case
    b = sweep_boundary(scenario, real, scheme, n_points=8, grid_n=16)
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


# A target at the carrier's limit that rounds over it: fl(W / k) * k > W.
EDGE = sb.Scenario(total_bandwidth=5e5, k=7)
EDGE_CASE = (EDGE, sb.sample_realization(EDGE, 0), sb.PowerTargets(5e5 / 7, 0.5, 0.0))


@settings(max_examples=100, deadline=None)
@given(cases())
@example(EDGE_CASE)
def test_semi_score_dominates_oma_score(case):
    # Semi is never worse than oma, candidate by candidate: at the same
    # target and band the hybrid may leave its shared pipe empty.  Where
    # the water-fill does so, the two scores are one kernel's; elsewhere
    # the closed form may round below by at most 1e-12 relative.
    scenario, real, targets = case
    w, p_max, n0 = scenario.total_bandwidth, scenario.max_power, scenario.noise_psd
    sigma, floor = targets.sigma_target, targets.min_similarity
    if sigma * scenario.k > w:
        # No band reaches the target: Lemma 1 raises, and the solvers call it bandwidth-bound.
        with pytest.raises(sb.InfeasibleTarget):
            sb.lemma1_bounds(scenario, sigma, floor)
        assert _row_set(scenario, [real], [targets])[1][0] == 1
        return
    lo = sb.lemma1_bounds(scenario, sigma, floor)[0]
    x = np.linspace(max(lo, w * MIN_BAND_FRACTION), w, 257)
    p_s = sem_power(scenario, real.gain_s, sigma, floor, x)
    semi = hybrid_max_rate(w, x, p_s, p_max, real.gain_eff, real.gain_b, n0)
    oma = orth_max_rate(w, x, p_s, p_max, real.gain_b, n0)
    fits = p_s <= p_max
    inv_m = overlay_inv_slope(x, np.where(fits, p_s, 0.0), real.gain_eff, n0)
    inv_b = orth_inv_slope(w - x, real.gain_b, n0)
    budget = np.where(fits, p_max - p_s, 0.0)
    shut = water_fill_max_grid(x, inv_m, w - x, inv_b, budget)[0] == 0
    assert (semi[shut] >= oma[shut]).all()
    assert (semi >= oma * (1 - 1e-12)).all()


@st.composite
def allocations(draw, scenario):
    """An allocation of any scheme within the scenario's budget, empty bands and streams included."""
    w = scenario.total_bandwidth
    share = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    p = [draw(st.one_of(st.just(0.0), st.floats(0.0, scenario.max_power / 3))) for _ in range(3)]
    scheme = draw(st.sampled_from(list(sb.Scheme)))
    if scheme is sb.Scheme.OMA:
        return sb.Allocation.orthogonal(w * share, w - w * share, p[0], p[1])
    if scheme is sb.Scheme.NOMA:
        return sb.Allocation.overlay(w, p[0], p[1])
    return sb.Allocation.hybrid(w * share, w - w * share, *p)


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_rates_for_is_its_column_of_rates_rows(case, data):
    # Each column of rates_rows depends on its own allocation only, bit for bit.
    scenario, real, _ = case
    allocs = data.draw(st.lists(allocations(scenario), min_size=1, max_size=9))
    lines = np.array([[getattr(a, f) for a in allocs] for f in ALLOC_FIELDS])
    columns = np.array(rates_rows(scenario, real.gain_s, real.gain_b, real.gain_eff, lines))
    for alloc, column in zip(allocs, columns.T):
        pair = sb.rates_for(scenario, real, alloc)
        alone = np.array([pair.sem_rate, pair.bit_rate, pair.similarity])
        np.testing.assert_array_equal(alone.view(np.int64), column.view(np.int64))
