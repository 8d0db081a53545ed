"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained, uses its own seeded RNG, re-derives any
reference value it needs with test-local code (bisection or direct
algebra, never the package's own search machinery), and finishes by
printing a single PASS line with the measured margins.  Timing limits
are asserted with time.monotonic around the measured section.
"""

import json
import math
import time

import numpy as np
import pytest

import sembit as sb
from sembit.cli import _resolve_sweep_spec, main as cli_main

RNG_SALT = 0x5EB17


# --- test-local reference math (independent transcriptions) ---------------


def ref_similarity(params, snr_db):
    z = params.growth * np.asarray(snr_db, dtype=float) + params.offset
    return params.a_low + (params.a_high - params.a_low) / (1.0 + np.exp(-z))


def ref_snr_db(params, eps):
    span = params.a_high - params.a_low
    return (-np.log(span / (np.asarray(eps) - params.a_low) - 1.0) - params.offset) / params.growth


def ref_power(params, eps, bandwidth, gain, noise_psd):
    return bandwidth * noise_psd / gain * 10.0 ** (ref_snr_db(params, eps) / 10.0)


def random_scenario(rng, table):
    k = int(rng.choice(table.lengths))
    a_high = table[k].a_high
    return sb.Scenario(
        total_bandwidth=float(rng.uniform(5e5, 2e6)),
        max_power=float(rng.uniform(0.05, 2.0)),
        k=k,
        min_similarity=float(rng.uniform(0.45, a_high - 0.03)),
        d_s=float(rng.uniform(12.0, 55.0)),
        d_b=float(rng.uniform(12.0, 55.0)),
    )


# --- criterion 1: similarity model round trip + fit recovery ---------------


def test_criterion_1_similarity_roundtrip_and_fit():
    start = time.monotonic()
    rng = np.random.default_rng(RNG_SALT + 1)
    worst = 0.0
    for _ in range(10_000):
        a_low = rng.uniform(0.0, 0.5)
        a_high = rng.uniform(a_low + 0.1, 1.0)
        params = sb.LogisticParams(
            k=4,
            a_low=a_low,
            a_high=a_high,
            growth=rng.uniform(0.05, 2.0),
            offset=rng.uniform(-10.0, 10.0),
        )
        span = a_high - a_low
        target = a_low + span * rng.uniform(1e-9, 1.0 - 1e-9)
        back = sb.eval_similarity(params, sb.invert_similarity(params, target))
        worst = max(worst, abs(back - target))
    assert worst < 1e-9, f"round-trip error {worst:.3e} exceeds 1e-9"

    truth = sb.LogisticParams(k=4, a_low=0.21, a_high=0.93, growth=0.62, offset=-2.4)
    snrs = np.linspace(-15.0, 25.0, 41)
    samples = [
        sb.SimilaritySample(4, float(x), float(ref_similarity(truth, x))) for x in snrs
    ]
    fitted = sb.fit_logistic(samples)
    errors = {
        "a_low": abs(fitted.a_low - truth.a_low),
        "a_high": abs(fitted.a_high - truth.a_high),
        "growth": abs(fitted.growth - truth.growth),
        "offset": abs(fitted.offset - truth.offset),
    }
    for name, err in errors.items():
        assert err <= 1e-2, f"fit recovered {name} off by {err:.3e} (> 1e-2)"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (limit 10s)"
    print(
        f"PASS criterion 1: round-trip worst {worst:.2e} < 1e-9 over 10000 pairs; "
        f"fit recovery worst {max(errors.values()):.2e} <= 1e-2; {elapsed:.2f}s"
    )


# --- criterion 2: overlay semantic-rate floor ------------------------------


def test_criterion_2_overlay_semantic_rate_floor():
    scenario = sb.Scenario()  # 1 MHz carrier, k=4, similarity floor 0.8
    got = sb.noma_sigma_min(scenario)
    expect = 0.200e6
    assert abs(got - expect) <= 1e-12 * expect, f"sigma floor {got!r} != {expect!r}"
    # The traced overlay boundary starts exactly there on any feasible draw.
    real = sb.sample_realization(scenario, 7)
    first = sb.noma_boundary(scenario, real, n_points=16).points[0]
    assert abs(first.sem_rate - expect) <= 1e-9 * expect
    print(
        f"PASS criterion 2: overlay semantic-rate floor {got!r} = 0.200e6 "
        f"within 1e-12 relative"
    )


# --- criterion 3: water-filling against dense enumeration ------------------


def test_criterion_3_water_filling_vs_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(RNG_SALT + 3)
    splits = np.linspace(0.0, 1.0, 100_001)
    worst_max = 0.0
    worst_min = 0.0
    worst_plug = 0.0
    for _ in range(25):
        h_m = 10.0 ** rng.uniform(6.0, 13.0)
        h_b = 10.0 ** rng.uniform(6.0, 13.0)
        w_m = rng.uniform(5e4, 9.5e5)
        w_b = rng.uniform(5e4, 9.5e5)
        budget = 10.0 ** rng.uniform(-2.0, 0.7)
        p_m, p_b = sb.water_fill_max(h_m, h_b, w_m, w_b, budget)
        got = w_m * math.log2(1 + p_m * h_m) + w_b * math.log2(1 + p_b * h_b)
        brute = float(
            np.max(
                w_m * np.log2(1 + splits * budget * h_m)
                + w_b * np.log2(1 + (1 - splits) * budget * h_b)
            )
        )
        assert got >= brute * (1 - 1e-12), "analytic split lost to enumeration"
        worst_max = max(worst_max, abs(got - brute) / brute)
        spend = abs(p_m + p_b - budget) / budget
        worst_plug = max(worst_plug, spend)
        assert spend <= 1e-6, f"budget not spent: off by {spend:.2e}"
    assert worst_max <= 1e-3, f"max-rate split off by {worst_max:.2e} (> 1e-3)"

    for _ in range(25):
        h_m = 10.0 ** rng.uniform(6.0, 13.0)
        h_b = 10.0 ** rng.uniform(6.0, 13.0)
        w_m = rng.uniform(5e4, 9.5e5)
        w_b = rng.uniform(5e4, 9.5e5)
        rate = rng.uniform(2e5, 4e6)
        p_m, p_b = sb.water_fill_min(h_m, h_b, w_m, w_b, rate)
        total = p_m + p_b
        powers = (
            np.expm1(math.log(2.0) * splits * rate / w_m) / h_m
            + np.expm1(math.log(2.0) * (1 - splits) * rate / w_b) / h_b
        )
        brute = float(powers.min())
        assert total <= brute * (1 + 1e-12), "analytic split lost to enumeration"
        worst_min = max(worst_min, abs(total - brute) / brute)
        realized = w_m * math.log2(1 + p_m * h_m) + w_b * math.log2(1 + p_b * h_b)
        plug = abs(realized - rate) / rate
        worst_plug = max(worst_plug, plug)
        assert plug <= 1e-6, f"realized rate off target by {plug:.2e} (> 1e-6)"
    assert worst_min <= 1e-3, f"min-power split off by {worst_min:.2e} (> 1e-3)"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s (limit 30s)"
    print(
        f"PASS criterion 3: 50 instances vs 1e5-point enumeration, worst gap "
        f"max={worst_max:.2e} min={worst_min:.2e} (<= 1e-3), plug-back "
        f"{worst_plug:.2e} (<= 1e-6); {elapsed:.1f}s"
    )


# --- criterion 4: boundary searches against dense enumeration --------------


def _oma_brute(scenario, real, sigma, n_ws=1500, n_eps=300):
    """Enumerate (semantic band, achieved similarity) and keep the best
    feasible bit rate.  Powers come from the test-local curve algebra."""
    params = scenario.logistic
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    n0 = scenario.noise_psd
    span = params.a_high - params.a_low
    ws = np.linspace(sigma * scenario.k, w, n_ws)
    eps_lo = np.maximum(sigma * scenario.k / ws, scenario.min_similarity)
    eps_hi = params.a_high - 1e-9 * span
    rows = eps_lo < eps_hi
    if not rows.any():
        return 0.0
    ws = ws[rows][:, None]
    eps = eps_lo[rows][:, None] + (eps_hi - eps_lo[rows][:, None]) * np.linspace(
        0.0, 1.0, n_eps
    )
    p_s = ref_power(params, eps, ws, real.gain_s, n0)
    w_b = w - ws
    p_b = p_max - p_s
    live = (p_b > 0) & (w_b > 0)
    w_b = np.where(w_b > 0, w_b, 1.0)
    bit = w_b * np.log1p(np.where(live, p_b, 0.0) * real.gain_b / (w_b * n0)) / math.log(2)
    return float(np.max(np.where(live, bit, 0.0), initial=0.0))


def _semi_brute(scenario, real, sigma, n_wm=200, n_eps=200, n_t=200):
    """Enumerate (shared band, achieved similarity, bit power split)."""
    params = scenario.logistic
    w = scenario.total_bandwidth
    p_max = scenario.max_power
    n0 = scenario.noise_psd
    g_eff = real.gain_eff
    span = params.a_high - params.a_low
    eps_hi = params.a_high - 1e-9 * span
    t = np.linspace(0.0, 1.0, n_t)[None, :]
    best = 0.0
    for w_m in np.linspace(max(sigma * scenario.k, w * 1e-9), w, n_wm):
        eps_lo = max(sigma * scenario.k / w_m, scenario.min_similarity)
        if eps_lo >= eps_hi:
            continue
        eps = np.linspace(eps_lo, eps_hi, n_eps)
        p_s = ref_power(params, eps, w_m, real.gain_s, n0)
        budget = p_max - p_s
        feas = budget > 0
        if not feas.any():
            continue
        p_s = p_s[feas][:, None]
        budget = budget[feas][:, None]
        shared = w_m * np.log1p(t * budget * g_eff / (p_s * g_eff + w_m * n0)) / math.log(2)
        w_b = w - w_m
        if w_b > 0:
            orth = w_b * np.log1p((1 - t) * budget * real.gain_b / (w_b * n0)) / math.log(2)
        else:
            orth = 0.0
        best = max(best, float(np.max(shared + orth)))
    return best


def test_criterion_4_boundary_vs_dense_enumeration(table):
    start = time.monotonic()
    rng = np.random.default_rng(RNG_SALT + 4)
    worst = 0.0
    checked = 0
    for i in range(20):
        scenario = random_scenario(rng, table)
        real = sb.sample_realization(scenario, 1000 + i)
        ext = sb.oma_extremes(scenario, real)
        if ext.sigma_max <= 0:
            continue
        for frac in (0.35, 0.6, 0.8):
            sigma = frac * ext.sigma_max
            floor = max(ext.r_max * 1e-9, 1e-6)
            got_oma = sb.solve_oma_point(scenario, real, sigma).bit_rate
            brute_oma = _oma_brute(scenario, real, sigma)
            gap = abs(got_oma - brute_oma) / max(brute_oma, floor)
            worst = max(worst, gap)
            assert gap <= 0.01, (
                f"orthogonal point off enumeration by {gap:.2%} "
                f"(scenario {i}, sigma {sigma:.4g})"
            )
            got_semi = sb.solve_semi_point(scenario, real, sigma).bit_rate
            brute_semi = _semi_brute(scenario, real, sigma)
            gap = abs(got_semi - brute_semi) / max(brute_semi, floor)
            worst = max(worst, gap)
            assert gap <= 0.01, (
                f"hybrid point off enumeration by {gap:.2%} "
                f"(scenario {i}, sigma {sigma:.4g})"
            )
            checked += 2
    assert checked >= 40, f"too few comparisons ran ({checked})"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s (limit 300s)"
    print(
        f"PASS criterion 4: {checked} boundary points within 1% of dense "
        f"enumeration (worst {worst:.2e}); {elapsed:.1f}s"
    )


# --- criterion 5: hybrid dominance + mutual non-containment ----------------


def test_criterion_5_hybrid_dominance_and_mutual_noncontainment(table):
    start = time.monotonic()
    rng = np.random.default_rng(RNG_SALT + 5)
    tol = 1e-6
    points = 0
    for i in range(100):
        scenario = random_scenario(rng, table)
        real = sb.sample_realization(scenario, 2000 + i)
        ext = sb.oma_extremes(scenario, real)
        if ext.sigma_max > 0:
            for sigma in np.linspace(0.0, ext.sigma_max, 12):
                r_semi = sb.solve_semi_point(scenario, real, float(sigma), grid_n=192).bit_rate
                r_oma = sb.solve_oma_point(scenario, real, float(sigma), grid_n=192).bit_rate
                assert r_semi >= r_oma * (1 - tol), (
                    f"hybrid below orthogonal at sigma {sigma:.4g} (scenario {i})"
                )
                points += 1
        if sb.noma_power_floor(scenario, real) <= scenario.max_power:
            for p_s in np.linspace(
                sb.noma_power_floor(scenario, real), scenario.max_power * 0.999, 6
            ):
                eps = sb.eval_similarity(
                    scenario.logistic,
                    sb.snr_db(float(p_s), real.gain_s, scenario.total_bandwidth, scenario.noise_psd),
                )
                sigma = scenario.total_bandwidth * eps / scenario.k
                r_noma = sb.solve_noma_point(scenario, real, sigma).bit_rate
                r_semi = sb.solve_semi_point(scenario, real, sigma, grid_n=192).bit_rate
                assert r_semi >= r_noma * (1 - tol), (
                    f"hybrid below overlay at sigma {sigma:.4g} (scenario {i})"
                )
                points += 1

    # Mutual non-containment of the two pure schemes on the baseline
    # power-sufficient draw, with solver-level witnesses.
    scenario = sb.Scenario()
    real = sb.sample_realization(scenario, 7)
    b_oma = sb.sweep_boundary(scenario, real, sb.Scheme.OMA, n_points=60, grid_n=256)
    b_noma = sb.noma_boundary(scenario, real, n_points=120)
    v1 = sb.check_containment(b_oma, b_noma)
    v2 = sb.check_containment(b_noma, b_oma)
    assert not v1.contained, "overlay unexpectedly covers the orthogonal boundary"
    assert not v2.contained, "orthogonal unexpectedly covers the overlay boundary"
    # Witness a: at zero semantic rate the orthogonal intercept beats the
    # best bit rate the overlay reaches anywhere.
    r_oma_zero = sb.solve_oma_point(scenario, real, 0.0).bit_rate
    assert r_oma_zero > float(np.max(b_noma.bit_rate)) * (1 + tol)
    # Witness b: at sigma = 0.2 MHz the overlay beats the orthogonal point.
    sigma_w = 200e3
    r_noma_w = sb.solve_noma_point(scenario, real, sigma_w).bit_rate
    r_oma_w = sb.solve_oma_point(scenario, real, sigma_w).bit_rate
    assert r_noma_w > r_oma_w * (1 + tol)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.1f}s (limit 600s)"
    print(
        f"PASS criterion 5: hybrid dominates both pure schemes at {points} "
        f"boundary points over 100 scenarios (tol 1e-6); pure schemes "
        f"mutually non-contained with witnesses sigma=0 and sigma=2e5; "
        f"{elapsed:.1f}s"
    )


# --- criterion 6: strict hybrid gain on the symmetric-distance case --------


def test_criterion_6_symmetric_case_strict_gain():
    scenario = sb.Scenario(d_s=30.0, d_b=30.0)
    draws = 20
    strict = 0
    total = 0
    for seed in range(draws):
        real = sb.sample_realization(scenario, seed)
        ext = sb.oma_extremes(scenario, real)
        if ext.sigma_max <= 0:
            continue
        for sigma in np.linspace(0.0, ext.sigma_max, 17)[1:-1]:
            r_semi = sb.solve_semi_point(scenario, real, float(sigma), grid_n=192).bit_rate
            r_oma = sb.solve_oma_point(scenario, real, float(sigma), grid_n=192).bit_rate
            total += 1
            if r_semi > r_oma * (1 + 1e-9):
                strict += 1
    frac = strict / total
    assert frac >= 0.5, (
        f"hybrid strictly beat orthogonal at only {strict}/{total} interior "
        f"points ({frac:.0%}, need >= 50%)"
    )
    print(
        f"PASS criterion 6: equal-distance case, hybrid strictly above "
        f"orthogonal at {strict}/{total} interior points ({frac:.0%} >= 50%)"
    )


# --- criterion 7: minimum-power ordering, flatness, monotonicity ------------


def test_criterion_7_min_power_ordering_flatness_monotonicity(table):
    start = time.monotonic()
    rng = np.random.default_rng(RNG_SALT + 7)
    triples = 0
    for i in range(100):
        scenario = random_scenario(rng, table)
        real = sb.sample_realization(scenario, 3000 + i)
        a_high = scenario.logistic.a_high
        w_over_k = scenario.total_bandwidth / scenario.k
        for _ in range(10):
            targets = sb.PowerTargets(
                sigma_target=float(rng.uniform(0.0, 0.95) * a_high * w_over_k),
                min_similarity=float(rng.uniform(0.3, a_high - 0.02)),
                bit_target=float(rng.uniform(0.01, 4.0) * scenario.total_bandwidth),
            )
            p_oma = sb.solve_oma_min_power(scenario, real, targets, grid_n=256).total
            p_noma = sb.solve_noma_min_power(scenario, real, targets).total
            p_semi = sb.solve_semi_min_power(scenario, real, targets, grid_n=256).total
            assert p_semi <= min(p_oma, p_noma) + 1e-9, (
                f"hybrid {p_semi!r} above min({p_oma!r}, {p_noma!r}) "
                f"(scenario {i})"
            )
            triples += 1

    # Exact flatness: while the floor binds, the overlay minimum is the
    # same float for every semantic-rate target.
    flat_checked = 0
    for i in range(30):
        scenario = random_scenario(rng, table)
        real = sb.sample_realization(scenario, 4000 + i)
        floor = scenario.min_similarity
        sigma_edge = floor * scenario.total_bandwidth / scenario.k
        targets = sb.PowerTargets(0.0, floor, float(rng.uniform(0.1, 2.0) * scenario.total_bandwidth))
        values = {
            sb.solve_noma_min_power(
                scenario,
                real,
                sb.PowerTargets(frac * sigma_edge, floor, targets.bit_target),
            ).total
            for frac in (0.0, 0.25, 0.5, 0.75, 0.95)
        }
        assert len(values) == 1, (
            f"overlay minimum not exactly flat while the floor binds: {values}"
        )
        flat_checked += 1

    # Monotonicity in each target, 1e-9 relative slack for search noise.
    mono_checked = 0
    for i in range(20):
        scenario = random_scenario(rng, table)
        real = sb.sample_realization(scenario, 5000 + i)
        a_high = scenario.logistic.a_high
        w_over_k = scenario.total_bandwidth / scenario.k
        base = sb.PowerTargets(
            0.3 * a_high * w_over_k, scenario.min_similarity, 0.5 * scenario.total_bandwidth
        )
        axes = {
            "sigma_target": [f * a_high * w_over_k for f in (0.0, 0.3, 0.6, 0.9)],
            "min_similarity": list(np.linspace(0.3, a_high - 0.02, 4)),
            "bit_target": [f * scenario.total_bandwidth for f in (0.1, 0.5, 1.5, 3.0)],
        }
        for field, values in axes.items():
            for solver in (
                lambda t: sb.solve_oma_min_power(scenario, real, t).total,
                lambda t: sb.solve_noma_min_power(scenario, real, t).total,
                lambda t: sb.solve_semi_min_power(scenario, real, t).total,
            ):
                prev = -math.inf
                for v in values:
                    kwargs = {
                        "sigma_target": base.sigma_target,
                        "min_similarity": base.min_similarity,
                        "bit_target": base.bit_target,
                    }
                    kwargs[field] = float(v)
                    cur = solver(sb.PowerTargets(**kwargs))
                    assert cur >= prev * (1 - 1e-9), (
                        f"minimum power dropped along {field} (scenario {i}): "
                        f"{prev!r} -> {cur!r}"
                    )
                    prev = cur
                mono_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s (limit 600s)"
    print(
        f"PASS criterion 7: hybrid <= min(orthogonal, overlay) + 1e-9 on "
        f"{triples} triples; overlay exactly flat on {flat_checked} scenarios; "
        f"{mono_checked} monotone target sweeps; {elapsed:.1f}s"
    )


# --- criterion 8: bundled sweep reproduces the scheme crossover -------------


def test_criterion_8_bundled_sweep_crossover():
    start = time.monotonic()
    spec = sb.SweepSpec.from_dict(_resolve_sweep_spec("semantic-rate"))
    assert spec.n_realizations == 500
    result = sb.run_sweep(spec)
    oma = {r.sweep_value: r.mean_power_w for r in result.rows_for("oma")}
    noma = {r.sweep_value: r.mean_power_w for r in result.rows_for("noma")}
    semi = {r.sweep_value: r.mean_power_w for r in result.rows_for("semi")}
    oma_cheaper = [v for v in spec.values if oma[v] < noma[v]]
    noma_cheaper = [v for v in spec.values if noma[v] < oma[v]]
    assert oma_cheaper, "orthogonal never cheaper than overlay across the sweep"
    assert noma_cheaper, "overlay never cheaper than orthogonal across the sweep"
    for v in spec.values:
        assert semi[v] <= min(oma[v], noma[v]) * (1 + 1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.1f}s (limit 600s)"
    print(
        f"PASS criterion 8: 500-draw sweep crossover, orthogonal cheaper at "
        f"{[f'{v:.3g}' for v in oma_cheaper]} and overlay cheaper at "
        f"{[f'{v:.3g}' for v in noma_cheaper]}; {elapsed:.1f}s"
    )


# --- criterion 9: byte-reproducible CLI outputs ----------------------------


def test_criterion_9_cli_byte_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755734400")

    def tree(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}

    # region: rerun and manifest replay
    r1, r2, r3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    argv = ["region", "--seed", "7", "--points", "20", "--grid", "128"]
    assert cli_main(argv + ["--out", str(r1)]) == 0
    assert cli_main(argv + ["--out", str(r2)]) == 0
    assert tree(r1) == tree(r2), "region rerun differs"
    assert cli_main(["replay", str(r1 / "manifest.json"), "--out", str(r3)]) == 0
    assert tree(r1) == tree(r3), "region replay differs"

    # power: rerun and manifest replay
    p1, p2, p3 = tmp_path / "p1", tmp_path / "p2", tmp_path / "p3"
    argv = [
        "power", "--seed", "7", "--sigma", "100e3", "--floor", "0.8",
        "--bits", "8e5", "--grid", "256", "--verify",
    ]
    assert cli_main(argv + ["--out", str(p1)]) == 0
    assert cli_main(argv + ["--out", str(p2)]) == 0
    assert tree(p1) == tree(p2), "power rerun differs"
    assert cli_main(["replay", str(p1 / "manifest.json"), "--out", str(p3)]) == 0
    assert tree(p1) == tree(p3), "power replay differs"

    # sweep: bundled spec scaled down, rerun and manifest replay
    spec_payload = _resolve_sweep_spec("semantic-rate")
    spec_payload["n_realizations"] = 8
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_payload), encoding="utf-8")
    s1, s2, s3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    argv = ["sweep", "--spec", str(spec_path)]
    assert cli_main(argv + ["--out", str(s1)]) == 0
    assert cli_main(argv + ["--out", str(s2)]) == 0
    assert tree(s1) == tree(s2), "sweep rerun differs"
    assert cli_main(["replay", str(s1 / "manifest.json"), "--out", str(s3)]) == 0
    assert tree(s1) == tree(s3), "sweep replay differs"

    n_files = len(tree(r1)) + len(tree(p1)) + len(tree(s1))
    print(
        f"PASS criterion 9: region, power, and sweep outputs byte-identical "
        f"across reruns and manifest replays ({n_files} files compared)"
    )
