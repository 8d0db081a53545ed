import argparse
import collections
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sembit import (
    ParamTable,
    PowerSolution,
    Scenario,
    Scheme,
    TargetUnreachable,
    cli,
    eval_similarity,
    oma_extremes,
    sample_realization,
)
from sembit.cli import main

REPO = Path(__file__).resolve().parents[1]
# One parameter table entry, valid as it stands.
ENTRY = {"k": 4, "a_low": 0.1, "a_high": 0.9, "growth": 0.5, "offset": 0.0}


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    # Manifests stamp a time; pin it so replay comparisons are byte-exact.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755734400")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree_bytes(root):
    return {p.name: read_bytes(p) for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    Scenario().dump(path)
    return path


class TestFitCommand:
    def test_fit_recovers_curve(self, tmp_path, table):
        truth = table[4]
        snrs = np.linspace(-15.0, 25.0, 41)
        sims = eval_similarity(truth, snrs)
        csv_path = tmp_path / "samples.csv"
        lines = ["k,snr_db,similarity"]
        lines += [f"4,{float(x)!r},{float(y)!r}" for x, y in zip(snrs, sims)]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        out = tmp_path / "fit"
        assert main(["fit", "--input", str(csv_path), "--out", str(out)]) == 0
        fitted = ParamTable.load(out / "params.json")[4]
        assert fitted.a_low == pytest.approx(truth.a_low, abs=1e-3)
        assert fitted.a_high == pytest.approx(truth.a_high, abs=1e-3)
        assert fitted.growth == pytest.approx(truth.growth, abs=1e-3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"

    def test_missing_input_is_bad_input(self, tmp_path):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_positive_k_is_bad_input_with_its_line(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        rows = [f"4,{x!r},{0.2 + 0.05 * x!r}" for x in range(10)] + ["0,1.0,0.5"]
        csv_path.write_text("k,snr_db,similarity\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(csv_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{csv_path}:12: k must be a positive integer, got 0" in captured.err
        assert captured.out == "" and not out.exists()

    def test_bad_group_stops_the_fit_before_any_curve(self, tmp_path, capsys):
        # Every group is checked first, so the good k=3 curve prints no line.
        csv_path = tmp_path / "samples.csv"
        rows = [f"3,{x!r},{0.2 + 0.05 * x!r}" for x in range(10)] + ["5,0.0,0.4", "5,1.0,0.5"]
        csv_path.write_text("k,snr_db,similarity\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(csv_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "need at least 4 samples, got 2" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "bad_rows, message",
        [
            (["5,0.0,0.4", "5,1.0,0.5"], "k=5: need at least 4 samples, got 2"),
            (
                ["5,0.0,0.4", "5,0.0,0.5", "5,1.0,0.6", "5,1.0,0.7", "5,2.0,0.8"],
                "k=5: need at least 4 distinct SNR points, got 3",
            ),
            ([f"5,{x}.0,0.5" for x in range(6)], "k=5: all similarity samples are equal"),
        ],
        ids=["samples", "distinct-snr", "constant-similarity"],
    )
    def test_fit_input_errors_name_their_curve(self, tmp_path, capsys, bad_rows, message):
        csv_path = tmp_path / "samples.csv"
        rows = [f"3,{x!r},{0.2 + 0.05 * x!r}" for x in range(10)] + bad_rows
        csv_path.write_text("k,snr_db,similarity\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(csv_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_csv_is_bad_input(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,snr,sim\n4,0,0.5\n", encoding="utf-8")
        assert main(["fit", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestRegionCommand:
    def region_args(self, out, **over):
        args = {"seed": "7", "points": "12", "grid": "64"}
        args.update({k: str(v) for k, v in over.items()})
        argv = ["region", "--out", str(out)]
        for key, val in args.items():
            argv += [f"--{key}", val]
        return argv

    def test_full_run_writes_everything(self, tmp_path):
        out = tmp_path / "region"
        assert main(self.region_args(out)) == 0
        for name in ("oma.csv", "noma.csv", "semi.csv", "containment.json", "manifest.json"):
            assert (out / name).exists()
        verdicts = json.loads((out / "containment.json").read_text())
        assert verdicts["semi_covers_oma"]["contained"] is True
        assert verdicts["semi_covers_noma"]["contained"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "region"
        assert len(manifest["scenario_sha256"]) == 64

    def test_one_point_pure_schemes_do_not_overlap(self, tmp_path):
        # At one point per boundary, oma's row is its bit intercept at sigma
        # 0 and noma's sits at its sigma floor, 200,000: the two pure
        # boundaries share no sigma, so their containment entries are errors.
        out = tmp_path / "region"
        assert main(self.region_args(out, points=1)) == 0
        verdicts = json.loads((out / "containment.json").read_text())
        assert verdicts["noma_covers_oma"] == {
            "error": "no overlap: inner sigma in [0, 0], outer in [200000, 200000]"
        }
        assert verdicts["oma_covers_noma"] == {
            "error": "no overlap: inner sigma in [200000, 200000], outer in [0, 0]"
        }
        for name in ("semi_covers_oma", "semi_covers_noma"):
            assert set(verdicts[name]) == {"checked", "contained", "max_violation", "witness_sigma"}
        _, oma = (out / "oma.csv").read_text().split()
        _, noma = (out / "noma.csv").read_text().split()
        assert float(oma.split(",")[0]) == 0.0
        assert float(noma.split(",")[0]) == pytest.approx(200e3, rel=1e-12)

    def test_mutual_non_containment_of_pure_schemes(self, tmp_path):
        # The baseline draw is power-sufficient: each pure scheme reaches
        # points the other cannot, in both directions.
        out = tmp_path / "region"
        main(self.region_args(out))
        verdicts = json.loads((out / "containment.json").read_text())
        assert verdicts["noma_covers_oma"]["contained"] is False
        assert verdicts["oma_covers_noma"]["contained"] is False
        assert verdicts["noma_covers_oma"]["witness_sigma"] is not None

    def test_scheme_subset(self, tmp_path):
        out = tmp_path / "region"
        assert main(self.region_args(out, schemes="oma")) == 0
        assert (out / "oma.csv").exists()
        assert not (out / "noma.csv").exists()
        assert not (out / "containment.json").exists()

    def test_bad_scheme_name(self, tmp_path):
        # An unknown name, or a list that names no scheme at all.
        for i, schemes in enumerate(["oma,bogus", ",", " , "]):
            out = tmp_path / f"r{i}"
            assert main(self.region_args(out, schemes=schemes)) == 2
            assert not out.exists()

    def test_unreachable_floor_empties_overlay(self, tmp_path, scenario_file):
        hopeless = Scenario().with_updates(min_similarity=0.93)
        hopeless.dump(scenario_file)
        out = tmp_path / "region"
        code = main(self.region_args(out, scenario=scenario_file))
        assert code == 3
        assert (out / "oma.csv").exists()
        assert (out / "semi.csv").exists()
        assert not (out / "noma.csv").exists()

    def test_floor_above_the_ceiling_leaves_only_the_bit_intercept(self, tmp_path, scenario_file):
        # No band reaches the floor, so sigma_max is 0 and every oma and semi
        # row is the bit intercept: the full band and budget on the bit stream.
        hopeless = Scenario().with_updates(min_similarity=0.95)
        hopeless.dump(scenario_file)
        out = tmp_path / "region"
        assert main(self.region_args(out, scenario=scenario_file)) == 3
        r_max = oma_extremes(hopeless, sample_realization(hopeless, 7)).r_max
        for name in ("oma.csv", "semi.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "sigma,bit_rate,similarity"
            assert lines[1:] == [f"0.0,{r_max!r},0.0"] * 12

    @pytest.mark.parametrize("grid", [0, 1, -4])
    @pytest.mark.parametrize("schemes", ["all", "noma"])
    def test_grid_below_two_is_bad_input(self, tmp_path, capsys, grid, schemes):
        out = tmp_path / "region"
        assert main(self.region_args(out, seed=1, grid=grid, schemes=schemes)) == 2
        assert "grid_n must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", [0, -3])
    def test_points_below_one_is_bad_input(self, tmp_path, capsys, points):
        out = tmp_path / "region"
        assert main(self.region_args(out, seed=1, points=points)) == 2
        assert "n_points must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scenario_json(self, tmp_path):
        bad = tmp_path / "scn.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(self.region_args(tmp_path / "r", scenario=bad)) == 2

    def test_unexpected_solver_error_is_internal(self, tmp_path, capsys, monkeypatch):
        # A package error that no command maps to an exit code of its own
        # exits 1 with one line, not a traceback.
        def unreachable(*args):
            raise TargetUnreachable("probe")

        monkeypatch.setattr(cli, "trace_region", unreachable)
        assert main(self.region_args(tmp_path / "region")) == 1
        captured = capsys.readouterr()
        assert captured.err == "internal error: probe\n"
        assert "Traceback" not in captured.out + captured.err


class TestPowerCommand:
    def power_args(self, sigma=100e3, floor=0.8, bits=8e5, out=None, extra=()):
        argv = [
            "power",
            "--seed",
            "7",
            "--sigma",
            str(sigma),
            "--floor",
            str(floor),
            "--bits",
            str(bits),
            "--grid",
            "128",
        ]
        if out is not None:
            argv += ["--out", str(out)]
        argv += list(extra)
        return argv

    def test_stdout_mode(self, capsys):
        assert main(self.power_args()) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["schemes"]) == {"oma", "noma", "semi"}
        semi = report["schemes"]["semi"]
        assert semi["feasible"] is True
        assert semi["min_power_w"] <= report["schemes"]["oma"]["min_power_w"]
        assert semi["min_power_w"] <= report["schemes"]["noma"]["min_power_w"]

    def test_out_dir_with_verification(self, tmp_path):
        out = tmp_path / "power"
        assert main(self.power_args(out=out, extra=["--verify"])) == 0
        report = json.loads((out / "power.json").read_text())
        for entry in report["schemes"].values():
            assert entry["verified"] is True
        rows = (out / "power.csv").read_text().strip().split("\n")
        assert rows[0] == "sigma_target,min_similarity,bit_target,scheme,min_power_w"
        assert len(rows) == 4

    @pytest.mark.parametrize(
        "cut, message",
        [
            # Half the bit power it needs: the bit rate falls short.
            (
                lambda a: replace(a, p_bit_orth=a.p_bit_orth / 2),
                r"bit rate [0-9.e+]+ < target 800000\n",
            ),
            # Half the semantic band, the rest moved to the bit band so the
            # bands still fill the carrier: the semantic rate falls short.
            (
                lambda a: replace(a, w_sem=a.w_sem / 2, w_bit=a.w_bit + a.w_sem / 2),
                r"semantic rate [0-9.e+]+ < target 100000\n",
            ),
            # A tenth of the semantic power: the similarity falls below
            # the floor, and with it the semantic rate.
            (
                lambda a: replace(a, p_sem=a.p_sem / 10),
                r"semantic rate [0-9.e+]+ < target 100000\n"
                r"verification failed: oma: similarity [0-9.e+]+ < floor 0\.8\n",
            ),
        ],
        ids=["bit-power", "semantic-band", "semantic-power"],
    )
    def test_failed_verification_exits_1(self, tmp_path, capsys, monkeypatch, cut, message):
        # An oma allocation cut short: still feasible, but it misses a
        # target when plugged back.
        solve = cli.solve_min_powers

        def short(scenario, real, targets, grid_n):
            solutions = solve(scenario, real, targets, grid_n)
            alloc = cut(solutions[Scheme.OMA].alloc)
            return {**solutions, Scheme.OMA: PowerSolution(alloc.total_power, alloc)}

        monkeypatch.setattr(cli, "solve_min_powers", short)
        out = tmp_path / "power"
        assert main(self.power_args(out=out, extra=["--verify"])) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"verification failed: oma: {message}", err)
        report = json.loads((out / "power.json").read_text())
        oma = report["schemes"]["oma"]
        assert oma["feasible"] is True and oma["verified"] is False
        assert "".join(f"verification failed: oma: {v}\n" for v in oma["violations"]) == err
        for name in ("noma", "semi"):
            assert report["schemes"][name]["verified"] is True
            assert "violations" not in report["schemes"][name]

    def test_all_infeasible_exits_4(self, tmp_path, capsys):
        assert main(self.power_args(sigma=260e3)) == 4
        report = json.loads(capsys.readouterr().out)
        for entry in report["schemes"].values():
            assert entry["feasible"] is False
            assert entry["cause"] == "bandwidth-bound"

    def test_partial_feasibility_exits_0(self, capsys):
        # A floor above the curve ceiling kills the overlay (and any split
        # carrying a semantic stream) but a zero semantic target keeps the
        # orthogonal and hybrid bit-only corners alive.
        assert main(self.power_args(sigma=0.0, floor=0.93)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schemes"]["oma"]["feasible"] is True
        assert report["schemes"]["noma"]["feasible"] is False
        assert report["schemes"]["noma"]["cause"] == "similarity-asymptote"

    @pytest.mark.parametrize("grid", ["0", "1", "-4"])
    def test_grid_below_two_is_bad_input(self, tmp_path, capsys, grid):
        out = tmp_path / "power"
        assert main(self.power_args(out=out, extra=["--grid", grid])) == 2
        assert "grid_n must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenario_file(self, tmp_path):
        argv = self.power_args() + ["--scenario", str(tmp_path / "none.json")]
        assert main(argv) == 2

    def test_infeasible_oma_keeps_other_schemes(self, tmp_path):
        # The orthogonal split leaves no finite-power bit band here, while
        # the overlay and hybrid still meet the targets.
        out = tmp_path / "power"
        argv = [
            "power", "--seed", "0", "--sigma", "229400", "--floor", "0.6",
            "--bits", "1.8e6", "--verify", "--out", str(out),
        ]
        assert main(argv) == 0
        schemes = json.loads((out / "power.json").read_text())["schemes"]
        assert schemes["oma"]["feasible"] is False
        assert schemes["oma"]["cause"] == "bandwidth-bound"
        assert schemes["noma"]["verified"] is True
        assert schemes["semi"]["verified"] is True

    @pytest.mark.parametrize("seed, code", [(4, 0), (508, 4)])
    def test_overflowing_noma_bit_power_is_infeasible(self, tmp_path, seed, code):
        # On these draws the overlay's bit power overflows to inf: noma is
        # infeasible, and the split schemes survive on draw 4 only.
        out = tmp_path / "power"
        argv = [
            "power", "--seed", str(seed), "--sigma", "0", "--floor", "0.8",
            "--bits", "1.024e9", "--verify", "--out", str(out),
        ]
        assert main(argv) == code
        schemes = json.loads((out / "power.json").read_text())["schemes"]
        assert schemes["noma"]["feasible"] is False
        assert schemes["noma"]["cause"] == "bandwidth-bound"
        assert schemes["noma"]["message"] == (
            "bit rate 1.024e+09 needs infinite power on the full 1e+06 Hz band "
            "shared with the semantic stream"
        )
        for name in ("oma", "semi"):
            assert schemes[name]["feasible"] is (code == 0)

    @pytest.mark.parametrize(
        "targets, scenario_json",
        [
            ({"sigma": "nan"}, None),
            ({"bits": "inf"}, None),
            ({}, '{"total_bandwidth": NaN}'),
            ({}, '{"max_power": Infinity}'),
            ({}, '{"params": {"entries": [{"k": 4, "a_low": 0.1, "a_high": 0.9, '
                 '"growth": NaN, "offset": 0.0}]}}'),
        ],
    )
    def test_non_finite_input_is_bad_input(self, tmp_path, targets, scenario_json):
        argv = self.power_args(**targets)
        if scenario_json is not None:
            path = tmp_path / "scenario.json"
            path.write_text(scenario_json, encoding="utf-8")
            argv += ["--scenario", str(path)]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "scenario_json, message",
        [
            ('{"k": 4.7}', "k must be an integer, got 4.7"),
            ('{"k": true}', "k must be an integer, got True"),
            ('{"params": {"entries": [{"k": 4.9, "a_low": 0.1, "a_high": 0.9, '
             '"growth": 0.5, "offset": 0.0}]}}', "k must be an integer, got 4.9"),
        ],
        ids=["scenario-k-fraction", "scenario-k-bool", "params-k-fraction"],
    )
    def test_non_integer_k_is_bad_input(self, tmp_path, capsys, scenario_json, message):
        path = tmp_path / "scenario.json"
        path.write_text(scenario_json, encoding="utf-8")
        out = tmp_path / "power"
        assert main(self.power_args(out=out, extra=["--scenario", str(path)])) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "params, message",
        [
            ({"entries": [dict(ENTRY, typo=1)]}, "unknown parameter table entry fields: ['typo']"),
            ({"entries": [ENTRY], "extra_top": 1}, "unknown parameter table fields: ['extra_top']"),
            ({"entries": "abc"}, "with an \"entries\" list, got {'entries': 'abc'}"),
            ({"entries": [1, 2]}, "parameter table entry must be an object, got 1"),
        ],
        ids=["entry-key", "top-key", "entries-string", "entries-numbers"],
    )
    def test_bad_param_table_is_bad_input(self, tmp_path, capsys, params, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"params": params}), encoding="utf-8")
        out = tmp_path / "power"
        assert main(self.power_args(out=out, extra=["--scenario", str(path)])) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(ENTRY))
    def test_param_table_entry_missing_a_key_is_bad_input(self, tmp_path, capsys, key):
        entry = {k: v for k, v in ENTRY.items() if k != key}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"params": {"entries": [entry]}}), encoding="utf-8")
        out = tmp_path / "power"
        assert main(self.power_args(out=out, extra=["--scenario", str(path)])) == 2
        assert f"error: parameter table entry is missing {key!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, document, message",
    [
        ("power", {"max_power": None}, "max_power must be a number, got None"),
        ("power", {"d_s": [20]}, "d_s must be a number, got [20]"),
        ("power", {"params": {"entries": [dict(ENTRY, offset=None)]}}, "offset must be a number"),
        ("sweep", {"values": [2e5, None]}, "sweep value must be a number, got None"),
        ("sweep", {"targets": {"sigma_target": None}}, "sigma_target must be a number, got None"),
        ("power", {"max_power": True}, "max_power must be a number, got True"),
        ("power", {"max_power": "2"}, "max_power must be a number, got '2'"),
        ("power", {"params": {"entries": [dict(ENTRY, growth=True)]}},
         "growth must be a number, got True"),
        ("power", {"params": {"entries": [dict(ENTRY, a_high="0.9")]}},
         "a_high must be a number, got '0.9'"),
        ("sweep", {"values": [2e5, True]}, "sweep value must be a number, got True"),
        ("sweep", {"targets": {"bit_target": "8e5"}}, "bit_target must be a number, got '8e5'"),
        ("power", {"units": "dBm", "max_power": 4000}, "max_power of 4000.0 dBm overflows"),
        ("region", {"units": "dBm", "max_power": 4000}, "max_power of 4000.0 dBm overflows"),
        ("power", {"max_power": 10**400}, "max_power is too large for a float: 401 digits"),
        ("region", {"max_power": 10**400}, "max_power is too large for a float: 401 digits"),
    ],
    ids=[
        "max-power-null", "d-s-list", "offset-null", "sweep-value-null", "sigma-target-null",
        "max-power-bool", "max-power-string", "growth-bool", "a-high-string", "sweep-value-bool",
        "bit-target-string", "power-dbm-overflow", "region-dbm-overflow", "power-huge-integer",
        "region-huge-integer",
    ],
)
def test_null_or_list_for_a_number_is_bad_input(tmp_path, capsys, command, document, message):
    """A JSON null, list, bool or string where a number belongs exits 2, as does one too large.

    The field may sit in a scenario, its parameter table or a sweep spec.
    """
    path = tmp_path / "input.json"
    out = tmp_path / "out"
    if command == "power":
        argv = ["power", "--scenario", str(path), "--sigma", "1e5", "--floor", "0.8", "--bits", "8e5"]
    elif command == "region":
        argv = ["region", "--scenario", str(path)]
    else:
        document = {
            "scenario": {},
            "variable": "sigma_target",
            "values": [1e5],
            "n_realizations": 2,
            **document,
        }
        argv = ["sweep", "--spec", str(path)]
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main([*argv, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


class TestParserReuse:
    """One parser serves every call of ``main`` in a process."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "before, code",
        [
            ([], None),
            (["power", "--sigma", "1", "--floor", "0.8", "--bits", "1", "--no-such-flag"], 2),
            (["--version"], 0),
        ],
        ids=["first", "after-rejected-flag", "after-version"],
    )
    def test_power_output_is_unchanged_by_earlier_calls(self, tmp_path, capsys, before, code):
        argv = TestPowerCommand().power_args(extra=["--verify"])
        expected = tmp_path / "expected"
        assert main([*argv, "--out", str(expected)]) == 0
        if before:
            with pytest.raises(SystemExit) as exc:
                main(before)
            assert exc.value.code == code
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert tree_bytes(out) == tree_bytes(expected)


def parse_outcome(parse, argv, capsys):
    """The namespace's fields or the exit code of ``parse(argv)``, with what it printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


# Values for generated argvs by type, and values the table leaves to argparse.
GOOD_VALUES = {
    int: ["0", "7", " 5", "+3", "1_000"],
    float: ["1e3", "0.8", "nan", "inf", "1_0.5"],
    str: ["o", "a=b", "power", "x y", "semantic-rate"],
}
BAD_VALUES = ["", "-", "-1e3", "--out", "x"]


@st.composite
def table_argvs(draw):
    """An argv of one subcommand's own arguments in any order: mostly plain, some repeats and bad values."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    arguments = cli._COMMANDS[command][1]
    names = draw(st.lists(st.sampled_from(sorted(arguments)), unique=True))
    names += [n for n, kw in arguments.items() if kw.get("required", not n.startswith("-"))]
    names = draw(st.permutations(list(dict.fromkeys(names))))
    names += draw(st.lists(st.sampled_from(sorted(arguments)), max_size=1))
    argv = [command]
    for name in names:
        keywords = arguments[name]
        value = draw(st.sampled_from(GOOD_VALUES[keywords.get("type", str)] * 3 + BAD_VALUES))
        if not name.startswith("-"):
            argv.append(value)
        elif keywords.get("action") == "store_true":
            argv.append(draw(st.sampled_from([name] * 3 + [name + "=1"])))
        else:
            argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    return argv


def spelled(ns) -> list:
    """A namespace's fields as sorted (name, repr) pairs: a NaN equals a NaN, 5 differs from 5.0."""
    return sorted((name, repr(value)) for name, value in vars(ns).items())


class TestParseOnce:
    """``cli._parse`` gives what ``parse_args`` of the top level gives; the option table decides plain argvs alone."""

    ARGVS = [
        [],
        ["--version"],
        ["--vers"],
        ["-h"],
        ["pow"],
        ["--version", "power"],
        ["power", "-h"],
        ["power", "--bogus"],
        ["power", "--version"],
        ["power", "--sigma", "1e3"],
        ["power", "--sig", "1e3", "--floor", "0.8", "--bits", "1e6"],
        ["power", "--sigma", "1e3", "--floor", "0.8", "--bits", "1e6", "stray"],
        ["power", "--sigma", "-1e3", "--floor", "0.8", "--bits", "1e6", "--verify", "--seed", "x"],
        ["power", "--sigma", "1e3", "--floor", "0.8", "--bits", "1e6", "--verify=yes"],
        ["region", "--grid"],
        ["region", "--out", "o", "--", "x"],
        ["fit", "--input"],
        ["sweep", "--spec", "semantic-rate", "--out", "o", "--realizations", "many"],
        ["replay"],
        ["replay", "manifest.json", "--out", "o", "--out", "p"],
    ]
    # Argvs the option table decides without argparse.
    DECIDED = [
        TestPowerCommand().power_args(out="o", extra=["--verify"]),
        ["power", "--sigma=1e3", "--bits", "nan", "--floor=0.8", "--seed= 5", "--out=a=b"],
        ["region", "--out", "o", "--schemes", "oma,semi", "--grid", "16", "--points=12"],
        ["fit", "--input", "samples.csv", "--out", "o"],
        ["sweep", "--spec", "semantic-rate", "--out", "o", "--realizations", "4"],
        ["replay", "--out", "o", "manifest.json"],
        ["replay", "manifest.json"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) or "empty" for argv in ARGVS])
    def test_same_namespace_output_and_exit_code(self, capsys, argv):
        parser = cli._build_parser()
        assert parse_outcome(cli._parse, argv, capsys) == parse_outcome(parser.parse_args, argv, capsys)

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) or "empty" for argv in ARGVS])
    def test_odd_argvs_reach_argparse(self, argv):
        assert cli._table_parse(argv) is None

    @staticmethod
    def counted_parses(monkeypatch) -> list:
        """The prog of each parser that runs ``parse_known_args`` from now on, in order."""
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        return calls

    @pytest.mark.parametrize("argv", DECIDED, ids=[" ".join(argv) for argv in DECIDED])
    def test_the_table_decides_plain_argvs_alone(self, monkeypatch, argv):
        parser = cli._build_parser()
        expect = spelled(parser.parse_args(argv))
        calls = self.counted_parses(monkeypatch)
        assert (spelled(cli._parse(argv)), calls) == (expect, [])

    @settings(max_examples=400, deadline=None)
    @given(table_argvs())
    def test_every_argv_parses_as_argparse_parses_it(self, argv):
        parser = cli._build_parser()

        def outcome(parse):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = spelled(parse(argv))
                except SystemExit as exc:
                    result = exc.code
            return result, out.getvalue(), err.getvalue()

        assert outcome(cli._parse) == outcome(parser.parse_args)


class TestSweepCommand:
    def write_spec(self, tmp_path, scenario):
        spec = {
            "scenario": scenario.to_dict(),
            "variable": "sigma_target",
            "values": [0.0, 100e3],
            "targets": {"sigma_target": 0.0, "min_similarity": 0.8, "bit_target": 8e5},
            "n_realizations": 4,
            "base_seed": 3,
            "grid_n": 64,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_custom_spec_runs(self, tmp_path, scenario):
        path = self.write_spec(tmp_path, scenario)
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 3

    def test_bundled_spec_with_overrides(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--spec", "semantic-rate", "--realizations", "2", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 9 * 3  # 9 swept values, 3 schemes each
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"]["spec"]["n_realizations"] == 2

    def test_unknown_spec_path(self, tmp_path):
        code = main(["sweep", "--spec", str(tmp_path / "no.json"), "--out", str(tmp_path / "s")])
        assert code == 2

    @pytest.mark.parametrize("in_targets, key", [(False, "n_realisations"), (True, "bits")])
    def test_unknown_spec_key_is_bad_input(self, tmp_path, capsys, scenario, in_targets, key):
        path = self.write_spec(tmp_path, scenario)
        spec = json.loads(path.read_text(encoding="utf-8"))
        (spec["targets"] if in_targets else spec)[key] = 4
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["scenario", "variable", "values"])
    def test_spec_missing_a_required_key_is_bad_input(self, tmp_path, capsys, scenario, key):
        path = self.write_spec(tmp_path, scenario)
        spec = json.loads(path.read_text(encoding="utf-8"))
        del spec[key]
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        assert f"error: sweep spec is missing {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("values", 5, "sweep values must be a list of numbers, got 5"),
            ("targets", 3, "sweep targets must be an object, got 3"),
            ("scenario", [1], "scenario must be an object, got [1]"),
        ],
    )
    def test_wrongly_typed_spec_field_is_bad_input(
        self, tmp_path, capsys, scenario, key, value, message
    ):
        path = self.write_spec(tmp_path, scenario)
        spec = json.loads(path.read_text(encoding="utf-8"))
        spec[key] = value
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n_realizations": 2.5}, "n_realizations must be an integer, got 2.5"),
            ({"n_realizations": True}, "n_realizations must be an integer, got True"),
            ({"base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
            ({"grid_n": 512.7}, "grid_n must be an integer, got 512.7"),
            ({"variable": "k", "values": [4, 4.5]}, "k sweep value must be an integer, got 4.5"),
        ],
        ids=["realizations-fraction", "realizations-bool", "seed", "grid", "k-value"],
    )
    def test_non_integer_spec_field_is_bad_input(
        self, tmp_path, capsys, scenario, changes, message
    ):
        path = self.write_spec(tmp_path, scenario)
        spec = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**spec, **changes}), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("sigma_target", math.nan),
            ("bit_target", math.inf),
            ("min_similarity", 1.5),
            ("sigma_target", -1.0),
            ("k", 99),
        ],
    )
    def test_bad_sweep_value_is_bad_input(self, tmp_path, scenario, variable, value):
        # Both from a spec file and from a manifest to replay.
        path = self.write_spec(tmp_path, scenario)
        spec = dict(json.loads(path.read_text(encoding="utf-8")), variable=variable, values=[value])
        path.write_text(json.dumps(spec), encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "sweep", "args": {"spec": spec}}), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        assert main(["replay", str(manifest), "--out", str(out)]) == 2
        assert not out.exists()

    def test_integral_floats_stay_valid(self, tmp_path, scenario):
        path = self.write_spec(tmp_path, scenario)
        spec = json.loads(path.read_text(encoding="utf-8"))
        spec.update(n_realizations=2.0, base_seed=3.0, grid_n=64.0, variable="k", values=[4.0])
        spec["scenario"]["k"] = 4.0
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["args"]["spec"]
        counts = (resolved["n_realizations"], resolved["base_seed"], resolved["grid_n"])
        assert counts == (2, 3, 64)
        assert resolved["scenario"]["k"] == 4

    @pytest.mark.parametrize("payload", [[], [{}]])
    @pytest.mark.parametrize("override", [[], ["--realizations", "2"]])
    def test_spec_that_is_not_an_object_is_bad_input(self, tmp_path, capsys, payload, override):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(path), *override, "--out", str(out)]) == 2
        assert f"error: sweep spec must be an object, got {payload!r}" in capsys.readouterr().err
        assert not out.exists()


class TestReplay:
    @pytest.mark.parametrize("command", ["power", "region", "sweep"])
    def test_manifest_is_json_dumps_of_its_payload(self, tmp_path, scenario, command):
        # The parameter table's text is cached and spliced in; the file must
        # still read as json.dumps renders what it holds.
        out = tmp_path / command
        argv = {
            "power": TestPowerCommand().power_args(),
            "region": ["region", "--seed", "7", "--points", "4"],
            "sweep": ["sweep", "--spec", str(TestSweepCommand().write_spec(tmp_path, scenario))],
        }[command]
        assert main([*argv, "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("field, value", [("a_high", 1), ("k", 3.0)])
    def test_replay_keeps_a_hand_written_table_as_written(self, tmp_path, field, value):
        # 1 for 1.0 and 3.0 for 3 read as the same table, but render otherwise.
        first = tmp_path / "a"
        assert main([*TestPowerCommand().power_args(), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
        entry = manifest["args"]["scenario"]["params"]["entries"][0]
        assert entry["k"] == 3
        entry[field] = value
        (first / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        second = tmp_path / "b"
        assert main(["replay", str(first / "manifest.json"), "--out", str(second)]) == 0
        text = (second / "manifest.json").read_text(encoding="utf-8")
        assert json.loads(text)["args"] == manifest["args"]
        assert f'"{field}": {value!r},' in text

    def test_region_replay_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        argv = ["region", "--seed", "7", "--points", "10", "--grid", "64", "--out", str(out1)]
        assert main(argv) == 0
        out2 = tmp_path / "b"
        assert main(["replay", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_sweep_replay_is_byte_identical(self, tmp_path, scenario):
        spec = TestSweepCommand().write_spec(tmp_path, scenario)
        out1 = tmp_path / "a"
        assert main(["sweep", "--spec", str(spec), "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        assert main(["replay", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_power_replay_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        argv = [
            "power", "--seed", "7", "--sigma", "100e3", "--floor", "0.8",
            "--bits", "8e5", "--grid", "128", "--out", str(out1),
        ]
        assert main(argv) == 0
        out2 = tmp_path / "b"
        assert main(["replay", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    @pytest.mark.parametrize("command", ["region", "power"])
    def test_replay_with_own_table_is_byte_identical(self, tmp_path, command):
        payload = Scenario().to_dict()
        payload["params"]["entries"][1]["offset"] -= 0.25
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out1 = tmp_path / "a"
        args = ["--sigma", "100e3", "--floor", "0.8", "--bits", "8e5", "--verify"]
        argv = [command, "--scenario", str(path), "--seed", "7", "--grid", "64", "--out", str(out1)]
        assert main(argv + (["--points", "10"] if command == "region" else args)) == 0
        manifest = json.loads(read_bytes(out1 / "manifest.json"))
        assert manifest["args"]["scenario"]["params"] == payload["params"]
        out2 = tmp_path / "b"
        assert main(["replay", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_fit_rerun_and_replay_are_byte_identical(self, tmp_path, table):
        rng = np.random.default_rng(5)
        snrs = rng.uniform(-10.0, 25.0, 30)
        sims = np.clip(eval_similarity(table[4], snrs) + rng.normal(0.0, 0.02, 30), 0.0, 1.0)
        csv_path = tmp_path / "samples.csv"
        rows = [f"4,{x!r},{y!r}" for x, y in zip(snrs.tolist(), sims.tolist())]
        csv_path.write_text("\n".join(["k,snr_db,similarity", *rows]) + "\n", encoding="utf-8")
        outs = [tmp_path / name for name in ("a", "b", "c")]
        assert main(["fit", "--input", str(csv_path), "--out", str(outs[0])]) == 0
        assert main(["fit", "--input", str(csv_path), "--out", str(outs[1])]) == 0
        assert main(["replay", str(outs[0] / "manifest.json"), "--out", str(outs[2])]) == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1]) == tree_bytes(outs[2])

    def test_replay_needs_out_for_region(self, tmp_path):
        out1 = tmp_path / "a"
        main(["region", "--seed", "7", "--points", "5", "--grid", "64", "--out", str(out1)])
        assert main(["replay", str(out1 / "manifest.json")]) == 2

    def test_replay_with_no_scheme_is_bad_input(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        assert main(["region", "--seed", "7", "--points", "5", "--out", str(out1)]) == 0
        manifest = json.loads(read_bytes(out1 / "manifest.json"))
        manifest["args"]["schemes"] = []
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        out2 = tmp_path / "b"
        assert main(["replay", str(path), "--out", str(out2)]) == 2
        assert "the scheme set is empty" in capsys.readouterr().err
        assert not out2.exists()

    def test_replay_rejects_non_manifest(self, tmp_path):
        stray = tmp_path / "stray.json"
        stray.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        assert main(["replay", str(stray), "--out", str(tmp_path / "o")]) == 2


# Manifest args that replay as they stand, for the malformed cases to edit.
POWER_ARGS = {"scenario": {}, "seed": 7, "sigma": 1e5, "floor": 0.8, "bits": 8e5, "grid": 64,
              "verify": False}
REGION_ARGS = {"scenario": {}, "seed": 7, "points": 5, "grid": 64, "schemes": ["oma"]}


def manifest_of(command, base, **change):
    return {"command": command, "args": {**base, **change}}


@pytest.mark.parametrize(
    "document, message",
    [
        (["power", POWER_ARGS], "not a sembit manifest"),
        (manifest_of("power", POWER_ARGS, grid="64"), "grid must be an integer, got '64'"),
        (manifest_of("power", POWER_ARGS, sigma="1e5"), "sigma must be a number, got '1e5'"),
        (manifest_of("power", POWER_ARGS, sigma=None), "sigma must be a number, got None"),
        (manifest_of("power", POWER_ARGS, seed=5.5), "seed must be an integer, got 5.5"),
        (manifest_of("power", POWER_ARGS, seed="5"), "seed must be an integer, got '5'"),
        (manifest_of("power", POWER_ARGS, verify="no"), "verify must be true or false, got 'no'"),
        (manifest_of("power", POWER_ARGS, bogus=1), "unknown power args fields: ['bogus']"),
        ({"command": "power", "args": {k: v for k, v in POWER_ARGS.items() if k != "floor"}},
         "power args is missing 'floor'"),
        (manifest_of("power", POWER_ARGS, scenario=[]), "scenario must be an object, got []"),
        (manifest_of("region", REGION_ARGS, points=5.5), "points must be an integer, got 5.5"),
        (manifest_of("region", REGION_ARGS, schemes="oma"),
         "schemes must be a list of scheme names, got 'oma'"),
        (manifest_of("region", REGION_ARGS, schemes=["oma", 5]),
         "schemes must be a list of scheme names, got ['oma', 5]"),
        (manifest_of("region", REGION_ARGS, schemes=["bogus"]), "'bogus' is not a valid Scheme"),
        ({"command": "fit", "args": {"input": 0}}, "input must be a string, got 0"),
        ({"command": "fit", "args": {"input": ["a"]}}, "input must be a string, got ['a']"),
        ({"command": "sweep", "args": {"spec": {}, "bogus": 1}},
         "unknown sweep args fields: ['bogus']"),
        ({"command": "bogus", "args": {}}, "manifest names unknown command 'bogus'"),
    ],
    ids=[
        "manifest-list", "grid-string", "sigma-string", "sigma-null", "seed-fraction",
        "seed-string", "verify-string", "unknown-key", "missing-key", "scenario-list",
        "points-fraction", "schemes-string", "schemes-number", "schemes-unknown", "input-number",
        "input-list", "sweep-unknown-key", "unknown-command",
    ],
)
def test_malformed_manifest_args_are_bad_input(tmp_path, capsys, document, message):
    """Each replayed arg is checked, and a bad one exits 2 before the output directory exists."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["replay", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("route", ["region", "sweep", "replay"])
def test_distance_below_the_reference_is_bad_input(tmp_path, capsys, route):
    """A link nearer than the path-loss model's 1 m reference exits 2 before any output."""
    if route == "region":
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"d_s": 0.5}), encoding="utf-8")
        argv = ["region", "--scenario", str(path)]
    elif route == "sweep":
        spec = json.loads((REPO / "src/sembit/data/sweep_semantic_rate.json").read_text())
        spec["scenario"]["d_s"] = 0.5
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["sweep", "--spec", str(path)]
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_of("region", REGION_ARGS, scenario={"d_s": 0.5})))
        argv = ["replay", str(path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: distance 0.5 m is below the 1 m reference\n"
    assert not out.exists()


@pytest.mark.parametrize("command, base", [("power", POWER_ARGS), ("region", REGION_ARGS)])
def test_integral_float_args_replay_as_integers_and_stay_as_written(tmp_path, command, base):
    outs = []
    for i, value in enumerate((7, 7.0)):
        path = tmp_path / f"manifest{i}.json"
        path.write_text(json.dumps(manifest_of(command, base, seed=value, grid=64.0)), "utf-8")
        outs.append(tmp_path / f"out{i}")
        assert main(["replay", str(path), "--out", str(outs[-1])]) == 0
    first, second = (tree_bytes(out) for out in outs)
    manifests = [json.loads(tree.pop("manifest.json")) for tree in (first, second)]
    assert first == second
    assert [m["args"]["seed"] for m in manifests] == [7, 7.0]
    assert [type(m["args"]["seed"]) for m in manifests] == [int, float]


@pytest.mark.parametrize("value", ["abc", "99999999999999999", "1.5"])
def test_bad_source_date_epoch_writes_nothing(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    out = tmp_path / "power"
    assert main(TestPowerCommand().power_args(out=out)) == 2
    err = capsys.readouterr().err
    assert "error: SOURCE_DATE_EPOCH must be whole seconds in range" in err
    assert repr(value) in err
    assert not out.exists()
    # A report to stdout records no time.
    assert main(TestPowerCommand().power_args()) == 0


class TestScenarioResolvedOnce:
    """A request builds its scenario once: no ``to_dict``/``from_dict`` round trip."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = collections.Counter()
        from_dict, to_dict = vars(Scenario)["from_dict"].__func__, Scenario.to_dict

        def counted_from_dict(cls, payload):
            calls["from_dict"] += 1
            return from_dict(cls, payload)

        def counted_to_dict(self):
            calls["to_dict"] += 1
            return to_dict(self)

        monkeypatch.setattr(Scenario, "from_dict", classmethod(counted_from_dict))
        monkeypatch.setattr(Scenario, "to_dict", counted_to_dict)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [["power", "--sigma", "150e3", "--floor", "0.8", "--bits", "1e6", "--verify"], ["region"]],
        ids=["power", "region"],
    )
    def test_default_request_and_its_replay(self, tmp_path, calls, argv):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(first)]) == 0
        assert calls == {}
        assert main(["replay", str(first / "manifest.json"), "--out", str(second)]) == 0
        assert calls == {"from_dict": 1}
        assert tree_bytes(first) == tree_bytes(second)


class TestEntryPoint:
    def test_cli_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test extra.
        code = (
            "import sys, sembit.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_run_loads_openssl(self):
        # hashlib maps OpenSSL into the process; the digest of a manifest
        # uses the interpreter's built-in SHA-256 instead.  A fresh
        # interpreter that sweeps, solves, traces, serves power with and
        # without --out, writes a region and hashes a scenario never
        # imports hashlib or _hashlib.
        code = (
            "import contextlib, io, sys, tempfile\n"
            "import sembit.cli\n"
            "from sembit import (PowerTargets, Scenario, SweepSpec, run_sweep,\n"
            "    sample_realization, solve_min_powers, trace_region)\n"
            "def loaded():\n"
            "    names = sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules)\n"
            "    print(names, file=sys.__stdout__)\n"
            "loaded()\n"
            "spec = sembit.cli._resolve_sweep_spec('semantic-rate')\n"
            "run_sweep(SweepSpec.from_dict(dict(spec, n_realizations=2)))\n"
            "scenario = Scenario()\n"
            "real = sample_realization(scenario, 7)\n"
            "solve_min_powers(scenario, real, PowerTargets(100e3, 0.8, 8e5), 64)\n"
            "trace_region(scenario, real, ['oma', 'noma', 'semi'], 12, 64)\n"
            "loaded()\n"
            "power = ['power', '--seed', '7', '--sigma', '1e5', '--floor', '0.8',\n"
            "    '--bits', '8e5', '--grid', '64']\n"
            "with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert sembit.cli.main(power) == 0\n"
            "    loaded()\n"
            "    assert sembit.cli.main(['region', '--out', tmp + '/region']) == 0\n"
            "    loaded()\n"
            "    assert sembit.cli.main(power + ['--verify', '--out', tmp + '/power']) == 0\n"
            "    loaded()\n"
            "scenario.digest()\n"
            "loaded()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["[]"] * 6 + [""]

    def test_console_script_installed(self):
        # The console script comes from the [project.scripts] declaration;
        # check it from the checkout, run it the way an installer's wrapper
        # does, and run the installed executable too wherever one is on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "sembit" in scripts, "pyproject.toml declares no 'sembit' console script"
        ep = EntryPoint(name="sembit", value=scripts["sembit"], group="console_scripts")
        assert ep.load() is main

        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"ep = EntryPoint(name='sembit', value={ep.value!r}, group='console_scripts')\n"
            "sys.exit(ep.load()())\n"
        )
        path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        runs = [([sys.executable, "-c", wrapper, "--version"], env)]
        exe = shutil.which("sembit")
        if exe is not None:
            runs.append(([exe, "--version"], None))
        for cmd, run_env in runs:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=run_env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("sembit ")
