import json
import shutil
import subprocess

import numpy as np
import pytest

from sembit import ParamTable, Scenario, eval_similarity
from sembit.cli import main


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
        assert main(self.region_args(tmp_path / "r", schemes="oma,bogus")) == 2

    def test_unreachable_floor_empties_overlay(self, tmp_path, scenario_file):
        hopeless = Scenario().with_updates(min_similarity=0.93)
        hopeless.dump(scenario_file)
        out = tmp_path / "region"
        code = main(self.region_args(out, scenario=scenario_file))
        assert code == 3
        assert (out / "oma.csv").exists()
        assert (out / "semi.csv").exists()
        assert not (out / "noma.csv").exists()

    def test_bad_scenario_json(self, tmp_path):
        bad = tmp_path / "scn.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(self.region_args(tmp_path / "r", scenario=bad)) == 2


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


class TestReplay:
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

    def test_replay_needs_out_for_region(self, tmp_path):
        out1 = tmp_path / "a"
        main(["region", "--seed", "7", "--points", "5", "--grid", "64", "--out", str(out1)])
        assert main(["replay", str(out1 / "manifest.json")]) == 2

    def test_replay_rejects_non_manifest(self, tmp_path):
        stray = tmp_path / "stray.json"
        stray.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        assert main(["replay", str(stray), "--out", str(tmp_path / "o")]) == 2


class TestEntryPoint:
    def test_console_script_installed(self):
        exe = shutil.which("sembit")
        assert exe is not None, "console script 'sembit' not on PATH"
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("sembit ")
