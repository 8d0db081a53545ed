"""The README's examples run against the code they describe."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

import sembit as sb
from sembit.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_quick_start_runs():
    (code,) = fenced("python")
    exec(compile(code, "README.md", "exec"), {})


def test_scenario_example_lists_the_defaults():
    (text,) = fenced("json")
    assert sb.Scenario.from_dict(json.loads(text)) == sb.Scenario()


def sembit_lines():
    """Every ``sembit ...`` command of the README's sh blocks, as argv lists."""
    lines = (line for block in fenced("sh") for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("sembit ")]


def test_cli_examples_run(tmp_path, monkeypatch):
    # Each documented command succeeds (exit 0; for power --verify that
    # includes the plug-back) in a fresh directory that holds the inputs
    # the examples name, and the replay reproduces the region run.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755734400")
    (scenario,) = fenced("json")
    Path("my_scenario.json").write_text(scenario, encoding="utf-8")
    truth = sb.default_table()[4]
    snrs = np.linspace(-15.0, 25.0, 41)
    sims = sb.eval_similarity(truth, snrs)
    rows = [f"4,{x!r},{y!r}" for x, y in zip(snrs.tolist(), sims.tolist())]
    text = "\n".join(["k,snr_db,similarity", *rows]) + "\n"
    Path("samples.csv").write_text(text, encoding="utf-8")
    spec = {
        "scenario": sb.Scenario().to_dict(),
        "variable": "bit_target",
        "values": [2e5, 8e5],
        "targets": {"sigma_target": 5e4, "min_similarity": 0.8, "bit_target": 0.0},
        "grid_n": 64,
    }
    Path("my_sweep.json").write_text(json.dumps(spec), encoding="utf-8")

    commands = sembit_lines()
    names = ["fit", "region", "region", "power", "sweep", "sweep", "replay"]
    assert [argv[0] for argv in commands] == names
    for argv in commands:
        assert main(argv) == EXIT_OK, argv

    replayed = sorted(p.name for p in Path("replayed").iterdir())
    assert replayed == ["containment.json", "manifest.json", "oma.csv", "semi.csv"]
    for name in replayed:
        assert (Path("replayed") / name).read_bytes() == (Path("region_out") / name).read_bytes()
