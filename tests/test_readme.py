"""The README's examples run against the code they describe."""

import json
import re
from pathlib import Path

import sembit as sb

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_quick_start_runs():
    (code,) = fenced("python")
    exec(compile(code, "README.md", "exec"), {})


def test_scenario_example_lists_the_defaults():
    (text,) = fenced("json")
    assert sb.Scenario.from_dict(json.loads(text)) == sb.Scenario()
