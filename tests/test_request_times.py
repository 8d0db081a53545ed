"""The stage clock of ``tools/request_times.py``."""

import importlib.util
from pathlib import Path

import pytest

from sembit import boundary, cli, jsontext

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "request_times.py"
_spec = importlib.util.spec_from_file_location("request_times", _TOOL)
request_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(request_times)

POWER = ["power", "--seed", "0", "--sigma", "150e3", "--floor", "0.8", "--bits", "1e6", "--verify"]
REGION = ["region", "--seed", "7", "--points", "12"]


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755734400")


def test_wrappers_are_installed_and_restored():
    before = {(owner, name): vars(owner)[name] for owner, name, _ in request_times.STAGES}
    assert cli.write_text is boundary.write_text is jsontext.write_text
    with request_times.timed_stages(request_times.StageClock()):
        for (owner, name), original in before.items():
            assert vars(owner)[name] is not original
    for (owner, name), original in before.items():
        assert vars(owner)[name] is original


@pytest.mark.parametrize(
    "argv, stages",
    [
        (POWER, {"parse", "scenario", "draw", "solve", "verify", "render", "mkdir", "write",
                 "digest"}),
        (REGION, {"parse", "scenario", "draw", "trace", "oma_search", "certify", "semi_search",
                  "contain", "render", "csv", "mkdir", "write", "digest"}),
    ],
    ids=["power", "region"],
)
def test_stages_cover_the_request_and_leave_its_files_unchanged(tmp_path, argv, stages):
    timed = request_times.request_stages(argv, tmp_path / "timed", 2)
    assert set(timed) == stages | {"other", "total"}
    assert all(timed[stage] > 0.0 for stage in stages)
    assert sum(timed[stage] for stage in stages) + timed["other"] == pytest.approx(timed["total"])
    plain = tmp_path / "plain"
    assert cli.main(argv + ["--out", str(plain)]) == cli.EXIT_OK
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "timed").iterdir())
    for name in names:
        assert (tmp_path / "timed" / name).read_bytes() == (plain / name).read_bytes()
