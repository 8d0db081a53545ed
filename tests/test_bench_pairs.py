"""``tools/bench_pairs.py`` against stub checkouts whose ``perfbench/run.py`` prints fixed lines."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Each side's metrics: the head holds less memory, takes half again as
# long per op, and ties on throughput and setup.
STUB_METRICS = {
    "base": {"norm_op_ms_p50": 1.0, "norm_ops_per_s": 100.0, "peak_rss_mb": 42.0, "setup_s": 0.2},
    "head": {"norm_op_ms_p50": 1.5, "norm_ops_per_s": 100.0, "peak_rss_mb": 38.0, "setup_s": 0.2},
}
# A stub run.py: logs its checkout and seed, prints a report line and the
# result line, and on the head at seed 6 fails one op and exits 1.
STUB = """\
import json, sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(root.parent / "order.log", "a") as fh:
    fh.write(f"{{root.name}} {{seed}}\\n")
failed = int(root.name == "head" and seed == 6)
metrics = {{k: v + seed / 1000 for k, v in {metrics!r}.items()}}
print("machine: stub")
print(json.dumps({{"correct": not failed, "attempted": 10, "failed": failed,
    "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in metrics.items()}}}}))
sys.exit(failed)
"""


def stub_checkout(root: Path, side: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(metrics=STUB_METRICS[side]))
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.fixture()
def sides(tmp_path):
    return [stub_checkout(tmp_path / side, side) for side in ("base", "head")]


def pairs_args(base, head, out, workload="sweep-semantic-rate", seeds="5-7"):
    return [
        "--base", str(base), "--head", str(head), "--workload", workload,
        "--seeds", seeds, "--seconds", "2", "--out", str(out),
    ]


def test_file_layout_and_verdicts(tmp_path, sides):
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(pairs_args(*sides, out)) == 0
    record = json.loads(out.read_text())
    assert list(record) == ["machine", "base", "head", "workloads"]
    assert set(record["machine"]) == {"platform", "cpu_count", "python", "numpy"}
    for side, root in zip(("base", "head"), sides):
        assert record[side] == {"path": str(root), "commit": None}
    entry = record["workloads"]["sweep-semantic-rate"]
    assert list(entry) == ["seconds", "failed_ops", "pairs", "metrics"]
    assert entry["seconds"] == 2.0
    assert entry["failed_ops"] == {"base": 0, "head": 1}
    assert [(p["seed"], p["first"]) for p in entry["pairs"]] == [
        (5, "base"), (6, "head"), (7, "base")
    ]
    assert entry["pairs"][1]["head"] == {
        "exit_code": 1,
        "attempted": 10,
        "failed": 1,
        "metrics": {k: v + 0.006 for k, v in STUB_METRICS["head"].items()},
    }
    metrics = entry["metrics"]
    assert list(metrics) == ["norm_op_ms_p50", "norm_ops_per_s", "peak_rss_mb", "setup_s"]
    rss = metrics["peak_rss_mb"]
    assert (rss["unit"], rss["better"], rss["bound"]) == ("MB", "lower", 0.1)
    assert rss["base"] == {
        "runs": [42.005, 42.006, 42.007], "median": 42.006, "q1": 42.0055, "q3": 42.0065,
        "iqr": pytest.approx(0.001),
    }
    assert rss["head"]["median"] == 38.006
    assert rss["ratios"] == [38.005 / 42.005, 38.006 / 42.006, 38.007 / 42.007]
    assert rss["change"] == pytest.approx(38.006 / 42.006 - 1)
    assert (rss["wins"], rss["claim_met"], rss["regressed"]) == (3, True, False)
    # Half again as long per op: no pair won, and worse than the 25% bound.
    p50 = metrics["norm_op_ms_p50"]
    assert (p50["wins"], p50["claim_met"], p50["regressed"]) == (0, False, True)
    # A tie wins no pair and regresses nothing.
    for name in ("norm_ops_per_s", "setup_s"):
        assert (metrics[name]["wins"], metrics[name]["claim_met"], metrics[name]["regressed"]) == (
            0, False, False
        )


def test_runs_alternate_which_side_goes_first(tmp_path, sides):
    assert bench_pairs.main(pairs_args(*sides, tmp_path / "b.json", seeds="5-8")) == 0
    order = (tmp_path / "order.log").read_text().split("\n")
    assert order == [
        "base 5", "head 5", "head 6", "base 6", "base 7", "head 7", "head 8", "base 8", ""
    ]


def test_a_second_workload_joins_the_file(tmp_path, sides):
    out = tmp_path / "b.json"
    assert bench_pairs.main(pairs_args(*sides, out, seeds="5-5")) == 0
    assert bench_pairs.main(pairs_args(*sides, out, workload="region-draws", seeds="7-8")) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert list(workloads) == ["sweep-semantic-rate", "region-draws"]
    assert [p["seed"] for p in workloads["region-draws"]["pairs"]] == [7, 8]
    # Each workload is judged on its own pairs: one won pair of one meets 9 of 10.
    assert workloads["sweep-semantic-rate"]["metrics"]["peak_rss_mb"]["claim_met"] is True
    assert workloads["region-draws"]["metrics"]["peak_rss_mb"]["wins"] == 2


def test_file_of_other_checkouts_is_refused(tmp_path, sides, capsys):
    out = tmp_path / "b.json"
    assert bench_pairs.main(pairs_args(*sides, out, seeds="5-5")) == 0
    other = stub_checkout(tmp_path / "hea2", "head")
    before = out.read_text()
    assert bench_pairs.main(pairs_args(sides[0], other, out, seeds="6-6")) == 2
    assert "records another head" in capsys.readouterr().err
    assert out.read_text() == before


def test_paths_of_different_length_are_refused(tmp_path, sides, capsys):
    longer = stub_checkout(tmp_path / "head2", "head")
    out = tmp_path / "b.json"
    assert bench_pairs.main(pairs_args(sides[0], longer, out)) == 2
    assert "differ in length" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "order.log").exists()


@pytest.mark.parametrize("text", ["5", "7-5", "a-b", "5-"])
def test_seed_range_rejects(text):
    with pytest.raises(Exception, match="not a range"):
        bench_pairs.seed_range(text)


def test_seed_range():
    assert bench_pairs.seed_range("901-903") == [901, 902, 903]
