"""Every output file renders exactly as ``csv.writer`` and ``json.dump`` would.

The writers build each file in memory and write it in one call; these
tests pin their bytes to the stdlib renderings of the same rows and
payloads, so replays of files written before stay byte-identical.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from sembit import RegionBoundary, Scheme, cli
from sembit.boundary import write_csvs
from sembit.cli import main
from sembit.montecarlo import SweepResult, SweepRow, SweepSpec
from sembit.power import PowerTargets

# Floats whose reprs are the least plain: signed zero, the least
# subnormal, exponent forms and the non-finite values.
ODD_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, math.inf, -math.inf, math.nan, 0.1, 123456.789]


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755734400")


def csv_writer_bytes(rows) -> bytes:
    """``csv.writer``'s rendering of ``rows`` (lists of strings), UTF-8 encoded."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def json_dump_bytes(payload, **kw) -> bytes:
    """``json.dump(payload, indent=2, **kw)`` and a newline, UTF-8 encoded."""
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, **kw)
    return (buf.getvalue() + "\n").encode("utf-8")


def test_region_csv_equals_csv_writer(tmp_path):
    cols = [np.roll(ODD_FLOATS, i) for i in range(3)]
    write_csvs([RegionBoundary(Scheme.SEMI, *cols)], tmp_path)
    rows = [["sigma", "bit_rate", "similarity"]]
    rows += [[repr(float(v)) for v in row] for row in zip(*cols)]
    assert (tmp_path / "semi.csv").read_bytes() == csv_writer_bytes(rows)


def test_region_csvs_render_shared_floats_as_each_file_alone(tmp_path):
    # Files of different lengths that share floats, signed zeros and NaNs
    # among them: each distinct float is rendered once for all of them.
    odd = np.array(ODD_FLOATS + [0.0, -math.nan])
    boundaries = [
        RegionBoundary(Scheme.OMA, odd, odd[::-1], np.zeros(len(odd))),
        RegionBoundary(Scheme.NOMA, odd[:3], -odd[:3], odd[2:5]),
        RegionBoundary(Scheme.SEMI, np.concatenate([odd, odd[:3]]), np.full(14, -0.0),
                       np.concatenate([odd[8:], odd])),
    ]
    write_csvs(boundaries, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noma.csv", "oma.csv", "semi.csv"]
    for b in boundaries:
        rows = [["sigma", "bit_rate", "similarity"]]
        rows += [[repr(v) for v in row] for row in b._rows()]
        assert (tmp_path / f"{b.scheme.value}.csv").read_bytes() == csv_writer_bytes(rows)


def test_sweep_csv_equals_csv_writer(tmp_path, scenario):
    spec = SweepSpec(scenario, "sigma_target", (1e5,), PowerTargets(1e5, 0.8, 1e6), 4)
    odd = ODD_FLOATS
    schemes = ["oma", "noma", "semi"] * 3
    rows = tuple(
        SweepRow(odd[i], s, odd[i - 1], odd[i - 2], odd[i - 3]) for i, s in enumerate(schemes)
    )
    path = tmp_path / "sweep.csv"
    SweepResult(spec, rows).write_csv(path)
    expect = [["sweep_value", "scheme", "mean_power_w", "stderr", "infeasible_frac"]]
    for r in rows:
        stats = (r.mean_power_w, r.stderr, r.infeasible_frac)
        expect.append([repr(r.sweep_value), r.scheme, *map(repr, stats)])
    assert path.read_bytes() == csv_writer_bytes(expect)


@pytest.mark.parametrize(
    "sigma, floor, bits",
    [
        ("150e3", "0.8", "1e6"),  # every scheme feasible
        ("-0.0", "1e-05", "1e6"),  # bit-only, with odd reprs in the targets
        ("100e3", "0.95", "1e6"),  # infeasible for every scheme: nan powers
    ],
)
def test_power_files_equal_stdlib_renderings(tmp_path, capsys, sigma, floor, bits):
    argv = ["power", "--sigma", sigma, "--floor", floor, "--bits", bits, "--verify"]
    code = main(argv + ["--out", str(tmp_path)])
    assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
    text = (tmp_path / "power.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text.encode("utf-8") == json_dump_bytes(report, sort_keys=True)
    targets = [repr(report["targets"][f]) for f in ("sigma_target", "min_similarity", "bit_target")]
    rows = [["sigma_target", "min_similarity", "bit_target", "scheme", "min_power_w"]]
    for name in ("oma", "noma", "semi"):
        entry = report["schemes"][name]
        rows.append([*targets, name, repr(entry["min_power_w"]) if entry["feasible"] else "nan"])
    assert (tmp_path / "power.csv").read_bytes() == csv_writer_bytes(rows)
    # Without --out the same report goes to stdout.
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().out == text


def test_cli_json_equals_json_dump(tmp_path):
    payload = {
        "zeta": [1, 2.5, -0.0, 5e-324, 1e16, {"nested": [True, False, None]}],
        "alpha": {"contained": False, "witness_sigma": None, "checked": 200},
        "error": 'no overlap: inner sigma in [0, 1.5e+05], "outer" in [2e+05, 3e+05]',
        "max_violation": "inf",
        "unicode": "sigma σ, similarity ε",
        "empty": {},
        "none": [],
    }
    path = tmp_path / "out.json"
    cli._write_json(path, payload)
    assert path.read_bytes() == json_dump_bytes(payload, sort_keys=True)


@pytest.mark.parametrize(
    "make, sort_keys",
    [
        (lambda s: s.params, False),
        (lambda s: s, False),
        (lambda s: SweepSpec(s, "k", (3, 4), PowerTargets(1e5, 1e-05, 1e6), 3, 5, 16), True),
    ],
    ids=["ParamTable", "Scenario", "SweepSpec"],
)
def test_dumps_equal_json_dump(tmp_path, scenario, make, sort_keys):
    obj = make(scenario)
    path = tmp_path / "dump.json"
    obj.dump(path)
    assert path.read_bytes() == json_dump_bytes(obj.to_dict(), sort_keys=sort_keys)
    assert type(obj).load(path) == obj

