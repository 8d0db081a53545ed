"""The trace gate (``tools/trace_gate.py``) on stub checkouts and on this one."""

import importlib.util
import math
import sys
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("trace_gate", _ROOT / "tools" / "trace_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

# A stand-in for the package: every scheme's boundary is five rows, its bit
# rate a line that falls from the draw plus k.  PLANT edits ``found``.
STUB = '''
import enum
from types import SimpleNamespace

import numpy as np


class Scheme(str, enum.Enum):
    OMA = "oma"
    NOMA = "noma"
    SEMI = "semi"


class Scenario:
    def __init__(self, k=4, **fields):
        self.k = k


def derive_seed(base_seed, index):
    return 100 + index


def sample_realization(scenario, seed):
    return seed


def trace_region(scenario, real, schemes):
    sigma = np.linspace(0.0, 1.0, 5)
    found = {
        Scheme(s): SimpleNamespace(sigma=sigma, bit_rate=(1.0 - sigma) * (real + scenario.k), similarity=sigma / 2)
        for s in schemes
    }
PLANT
    return found, None
'''


def _checkout(root: Path, plant: str = "") -> Path:
    package = root / "src" / "sembit"
    package.mkdir(parents=True)
    body = textwrap.indent(textwrap.dedent(plant), "    ") or "    pass"
    (package / "__init__.py").write_text(STUB.replace("PLANT", body), encoding="utf-8")
    return root


def _run(capsys, base: Path, head: Path, regions: int) -> tuple[int, list[str]]:
    code = gate.main(["--base", str(base), "--head", str(head), "--regions", str(regions)])
    return code, capsys.readouterr().out.splitlines()


def test_equal_checkouts_hold_with_nothing_moved(tmp_path, capsys):
    base, head = _checkout(tmp_path / "base"), _checkout(tmp_path / "head")
    code, lines = _run(capsys, base, head, 3)
    assert code == 0
    assert lines == [
        f"trace gate over 3 regions: base {base}, head {head}",
        "scheme  boundaries     rows   moved  worst fall  where",
        "oma              3       15       0           0  -",
        "noma             3       15       0           0  -",
        "semi             3       15       0           0  -",
        "boundaries whose length changed or that one side lacks: none",
        "gate holds: no row may fall more than 1e-09 of its boundary's maximum below the base,"
        " and no boundary may change length",
    ]


def test_planted_fall_length_change_and_lost_boundary_fail(tmp_path, capsys):
    # Draw 1: a semi row falls by 2e-9 of its boundary's maximum, another
    # rises, and an oma similarity moves.  Draw 2: noma gains a row.  Draw
    # 3: the head traces no noma boundary.
    plant = """
    semi, oma = found[Scheme.SEMI], found[Scheme.OMA]
    if real == 1:
        semi.bit_rate[2] -= 2e-9 * semi.bit_rate.max()
        semi.bit_rate[3] *= 2.0
        oma.similarity = oma.similarity + 1.0
    if real == 2:
        noma = found[Scheme.NOMA]
        noma.sigma, noma.bit_rate, noma.similarity = (np.append(c, 0.0) for c in vars(noma).values())
    if real == 3:
        del found[Scheme.NOMA]
    """
    base, head = _checkout(tmp_path / "base"), _checkout(tmp_path / "head", plant)
    code, lines = _run(capsys, base, head, 4)
    assert code == 1
    assert lines[1:] == [
        "scheme  boundaries     rows   moved  worst fall  where",
        "oma              4       20       5           0  -",
        "noma             2       10       0           0  -",
        "semi             4       20       2       2e-09  default/1 row 2",
        "boundaries whose length changed or that one side lacks: noma default/2: length 5 -> 6,"
        " noma default/3: traced by the base only",
        "gate fails: no row may fall more than 1e-09 of its boundary's maximum below the base,"
        " and no boundary may change length",
    ]


def test_a_fall_within_the_tolerance_holds(tmp_path, capsys):
    plant = """
    if real == 0:
        found[Scheme.OMA].bit_rate[1] -= 5e-10 * found[Scheme.OMA].bit_rate.max()
    """
    base, head = _checkout(tmp_path / "base"), _checkout(tmp_path / "head", plant)
    code, lines = _run(capsys, base, head, 1)
    assert code == 0
    assert lines[2] == "oma              1        5       1       5e-10  default/0 row 1"
    assert lines[-1].startswith("gate holds")


def test_region_set():
    # The default draws first, then 60 scenarios x 5 derived draws.  Scenario
    # 52 at draw 3 is the default-grid miss that the search-quality tests pin.
    from test_search_quality import MISSED

    regions = gate.regions()
    assert len(regions) == 600
    assert regions[0] == ("default/0", {}, "seed", 0)
    assert regions[299] == ("default/299", {}, "seed", 299)
    label, fields, kind, index = regions[300 + 52 * 5 + 3]
    assert (label, fields, kind, index) == ("scenario52/3", MISSED, "derived", 3)
    for _, fields, _, _ in regions[300:]:
        assert 3 <= fields["k"] <= 7 and 0.0 <= fields["min_similarity"] <= 0.9
        assert 5.0 <= min(fields["d_s"], fields["d_b"]) <= max(fields["d_s"], fields["d_b"]) <= 60.0
        assert math.log(0.03) <= math.log(fields["max_power"]) <= math.log(3.0)


def test_this_checkout_against_itself_moves_nothing(capsys):
    code, lines = _run(capsys, _ROOT, _ROOT, 2)
    assert code == 0
    assert lines[2].split()[:4] == ["oma", "2", "400", "0"]
    assert lines[-2].endswith("none")


def test_a_checkout_without_its_own_package_is_refused(tmp_path, monkeypatch):
    # This process imported sembit from this checkout already.
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="not from"):
        gate.trace(tmp_path / "src", tmp_path / "out.npz", 1)


# The sweep side of the stand-in: two bundled specs, "alpha" and "beta",
# each 2 values x 3 draws x 3 schemes, the totals value * draw * (scheme
# number).  PLANT edits ``totals``, for the spec ``spec.name``.
SWEEP_CLI = '''
BUNDLED_SWEEPS = {"alpha": "alpha.json", "beta": "beta.json"}


def _resolve_sweep_spec(name):
    return {"name": name}
'''
SWEEP_MONTECARLO = '''
from types import SimpleNamespace

import numpy as np


class SweepSpec:
    @classmethod
    def from_dict(cls, payload):
        return SimpleNamespace(
            name=payload["name"], scenario=None, base_seed=0, n_realizations=3, values=(1.0, 2.0)
        )


def _sweep_totals(spec, reals):
    totals = np.multiply.outer(np.outer(spec.values, reals), [1.0, 2.0, 3.0])
PLANT
    return totals
'''


def _sweep_checkout(root: Path, plant: str = "") -> Path:
    _checkout(root)
    package = root / "src" / "sembit"
    body = textwrap.indent(textwrap.dedent(plant), "    ") or "    pass"
    (package / "cli.py").write_text(SWEEP_CLI, encoding="utf-8")
    (package / "montecarlo.py").write_text(SWEEP_MONTECARLO.replace("PLANT", body), encoding="utf-8")
    return root


def _run_sweeps(capsys, base: Path, head: Path) -> tuple[int, list[str]]:
    code = gate.main(["--base", str(base), "--head", str(head), "--sweeps"])
    return code, capsys.readouterr().out.splitlines()


def test_equal_sweeps_hold_with_nothing_moved(tmp_path, capsys):
    base, head = _sweep_checkout(tmp_path / "base"), _sweep_checkout(tmp_path / "head")
    code, lines = _run_sweeps(capsys, base, head)
    assert code == 0
    assert lines == [
        f"sweep gate over the bundled specs: base {base}, head {head}",
        "spec              scheme    rows  moved  worst rise  where",
        "alpha             oma          6      0           0  -",
        "alpha             noma         6      0           0  -",
        "alpha             semi         6      0           0  -",
        "beta              oma          6      0           0  -",
        "beta              noma         6      0           0  -",
        "beta              semi         6      0           0  -",
        "rows whose feasibility changed: none",
        "specs whose shape changed or that one side lacks: none",
        "gate holds: no minimum power may rise more than 1e-09 above the base,"
        " and no row may change feasibility or shape",
    ]


def test_planted_rise_feasibility_change_and_shape_change_fail(tmp_path, capsys):
    # alpha: the oma total at value 2.0, draw 1 rises by 2e-9 relative,
    # another falls, and semi's row at value 1.0, draw 2 turns infeasible.
    # beta: one more value.
    plant = """
    if spec.name == "alpha":
        totals[1, 1, 0] *= 1.0 + 2e-9
        totals[0, 0, 0] *= 0.5
        totals[0, 2, 2] = np.nan
    else:
        totals = np.concatenate([totals, totals[:1]])
    """
    base, head = _sweep_checkout(tmp_path / "base"), _sweep_checkout(tmp_path / "head", plant)
    code, lines = _run_sweeps(capsys, base, head)
    assert code == 1
    assert lines[1:] == [
        "spec              scheme    rows  moved  worst rise  where",
        "alpha             oma          6      2       2e-09  value 2.0 draw 1",
        "alpha             noma         6      0           0  -",
        "alpha             semi         6      1           0  -",
        "rows whose feasibility changed: alpha semi value 1.0 draw 2: 306.0 -> nan",
        "specs whose shape changed or that one side lacks: beta: shape (2, 3, 3) -> (3, 3, 3)",
        "gate fails: no minimum power may rise more than 1e-09 above the base,"
        " and no row may change feasibility or shape",
    ]


def test_a_sweep_rise_within_the_tolerance_holds(tmp_path, capsys):
    plant = """
    if spec.name == "beta":
        totals[0, 1, 1] *= 1.0 + 5e-10
    """
    base, head = _sweep_checkout(tmp_path / "base"), _sweep_checkout(tmp_path / "head", plant)
    code, lines = _run_sweeps(capsys, base, head)
    assert code == 0
    assert lines[6] == "beta              noma         6      1       5e-10  value 1.0 draw 1"
    assert lines[-1].startswith("gate holds")


def test_this_checkout_against_itself_moves_no_sweep_row(capsys):
    code, lines = _run_sweeps(capsys, _ROOT, _ROOT)
    assert code == 0
    assert lines[2].split() == ["semantic-rate", "oma", "4500", "0", "0", "-"]
    assert len(lines) == 2 + 9 + 3 and lines[-3].endswith("none") and lines[-2].endswith("none")
