"""Comparing two saved output sets number by number (``tools/outputs_digest.py --compare``)."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs_digest.py"
_spec = importlib.util.spec_from_file_location("outputs_digest", _TOOL)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def _write(root: Path, files: dict) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_compare_reports_each_files_largest_move(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, {
        "run/rows.csv": "sigma,bit_rate\n1.0,2.0\n3.0,inf\n-1e-3,5\n",
        "run/same.json": '{"p": 0.5, "q": null}\n',
        "run/spelled.json": '{"p": 0.5}\n',
        "run/stdout.txt": "exit 0\n",
        "run/nonfinite.csv": "1.0,2.0\n",
        "run/gone.csv": "1\n",
    })
    _write(new, {
        "run/rows.csv": "sigma,bit_rate\n1.0,2.0000000000000004\n3.1,inf\n-1e-3,5\n",
        "run/same.json": '{"p": 0.5, "q": null}\n',
        "run/spelled.json": '{"p": 0.50}\n',
        "run/stdout.txt": "exit 1!\n",
        "run/nonfinite.csv": "1.0,inf\n",
        "run/added.csv": "1\n",
    })
    assert digest.compare(old, new).splitlines() == [
        "only in the new set  run/added.csv",
        "only in the old set  run/gone.csv",
        "max rel move inf (2.0 -> inf), 1 of 2 numbers moved  run/nonfinite.csv",
        "max rel move 0.0323 (3.0 -> 3.1), 2 of 6 numbers moved  run/rows.csv",
        "identical  run/same.json",
        "same numbers, spelled differently  run/spelled.json",
        "text differs beyond its numbers  run/stdout.txt",
    ]


def test_moves_are_symmetric_and_exact_at_equality():
    assert digest._move(2.0, 2.0) == 0.0
    assert digest._move(float("inf"), float("inf")) == 0.0
    assert digest._move(float("nan"), float("nan")) == 0.0
    assert digest._move(0.0, 1e-300) == 1.0
    assert digest._move(1.0, 1.5) == digest._move(1.5, 1.0) == 0.5 / 1.5
