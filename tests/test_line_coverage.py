"""``tools/line_coverage.py`` on a one-test file, in a subprocess."""

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"

ONE_TEST = '''
from sembit.errors import require_float


def test_an_int_is_a_float():
    assert require_float("x", 2) == 2.0
'''


def unrun_lines(out: str, name: str) -> set[int]:
    """The unrun line numbers the tool printed for ``src/sembit/<name>``."""
    (listed,) = re.findall(rf"^src/sembit/{name}: (.*) \(\d+ lines\)$", out, re.M)
    lines = set()
    for span in listed.split(", "):
        first, _, last = span.partition("-")
        lines.update(range(int(first), int(last or first) + 1))
    return lines


def test_lists_the_lines_a_test_file_leaves_unrun(tmp_path):
    path = tmp_path / "test_one.py"
    path.write_text(ONE_TEST, encoding="utf-8")
    cmd = [sys.executable, str(_TOOL), str(path), "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = r"unrun: (\d+) of (\d+) executable lines; pytest exit status 0"
    unrun, total = map(int, re.fullmatch(summary, proc.stdout.splitlines()[-1]).groups())
    assert 0 < unrun < total
    errors = Path(__file__).resolve().parent.parent / "src" / "sembit" / "errors.py"
    source = errors.read_text(encoding="utf-8").splitlines()
    ran = source.index("            return float(value)") + 1
    overflow = source.index("        except OverflowError:") + 1
    lines = unrun_lines(proc.stdout, "errors.py")
    # The test's call returns on its first try; nothing overflows; the
    # module's own definitions ran at import.
    assert ran not in lines
    assert {overflow, overflow + 1} <= lines
    assert source.index("def require_float(name: str, value) -> float:") + 1 not in lines
