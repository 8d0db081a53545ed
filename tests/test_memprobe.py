"""The output of ``tools/memprobe.py`` at tiny checkpoints."""

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "memprobe.py"

FOOTPRINT = r"import sembit\.cli: maxrss_mb \d+\.\d\d, _hashlib loaded: (yes|no)"


def reading(count: int) -> str:
    return rf" *{count}  +\d+\.\d\d  +\d+\.\d  _hashlib loaded: (yes|no)"


def probe(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_layout_and_no_openssl_in_any_phase():
    lines = probe("--regions", "1,2", "--sweeps", "1,3", "--powers", "1,7")
    layout = [
        FOOTPRINT, "regions  maxrss_mb  minflt_per_region", reading(1), reading(2),
        r"exit codes: 0: 2",
        FOOTPRINT, " sweeps  maxrss_mb   minflt_per_sweep", reading(1), reading(3),
        FOOTPRINT, " powers  maxrss_mb   minflt_per_power", reading(1), reading(7),
        r"exit codes: 0: 6, 4: 1",  # the benchmark's 7th power input is infeasible
    ]
    assert len(lines) == len(layout), lines
    for line, pattern in zip(lines, layout):
        assert re.fullmatch(pattern, line), (line, pattern)
    readings = [line for line in lines if "_hashlib" in line]
    assert len(readings) == 9
    # Not even the manifests that regions and power requests write load OpenSSL.
    assert all(line.endswith("_hashlib loaded: no") for line in readings)


def test_checkpoints_must_increase():
    proc = subprocess.run([sys.executable, str(_TOOL), "--sweeps", "2,2"], capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert "counts must be positive and increasing: '2,2'" in proc.stderr
    assert proc.stdout == ""
