"""The experiment scripts in scripts/ run end to end on small arguments.

Each one runs in a subprocess with the package's source directory on
PYTHONPATH, so no install is needed, and must exit 0 and print its
summary line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treewalks

ROOT = Path(__file__).resolve().parents[1]

# script and arguments -> (stream, text of its summary line)
SCRIPTS = {
    "boundary_convergence.py --max-depth 8 --radius 1": (
        "stderr",
        "# worst gap at depth 8: ",
    ),
    "product_decay_fit.py --n-max 1000": ("stdout", "closed form: rho = "),
    "reduced_boundary_scan.py --max-radius 2 --probe-radius 2": (
        "stdout",
        "radius 2 (",
    ),
}


def run_script(name, *args):
    src_root = str(Path(treewalks.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


@pytest.mark.parametrize("command", sorted(SCRIPTS))
def test_script_runs_and_prints_its_summary(command):
    proc = run_script(*command.split())
    assert proc.returncode == 0, proc.stderr
    stream, summary = SCRIPTS[command]
    lines = getattr(proc, stream).splitlines()
    assert any(line.startswith(summary) for line in lines), lines[-3:]


@pytest.mark.parametrize(
    "pattern, message",
    [
        ("1,-1", "pattern must be nonempty"),
        ("1,2,-1", "pattern 1,2,-1 cancels where it repeats"),
        ("a", "cannot parse word"),
    ],
)
def test_bad_pattern_exits_2(pattern, message):
    # the pattern reads like the CLI's --pattern: a usage error, no traceback
    proc = run_script("boundary_convergence.py", f"--pattern={pattern}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr
