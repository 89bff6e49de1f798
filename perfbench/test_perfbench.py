"""Tests of the benchmark itself (not part of the package's tier-1 suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke tests run every op kind of a workload once at tiny sizes, both
untraced and traced, through the same checks the timed runs use.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import treewalks  # noqa: E402
import treewalks.cli  # noqa: E402
import treewalks.series  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from harness import Runner  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402

KINDS = {
    "nn-cold": set(workloads.NNCold.UNIFORM_KINDS),
    "nn-warm": {"ratio-sweep", "green-second-order", "ancona", "martin-new-t",
                "martin-matrix", "first-passage-dp", "detect-2"},
    "sweeps": {"ratio-converge", "llt-fit", "product", "reduced", "tree-kernel",
               "nstep-exact", "ratio-sequence-word", "product-nstep-pair",
               "series-exact"},
}


def smoke_runner(name, tmp_path, tracer=None):
    ctx = workloads.Context(tmp_path, tracer.count if tracer else (lambda n, k: None), True)
    wl = workloads.WORKLOADS[name](1, ctx)
    wl.setup()
    runner = Runner(wl, tracer)
    runner.loop(0.0, smoke=True)
    return runner


@pytest.mark.parametrize("name", sorted(KINDS))
def test_smoke_every_op_kind_checked_and_traced(name, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        runner = smoke_runner(name, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    assert KINDS[name] <= set(runner.mix)
    assert len(runner.pass_s) == len(runner.traced_pass_s) == 1
    totals = tracer.snapshot()
    assert sum(totals[f"{span}.calls"] for span, _, _ in SPANS) > 0
    self_sum = sum(totals[f"{span}.self_s"] for span, _, _ in SPANS)
    # self times plus the harness's own time close the traced pass exactly
    assert self_sum + runner.harness_self_s == pytest.approx(runner.traced_pass_s[0], rel=1e-9)
    if name == "sweeps":
        assert totals["series.radius.calls"] == 0


def test_corrupted_reference_fails_the_check_and_names_the_op(tmp_path, monkeypatch):
    real = workloads.lattice_ratio
    monkeypatch.setattr(workloads, "lattice_ratio", lambda walk, m: 1.1 * real(walk, m))
    runner = smoke_runner("sweeps", tmp_path)
    assert runner.failures
    assert all(f.startswith("ratio-converge") for f in runner.failures)
    assert "lattice ratio limit" in runner.failures[0]


def test_tracer_restores_the_package():
    solve = treewalks.series.FirstPassageSystem.__dict__["solve"]
    main = treewalks.cli.main
    kernel = treewalks.ratio_kernel_nn
    tracer = Tracer()
    tracer.install()
    try:
        assert treewalks.cli.main is not main
        assert treewalks.ratio_kernel_nn is not kernel
        assert treewalks.kernels.ratio_kernel_nn is treewalks.ratio_kernel_nn
    finally:
        tracer.uninstall()
    assert treewalks.series.FirstPassageSystem.__dict__["solve"] is solve
    assert treewalks.cli.main is main
    assert treewalks.ratio_kernel_nn is kernel


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
