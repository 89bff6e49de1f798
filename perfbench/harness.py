"""Worker side of the benchmark: set-up, the timed closed loop, checks.

One process, one thread, closed loop: each op starts when the previous
one (and its untimed check) has finished.  A pass is the workload's fixed
op list; passes repeat until ``--seconds`` have elapsed, and the pass in
progress is always finished.  With tracing on, every pass is run twice
with the same inputs, first untraced and then traced, so the traced pass
time can be compared with an untraced one over identical work.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

SCRATCH = ".perfbench_tmp"


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Runner:
    """Runs passes of one workload and keeps what the report needs."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.pass_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.harness_self_s = 0.0
        self.mix: Counter = Counter()

    def run_pass(self, ops, traced: bool) -> None:
        tracer = self.tracer
        total = 0.0
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            if traced:
                tracer.enabled = True
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted as a failed op, run continues
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if traced:
                tracer.enabled = False
                self.harness_self_s += (t1 - t0) - tracer.flush()
            total += t1 - t0
            self.attempted += 1
            if not traced:
                self.latencies.append(t1 - t0)
                self.mix.update(op.tags + (op.kind,))
            if error is None:
                try:
                    op.check(out)
                except Exception as exc:  # CheckFailed, or a check that broke
                    error = f"check failed: {exc}"
            if error is not None:
                self.failures.append(f"{op.kind} {list(op.tags)}: {error}")
        (self.traced_pass_s if traced else self.pass_s).append(total)

    def loop(self, seconds: float, smoke: bool) -> None:
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            self.run_pass(self.workload.pass_ops(k), traced=False)
            if self.tracer is not None:
                self.run_pass(self.workload.pass_ops(k), traced=True)
            k += 1
            if smoke or time.perf_counter() >= deadline:
                return


def _no_count(name: str, k: float) -> None:
    pass


def worker(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
           role: str) -> int:
    root = Path.cwd()
    import treewalks

    src = (root / "src").resolve()
    if src not in Path(treewalks.__file__).resolve().parents:
        print(f"error: treewalks imported from {treewalks.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, Context

    (root / SCRATCH).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / SCRATCH))
    tracer = None
    try:
        if trace:
            tracer = Tracer()
            tracer.install()
            tracer.enabled = True  # set-up is traced too, and reported apart
        ctx = Context(workdir, tracer.count if tracer else _no_count, smoke)
        wl = WORKLOADS[workload](seed, ctx)
        wl.setup()
        setup_trace = {}
        if tracer is not None:
            tracer.enabled = False
            tracer.flush()
            setup_trace = tracer.snapshot()
            tracer.reset()
        print(json.dumps({"ready": True}), flush=True)
        if role == "setup":
            return 0
        runner = Runner(wl, tracer)
        runner.loop(seconds, smoke)
        result = {
            "attempted": runner.attempted,
            "failures": runner.failures,
            "latencies": runner.latencies,
            "pass_s": runner.pass_s,
            "traced_pass_s": runner.traced_pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mix": dict(runner.mix),
            "environment": environment(),
        }
        if tracer is not None:
            result["trace"] = tracer.snapshot()
            result["setup_trace"] = setup_trace
            result["harness_self_s"] = runner.harness_self_s
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
