#!/usr/bin/env python3
"""Seeded benchmark of the treewalks package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nn-cold --seed 1 --seconds 20 --trace 0

Workloads: ``nn-cold``, ``nn-warm``, ``sweeps`` (see BENCHMARK.json for
why each exists).  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer ones.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, tail percentile, input mix, failures,
environment).  ``--smoke`` runs every op kind once at tiny sizes.

The package is imported from ``./src`` (no install).  This process only
orchestrates: it starts the set-up probes and the measuring worker as
child processes with BLAS/OpenMP threads pinned to 1, times each child
from its start to its "ready" line (that is ``setup_s``), and assembles
the report.  It exits non-zero, printing no result, when the sources are
missing or a worker fails.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before anything can import numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("nn-cold", "nn-warm", "sweeps")
SETUP_PROBES = 4  # at most this many extra set-ups per run ...
PROBE_BUDGET_S = 10.0  # ... and none started once probes have used this long
RUN_LIMIT_S = 170.0  # every child is killed past this, so the run ends < 180 s


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every op kind once, tiny sizes")
    ap.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class WorkerFailed(RuntimeError):
    pass


def spawn(args, role: str, root: Path, deadline: float):
    """Run one child; return (seconds to its ready line, its result or None)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or not ready.startswith('{"ready"'):
        raise WorkerFailed(f"{role} worker exited with code {code}")
    if role == "setup":
        return ready_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed("measuring worker printed no result")
    return ready_s, json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 21
    samples no percentile at or above the median has 10 beyond it, and the
    maximum is reported instead, with its true count beyond (0).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], round(100.0 * (n - 10) / n, 2), 10


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = result["latencies"]
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(result["pass_s"]), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = {
        "samples": {"setup_s": len(setups), "pass_s": len(result["pass_s"]),
                    "op_p50_s": len(lat), "op_tail_s": len(lat), "peak_rss_mb": 1},
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "pass_samples_s": result["pass_s"],
    }
    return metrics, details


def per_layer(result: dict) -> tuple[dict, dict]:
    from spans import COUNTERS, SPANS

    traced = result["traced_pass_s"]
    n = len(traced)
    raw = result["trace"]
    metrics = {}
    for name, _, _ in SPANS:
        metrics[f"{name}.s"] = (raw[f"{name}.s"] / n, "s")
        metrics[f"{name}.self_s"] = (raw[f"{name}.self_s"] / n, "s")
        metrics[f"{name}.calls"] = (raw[f"{name}.calls"] / n, "count")
    for key, (unit, _) in COUNTERS.items():
        value = raw[key]
        if unit != "frac" and key != "walks.nstep.support":
            value /= n  # per pass; the support is the largest table seen
        metrics[key] = (value, unit)
    traced_mean = statistics.fmean(traced)
    # each traced pass replays the untraced pass before it on the same inputs
    overhead = statistics.median(t / u for t, u in zip(traced, result["pass_s"])) - 1.0
    metrics["harness.self_s"] = (result["harness_self_s"] / n, "s")
    metrics["trace.pass_s"] = (traced_mean, "s")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    setup = result["setup_trace"]
    metrics["setup.series.radius.s"] = (setup["series.radius.s"], "s")
    metrics["setup.series.radius.evaluations"] = (setup["series.radius.evaluations"], "count")
    self_sum = sum(metrics[f"{name}.self_s"][0] for name, _, _ in SPANS)
    details = {
        "traced_passes": n,
        "pass_samples_s": result["pass_s"],
        "traced_pass_samples_s": traced,
        "closure_gap_frac": abs(self_sum + metrics["harness.self_s"][0] - traced_mean)
        / traced_mean,
        "newton_steps_note": "steps inside failed solves are not visible from outside",
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        from harness import worker

        return worker(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.smoke, args.role)
    root = Path.cwd()
    if not (root / "src" / "treewalks" / "__init__.py").is_file():
        print("error: run from a treewalks checkout (src/treewalks missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = []
        if not (args.trace or args.smoke):
            # cheap set-ups get 5 samples in all, nn-warm's (radius x 2) gets 3
            while len(setups) < SETUP_PROBES and sum(setups) < PROBE_BUDGET_S:
                setups.append(spawn(args, "setup", root, deadline)[0])
        ready_s, result = spawn(args, "measure", root, deadline)
    except (WorkerFailed, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready_s)
    if args.trace:
        metrics, details = per_layer(result)
    else:
        metrics, details = end_to_end(result, setups)
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(result["failures"])
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "fail_frac": failed / result["attempted"],
        "failures": result["failures"][:20],
        "mix_share": {k: v / len(result["latencies"]) for k, v in result["mix"].items()},
        "environment": result["environment"],
        "loop": "closed, one process, one thread",
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
