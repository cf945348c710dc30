#!/usr/bin/env python3
"""Benchmark for quintic_flow: end-to-end metrics, and per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload solve_batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from a checkout: it imports quintic_flow from the ``src`` directory
next to ``perfbench`` and exits with code 2 if that is missing.  Workloads
are solve_batch, solve_hard, portraits and verify (see DESIGN.md).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it print the same run as a
table, with the environment record.  A traced run also writes its spans to
``.bench_out/`` under the working directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("solve_batch", "solve_hard", "portraits", "verify")
SETUP_PROBES = 7          # fresh processes timed for setup_s; the median is reported
EXIT_NO_PROGRAM = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def prepare_environment() -> None:
    """Point imports at the checkout's sources and cap kernel threads at the
    cores this process may use."""
    if not (SRC / "quintic_flow" / "__init__.py").is_file():
        print(f"perfbench: no quintic_flow sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    os.environ["QUINTIC_FLOW_THREADS"] = str(nproc())
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)] + inherited)
    sys.path[:0] = [str(SRC), str(ROOT)]


def probe_setup(workload: str) -> None:
    """Body of a setup probe: import quintic_flow, warm up, report ready."""
    from perfbench import workloads
    workloads.warm_up(workload)
    print("ready", flush=True)


def setup_times(workload: str, calibrator) -> list[tuple[float, float]]:
    """(start, seconds) from spawning a fresh interpreter to the end of its
    import and warm-up, once per probe, with calibration units around each."""
    probes = []
    for _ in range(SETUP_PROBES):
        calibrator.maybe_sample()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--probe-setup", workload],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe for {workload} failed")
        probes.append((t0, t1 - t0))
    calibrator.maybe_sample()
    return probes


def environment_record() -> dict:
    import numpy
    from quintic_flow import _kernels as kx
    return {
        "backend": kx.backend_name(),
        "numba_imports": kx._HAVE_NUMBA,
        "kernel_threads": kx.thread_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def write_spans(tracer, workload: str, seed: int) -> Path:
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.json"
    with path.open("w") as fh:
        json.dump([{"name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "error": s.error,
                    "info": s.info} for s in tracer.spans], fh)
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import metrics, workloads
    from perfbench.calibrate import Calibrator
    from perfbench.trace import Tracer

    env = environment_record()
    print("env " + json.dumps(env, sort_keys=True))
    if not env["numba_imports"]:
        print("backend agreement not verified here (numba does not import)")
    calibrator = None if trace else Calibrator(time.perf_counter)
    probes = [] if trace else setup_times(workload, calibrator)
    workloads.warm_up(workload)
    bench = workloads.make(workload, seed, trace)
    tracer = Tracer() if trace else None
    outcomes, pairs = workloads.run_loop(bench, seconds, time.perf_counter,
                                         tracer, calibrator)

    attempted = sum(o.units for o in outcomes)
    failed = sum(map(metrics.failed_units, outcomes))
    correct = all(o.raised or not o.misses for o in outcomes)
    print(f"workload {workload}  seed {seed}  "
          f"{'traced' if trace else 'untraced'}  closed loop, 1 caller")
    for name, value, unit in metrics.named_summary(workload, outcomes):
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for name, n in sorted(Counter(m for o in outcomes for m in o.misses).items()):
        print(f"  failed: {name:<16} {n}")

    if trace:
        values = metrics.layer_metrics(tracer.spans, outcomes, pairs)
        units = dict((n, u) for n, u, _ in metrics.PER_LAYER)
        if workload.startswith("solve"):
            print("  share of solve time:")
            for name, share in sorted(metrics.solve_breakdown(tracer.spans).items(),
                                      key=lambda kv: -kv[1]):
                print(f"    {name:<22} {share:8.3f}")
        print(f"  spans written to {write_spans(tracer, workload, seed)}")
    else:
        factors = [calibrator.factor(o.start, o.start + o.seconds) for o in outcomes]
        setups = [t / calibrator.factor(t0, t0 + t) for t0, t in probes]
        print(f"  {'setup_s (raw)':<24} {statistics.median(t for _, t in probes):>14.6g} s")
        print(f"  {'host_factor':<24} {statistics.median(factors):>14.6g} "
              "(median; each time below is divided by its operation's)")
        values = metrics.end_to_end(outcomes, factors, setups)
        units = dict((n, u) for n, u, _ in metrics.END_TO_END)
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own fresh process, in turn."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v
                                  for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    prepare_environment()
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
