"""Benchmark of the fusionframes toolkit, driven from outside the library.

    python3 perfbench/run.py --workload {campaign,files,tensor} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/`` and the CLI is ``python3 -m fusionframes``.  One run sets up five
times, then runs the workload as a closed loop with one client until its
operations have been busy for S seconds, in whole cycles of the workload's
script.  Every output is checked by an independent numpy oracle.

With ``--trace 0`` the last line of stdout is the end-to-end result.  With
``--trace 1`` the untraced loop is followed by TRACED_CYCLES traced cycles,
a fixed number so that call counts repeat exactly for a seed, and the last
line holds the per-layer metrics, including the tracing overhead between the
two.  Results and spans are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from tracing import Tracer
from workloads import WORKLOADS, Context

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
TRACED_CYCLES = 2


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(deps.get("blas", {}).get(k, "?")) for k in ("name", "version")),
        "lapack": " ".join(str(deps.get("lapack", {}).get(k, "?")) for k in ("name", "version")),
        "cpu_count": os.cpu_count(),
        # Recorded, never pinned: pinning would hide thread oversubscription.
        "threads": {k: os.environ.get(k) for k in
                    ("FUSION_FRAME_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def measure(workload, ctx, data, seconds):
    """Whole cycles until the operations have been busy for ``seconds``."""
    cycles = []
    while not cycles or sum(op.seconds for c in cycles for op in c) < seconds:
        cycles.append(workload.cycle(ctx, data, None, sum(map(len, cycles))))
    return cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fusionframes" / "__init__.py").is_file():
        print(f"error: no fusionframes sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fusionframes

    if Path(fusionframes.__file__).resolve().parent != (src / "fusionframes").resolve():
        print(f"error: fusionframes imported from {fusionframes.__file__}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, Context(ROOT, args.seed, work), WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in result:
        with open(out_dir / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(result.pop("spans"), fh)
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print_report(result)
    print(json.dumps(result["line"]))
    return 0


def run(args, ctx, workload) -> dict:
    setup_times, startup_times = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        startup_times.append(ctx.fresh_import())
        data = workload.setup(ctx)
        setup_times.append(time.perf_counter() - start)

    cycles = measure(workload, ctx, data, args.seconds)
    plain = [op for cycle in cycles for op in cycle]
    tracer, traced, traced_cycles, memory_ops, loop_spans = None, [], [], [], 0
    if args.trace:
        tracer = Tracer()
        for _ in range(TRACED_CYCLES):
            traced_cycles.append(workload.cycle(ctx, data, tracer, len(traced)))
            traced += traced_cycles[-1]
        loop_spans = len(tracer.spans)
        # One more cycle under tracemalloc, for tensor.peak_mb only.
        memory = Tracer(alloc=True)
        memory_ops = workload.cycle(ctx, data, memory, len(traced))
        memory.close()
        tracer.counters["tensor.peak_bytes"] = memory.counters.get("tensor.peak_bytes", 0)
    checked = plain + traced + memory_ops
    layer_extras, checks = workload.finish(ctx, data, checked, tracer)

    ops = checked + checks
    attempted = sum(op.units for op in ops)
    failed = sum(op.failed for op in ops)
    e2e = metrics.end_to_end(setup_times, cycles)
    latency_tail = metrics.tail(metrics.cycle_seconds(cycles))
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": workload.describe(data),
        "ops": len(plain), "cycles": len(cycles), "busy_s": sum(op.seconds for op in plain),
        "setup_runs_s": setup_times,
        "op_seconds": [[op.name, op.seconds] for op in plain],
        "end_to_end": {k: {"value": v, "unit": metrics.END_TO_END[k][0]} for k, v in e2e.items()},
        "latency_tail_s": None if latency_tail is None else
        {"value": latency_tail[1], "unit": "s", "percentile": latency_tail[0],
         "samples": len(cycles)},
        "fail_ratio": failed / attempted,
        "attempted": attempted, "failed": failed,
        "failures": [[op.name, op.error] for op in ops if op.failed],
    }
    if args.trace:
        extras = dict(layer_extras, startup_s=statistics.median(startup_times),
                      loop_spans=loop_spans)
        layers = metrics.per_layer(tracer, extras, cycles, traced_cycles)
        result["per_layer"] = {k: {"value": v, "unit": metrics.PER_LAYER[k]}
                               for k, v in layers.items()}
        result["spans"] = {"fields": ["id", "parent", "name", "op", "thread", "start", "end"],
                           "spans": tracer.spans}
    shown = result["per_layer"] if args.trace else result["end_to_end"]
    result["line"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shown}
    return result


def print_report(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print("environment " + json.dumps(result["environment"]))
    print("inputs " + json.dumps(result["inputs"]))
    print(f"ops {result['ops']} in {result['cycles']} cycles, {result['busy_s']:.3f} s busy; "
          f"setup runs {', '.join(f'{t:.4f}' for t in result['setup_runs_s'])} s")
    for name, m in result["end_to_end"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    tail = result["latency_tail_s"]
    if tail is None:
        print(f"latency_tail_s omitted: {result['cycles']} cycles, "
              "need 10 beyond the 50th percentile")
    else:
        print(f"latency_tail_s = {tail['value']:.6g} s (p{tail['percentile']:g} "
              f"of {tail['samples']} samples)")
    print(f"fail_ratio = {result['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for name, error in result["failures"]:
        print(f"failed {name}: {error}")
    for name, m in result.get("per_layer", {}).items():
        note = " (computed from .nbytes)" if name == "tensor.dense_mb" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")


if __name__ == "__main__":
    sys.exit(main())
