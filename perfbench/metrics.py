"""Metric names, units and how each is computed from ops and spans."""

from __future__ import annotations

import statistics

from tracing import LAYER_FUNCTIONS, MAX_COUNTERS, TRIAL, self_times
from workloads import THEOREM_IDS

# name: (unit, better, bound).  On a shared 2-vCPU machine, ten 45-second
# runs spread (IQR / median) 0.03-0.10 in time and at most 0.028 in RSS; ten
# 40-second runs spread 0.26, when a spell of steal slowed three of them.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_s": ("s", "lower", 0.25),
    "cpu_p50_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

CLI_COMMANDS = ("generate", "check", "tensor", "dual", "reconstruct", "verify")
COUNTED_LAYERS = ("fileformat", "frames", "linalg", "tensor")
FACTORIZATIONS = ("hermitian_eig", "invert", "operator_norm")  # eig, inverse and norm calls


def _per_layer_units() -> dict[str, str]:
    units = {f"cli.{c}.p50_s": "s" for c in CLI_COMMANDS}
    units["cli.startup_s"] = "s"
    for layer in COUNTED_LAYERS:
        for fn in LAYER_FUNCTIONS[layer]:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update({
        "fileformat.bytes_read": "B", "fileformat.bytes_written": "B",
        "fileformat.read_mb_per_s": "MB/s", "fileformat.write_mb_per_s": "MB/s",
        "linalg.factorizations": "count",
        "tensor.dense_mb": "MB", "tensor.peak_mb": "MB",
    })
    units.update({f"verify.{t}.s": "s" for t in THEOREM_IDS})
    units.update({
        "verify.trials": "count", "verify.failed_trials": "count", "verify.workers": "count",
        "verify.serial_wall_s": "s", "verify.pool_util": "ratio",
        "trace.overhead_pct": "%", "trace.spans_per_op": "count",
    })
    return units


PER_LAYER = _per_layer_units()


def tail(latencies):
    """(percentile, value) of the highest of p99.9 .. p50 with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(latencies)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(latencies, n=1000, method="inclusive")[round(p * 10) - 1]
    return None


def cycle_seconds(cycles):
    return [sum(op.seconds for op in c) for c in cycles]


def end_to_end(setup_times, cycles):
    """Medians over cycles, so a burst of contention from outside moves one
    cycle, not the result.  A latency sample is one whole cycle: the
    commands of ``files`` differ up to threefold in cost, and a median over
    single commands moved with the mix (IQR / median 0.21 over ten runs,
    against 0.11 for whole cycles)."""
    seconds = cycle_seconds(cycles)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(
            sum(op.units for op in c) / t for c, t in zip(cycles, seconds)),
        "latency_p50_s": statistics.median(seconds),
        "cpu_p50_s": statistics.median(sum(op.cpu_s for op in c) for c in cycles),
        "peak_rss_mb": max(op.rss_mb for c in cycles for op in c),
    }


def per_layer(tracer, extras, plain_cycles, traced_cycles) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never calls reads 0."""
    spans = tracer.spans
    counters = {k: 0 for k in MAX_COUNTERS} | tracer.counters
    own = self_times(spans)
    names = {(op, sid): name for sid, _, name, op, *_ in spans}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def durations(name):
        return [end - start for *_, start, end in by_name.get(name, ())]

    def inclusive(fns, layer):
        """Time in the outermost spans of ``fns``: those with no parent in ``layer``."""
        total = 0.0
        for fn in fns:
            for sid, parent, _, op, _, start, end in by_name.get(f"{layer}.{fn}", ()):
                if not names.get((op, parent), "").startswith(layer + "."):
                    total += end - start
        return total

    out = {}
    for command in CLI_COMMANDS:
        times = durations(f"cli.{command}")
        out[f"cli.{command}.p50_s"] = statistics.median(times) if times else 0.0
    out["cli.startup_s"] = extras["startup_s"]
    for layer in COUNTED_LAYERS:
        for fn in LAYER_FUNCTIONS[layer]:
            group = by_name.get(f"{layer}.{fn}", ())
            out[f"{layer}.{fn}.calls"] = len(group)
            out[f"{layer}.{fn}.self_s"] = sum(own[(s[3], s[0])] for s in group)
    read_s = inclusive(("load_system", "loads_system"), "fileformat")
    write_s = inclusive(("save_system", "dumps_system"), "fileformat")
    out["fileformat.bytes_read"] = counters.get("fileformat.bytes_read", 0)
    out["fileformat.bytes_written"] = counters.get("fileformat.bytes_written", 0)
    out["fileformat.read_mb_per_s"] = out["fileformat.bytes_read"] / 1e6 / read_s if read_s else 0.0
    out["fileformat.write_mb_per_s"] = (
        out["fileformat.bytes_written"] / 1e6 / write_s if write_s else 0.0)
    out["linalg.factorizations"] = sum(out[f"linalg.{fn}.calls"] for fn in FACTORIZATIONS)
    out["tensor.dense_mb"] = counters.get("tensor.dense_bytes", 0) / 1e6
    out["tensor.peak_mb"] = counters["tensor.peak_bytes"] / 1e6
    for theorem in THEOREM_IDS:
        times = durations(f"verify.theorem.{theorem}")
        out[f"verify.{theorem}.s"] = statistics.median(times) if times else 0.0
    out["verify.trials"] = extras.get("verify.trials", 0)
    out["verify.failed_trials"] = extras.get("verify.failed_trials", 0)
    out["verify.serial_wall_s"] = extras.get("verify.serial_wall_s", 0.0)
    out["verify.workers"], out["verify.pool_util"] = _pool(by_name, counters)
    plain = statistics.median(cycle_seconds(plain_cycles))
    traced = statistics.median(cycle_seconds(traced_cycles))
    out["trace.overhead_pct"] = (traced / plain - 1) * 100
    out["trace.spans_per_op"] = extras["loop_spans"] / sum(map(len, traced_cycles))
    return out


def _pool(by_name, counters):
    """(workers, busy time summed across trial threads / (wall x workers)).

    Without a pool (one worker) run_checks runs its trials inline and the
    worker is busy for the whole call.
    """
    calls = by_name.get("verify.run_checks", ())
    if not calls:
        return 0, 0.0
    workers = counters["verify.workers"] or 1
    trials: dict[tuple, float] = {}
    for _, parent, _, op, _, start, end in by_name.get(TRIAL, ()):
        trials[(op, parent)] = trials.get((op, parent), 0.0) + end - start
    busy = wall = 0.0
    for sid, _, _, op, _, start, end in calls:
        wall += (end - start) * workers
        busy += trials.get((op, sid), end - start)
    return workers, busy / wall
