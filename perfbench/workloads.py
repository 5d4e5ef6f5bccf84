"""The workloads, each a closed loop with one client.

A workload has ``setup`` (make the inputs; timed as set-up), ``cycle`` (one
fixed round of operations, each checked against the oracle) and ``finish``
(checks that need every operation of the run, plus the layer measurements
that belong to the workload).  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle
from tracing import install, uninstall

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 120
PROBES = 4  # seeded vectors for the dual, ROI and reconstruction checks


@dataclass
class Proc:
    code: int
    seconds: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    cpu_s: float  # user + system time of the child and its threads


@dataclass
class Op:
    name: str
    seconds: float
    rss_mb: float
    units: int  # campaign trials, else 1
    failed: int  # failed units
    output: bytes = b""
    error: str = ""  # why it failed, for the result file
    cpu_s: float = 0.0  # user + system time of the process doing the work


def _error(proc) -> str:
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    return f"exit {proc.code}" + (f": {lines[-1]}" if lines else "") + "; or the oracle rejected it"


def passes(check, *args) -> bool:
    """An oracle check; output it cannot even parse is a failure too."""
    try:
        return bool(check(*args))
    except (ValueError, KeyError, TypeError, IndexError, OSError, np.linalg.LinAlgError):
        return False


class Context:
    """Paths, seed and subprocess environment of one benchmark run."""

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(self, argv, env_extra=None) -> Proc:
        """Run a child to completion; its own peak RSS and CPU time come from wait4."""
        env = dict(self.env, **(env_extra or {}))
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.work)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            proc.returncode, seconds, usage.ru_maxrss / 1024.0,
            out_path.read_bytes(), err_path.read_bytes(), usage.ru_utime + usage.ru_stime,
        )

    def cli(self, args, tracer=None, op=0, env_extra=None) -> Proc:
        """One ``fusion-frames`` command; traced through traced_cli.py when a tracer is given."""
        if tracer is None:
            return self.run([sys.executable, "-m", "fusionframes", *args], env_extra)
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        proc = self.run([sys.executable, str(HERE / "traced_cli.py"), str(spans), str(op),
                         str(int(tracer.alloc)), *args], env_extra)
        tracer.merge(spans)
        return proc

    def fresh_import(self) -> float:
        proc = self.run([sys.executable, "-c", "import fusionframes"])
        if proc.code != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))
        return proc.seconds


# --- campaign -----------------------------------------------------------------

THEOREM_IDS = (
    "T2.1", "D2.3", "N2.5", "T2.7", "N2.8", "D2.9", "D2.10", "T2.13",
    "D3.1", "N3.3", "T3.4", "T3.5", "T3.7", "T3.8", "P3.10", "N3.11",
    "T3.12", "T4.1", "D4.2", "N4.3", "T4.4", "T4.5",
)
# The CLI's default spec.  Its seed stays fixed because the workload is the
# default campaign; ``verify --seed 0`` has a failing T4.5 trial at this
# commit (see CHANGES.md).
TRIALS = 25
SEED = 1
DIMS = "2..6,2..6"


def verify_args(trials: int) -> list[str]:
    return ["verify", "--theorems", "ALL", "--trials", str(trials), "--seed", str(SEED),
            "--dims", DIMS]


def _report_failures(stdout: bytes, trials: int) -> tuple[int, int]:
    """(trials, failed trials) of a verify report; everything failed if malformed."""
    expected = len(THEOREM_IDS) * trials
    try:
        checks = json.loads(stdout)["checks"]
        total = sum(c["trials"] for c in checks)
        failed = sum(c["trials"] - c["passes"] for c in checks)
    except (ValueError, KeyError, TypeError):
        return expected, expected
    ids = tuple(c["theorem_id"] for c in checks)
    return total, (failed if ids == THEOREM_IDS and total == expected else total)


def finish_verify(ctx, trials, ops, tracer, per_trial):
    """Every verify report must equal the single-threaded one, byte for byte.

    ``ops`` are the run's verify invocations.  Returns the verify layer's
    measurements and the extra checked operations: the single-threaded
    reference and, when traced, each theorem as its own ``run_checks``
    call.  An operation counts ``trials`` units when ``per_trial``, else one.
    """
    serial = ctx.cli(verify_args(trials), env_extra={"FUSION_FRAME_THREADS": "1"})
    total, failed = _report_failures(serial.stdout, trials)
    reference_ok = serial.code == 0 and failed == 0
    failed_trials = 0
    for op in ops:
        if not reference_ok or op.output != serial.stdout:
            op.failed = op.units
            op.error = op.error or "report differs from the FUSION_FRAME_THREADS=1 report"
            failed_trials += total
        else:
            failed_trials += _report_failures(op.output, trials)[1]
    layers = {
        "verify.serial_wall_s": serial.seconds,
        "verify.trials": total,
        "verify.failed_trials": failed_trials,
    }
    units = total if per_trial else 1
    checks = [Op("verify-serial", serial.seconds, serial.rss_mb, units,
                 0 if reference_ok else units, error="" if reference_ok else _error(serial))]
    if tracer is not None:
        each = ctx.cli(["--each-theorem", str(trials), str(SEED), DIMS], tracer, len(ops))
        try:
            same = json.loads(each.stdout) == json.loads(serial.stdout)["checks"]
        except (ValueError, KeyError, TypeError):
            same = False
        ok = each.code == 0 and same
        checks.append(Op("verify-each", each.seconds, each.rss_mb, units, 0 if ok else units,
                         error="" if ok else _error(each)))
    return layers, checks


class Campaign:
    """Back-to-back ``fusion-frames verify`` on the default spec.

    Not in BENCHMARK.json: on a shared host its wall time measures the
    hypervisor more than the program (see README.md).
    """

    name = "campaign"

    def setup(self, ctx):
        return {"args": verify_args(TRIALS)}

    def describe(self, data):
        return {"theorems": len(THEOREM_IDS), "trials": TRIALS, "seed": SEED, "dims": DIMS}

    def cycle(self, ctx, data, tracer, index):
        proc = ctx.cli(data["args"], tracer, index)
        trials, failed = _report_failures(proc.stdout, TRIALS)
        if proc.code != 0:
            failed = trials
        return [Op("verify", proc.seconds, proc.rss_mb, trials, failed, proc.stdout,
                   _error(proc) if failed else "", proc.cpu_s)]

    def finish(self, ctx, data, ops, tracer):
        return finish_verify(ctx, TRIALS, ops, tracer, per_trial=True)


# --- files --------------------------------------------------------------------

_FLOAT = r"([-+0-9.eEinfa]+)"


class Files:
    """A fixed script of CLI commands on seeded fusion-frame/1 files."""

    name = "files"
    dim, members, max_subdim = 128, 256, 3
    factor_dim, factor_members, factor_subdim = 12, 12, 2
    verify_trials = 2  # a short campaign, so the script runs every subcommand

    def setup(self, ctx):
        rng = np.random.default_rng([ctx.seed, 1])
        system = inputs.random_system(rng, self.dim, self.members, self.max_subdim)
        left = inputs.random_system(rng, self.factor_dim, self.factor_members, self.factor_subdim)
        right = inputs.random_system(rng, self.factor_dim, self.factor_members, self.factor_subdim)
        vector = inputs.random_vectors(rng, self.dim, 1)[:, 0]
        sizes = {}
        for name, s in (("system.json", system), ("left.json", left), ("right.json", right)):
            text = inputs.dumps(s)
            (ctx.work / name).write_text(text, encoding="utf-8")
            sizes[name] = len(text.encode("utf-8"))
        return {
            "system": system, "left": left, "right": right, "vector": vector,
            "vector_arg": json.dumps([[float(x.real), float(x.imag)] for x in vector]),
            "probes": inputs.random_vectors(rng, self.dim, PROBES),
            "file_bytes": sizes, "generated": None,
        }

    def describe(self, data):
        return {
            "system": [self.dim, self.members, self.max_subdim],
            "factors": [self.factor_dim, self.factor_members, self.factor_subdim],
            "file_bytes": data["file_bytes"],
            "verify": {"theorems": len(THEOREM_IDS), "trials": self.verify_trials, "seed": SEED,
                       "dims": DIMS},
        }

    def cycle(self, ctx, data, tracer, index):
        steps = [
            ("generate", ["generate", "--dim", str(self.dim), "--subspaces", str(self.members),
                          "--max-subdim", str(self.max_subdim), "--seed", str(ctx.seed),
                          "--weights", "0.5:2", "--out", "generated.json"], self._generated),
            ("check", ["check", "--in", "system.json", "--json"], self._check),
            ("dual", ["dual", "--in", "system.json", "--out", "dual.json"], self._dual),
            ("reconstruct", ["reconstruct", "--in", "system.json", "--vector", data["vector_arg"]],
             self._reconstructed),
            ("reconstruct", ["reconstruct", "--in", "system.json", "--vector", data["vector_arg"],
                             "--dual", "dual.json"], self._reconstructed),
            ("tensor", ["tensor", "--left", "left.json", "--right", "right.json",
                        "--out", "product.json"], self._tensor),
            ("verify", verify_args(self.verify_trials), self._verified),
        ]
        ops = []
        for k, (name, args, check) in enumerate(steps):
            proc = ctx.cli(args, tracer, index + k)
            ok = proc.code == 0 and passes(check, ctx, data, proc)
            ops.append(Op(name, proc.seconds, proc.rss_mb, 1, 0 if ok else 1, proc.stdout,
                          "" if ok else _error(proc), proc.cpu_s))
        return ops

    def finish(self, ctx, data, ops, tracer):
        verify = [op for op in ops if op.name == "verify"]
        return finish_verify(ctx, self.verify_trials, verify, tracer, per_trial=False)

    def _generated(self, ctx, data, proc):
        """Structure once, then the same bytes on every later cycle."""
        text = (ctx.work / "generated.json").read_bytes()
        if data["generated"] is None:
            dim, system = oracle.system_from_json(json.loads(text))
            ok = (dim == self.dim and len(system) == self.members and oracle.orthonormal(system)
                  and all(1 <= b.shape[1] <= self.max_subdim and 0.5 <= w <= 2 for b, w in system))
            if not ok:
                return False
            data["generated"] = text
        return text == data["generated"]

    def _check(self, ctx, data, proc):
        summary = json.loads(proc.stdout)
        lower, upper = oracle.bounds(data["system"])
        return (summary["is_frame"] and summary["ambient_dim"] == self.dim
                and summary["members"] == self.members
                and oracle.bounds_match(summary["lower"], summary["upper"], (lower, upper))
                and oracle.close(summary["frame_operator_norm"], upper, upper)
                and oracle.close(summary["inverse_frame_operator_norm"], 1 / lower, 1 / lower))

    def _dual(self, ctx, data, proc):
        dim, dual = oracle.system_from_json(json.loads((ctx.work / "dual.json").read_bytes()))
        return dim == self.dim and oracle.dual_residual(
            data["system"], dual, data["probes"]) <= oracle.RESIDUAL_TOL

    def _reconstructed(self, ctx, data, proc):
        line = proc.stdout.decode().splitlines()[0]
        if not line.startswith("reconstructed: "):
            return False
        pairs = np.array(json.loads(line[len("reconstructed: "):]), dtype=float)
        got = (pairs[:, 0] + 1j * pairs[:, 1])[:, None]
        return oracle.relative_error(got, data["vector"][:, None]) <= oracle.RESIDUAL_TOL

    def _verified(self, ctx, data, proc):
        return _report_failures(proc.stdout, self.verify_trials)[1] == 0

    def _tensor(self, ctx, data, proc):
        (lv, uv), (lw, uw) = oracle.bounds(data["left"]), oracle.bounds(data["right"])
        expected = (lv * lw, uv * uw)
        match = re.search(rf"tensor bounds: A = {_FLOAT}, B = {_FLOAT}", proc.stdout.decode())
        dim, product = oracle.system_from_json(json.loads((ctx.work / "product.json").read_bytes()))
        return (match is not None
                and oracle.bounds_match(float(match[1]), float(match[2]), expected)
                and dim == self.factor_dim ** 2 and len(product) == self.factor_members ** 2
                and oracle.bounds_match(*oracle.bounds(product), expected))


# --- tensor -------------------------------------------------------------------

class Tensor:
    """In-process dense product-space pipeline on seeded factor pairs."""

    name = "tensor"
    pairs = ((8, 8), (12, 12), (16, 16), (4, 64))  # one member per factor dimension
    max_subdim = 2

    def setup(self, ctx):
        import fusionframes as ff

        rng = np.random.default_rng([ctx.seed, 2])
        cases = []
        for m, n in self.pairs:
            left = inputs.random_system(rng, m, m, self.max_subdim)
            right = inputs.random_system(rng, n, n, self.max_subdim)
            cases.append({
                "left": left, "right": right,
                "v": _library_system(ff, left), "w": _library_system(ff, right),
                "probes": inputs.random_vectors(rng, m * n, PROBES),
            })
        # Lets BLAS and first-call set-up finish before anything is timed.
        self._pipeline(ff, cases[0])
        return {"cases": cases}

    def describe(self, data):
        return {"pairs": [list(p) for p in self.pairs], "max_subdim": self.max_subdim}

    def cycle(self, ctx, data, tracer, index):
        """One op: the pipeline on every pair.  Per pair the latencies are
        bimodal (products 64/144 against 256), so a per-pair median would
        sit in the gap between the modes."""
        import fusionframes as ff

        if tracer is not None:
            tracer.op = index
        undo = install(tracer) if tracer is not None else []
        seconds, cpu, errors = 0.0, 0.0, []
        try:
            for (m, n), case in zip(self.pairs, data["cases"]):
                error = ""
                start, cpu_start = time.perf_counter(), time.process_time()
                try:
                    out = self._pipeline(ff, case)
                except Exception as exc:  # a library error is a failed pipeline
                    out, error = None, repr(exc)
                seconds += time.perf_counter() - start
                cpu += time.process_time() - cpu_start
                if out is not None and not passes(self._check, ctx, case, out):
                    error = "the oracle rejected it"
                if error:
                    errors.append(f"{m}x{n}: {error}")
                del out
        finally:
            uninstall(undo)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return [Op("pipelines", seconds, rss, len(data["cases"]), len(errors),
                   error="; ".join(errors), cpu_s=cpu)]

    def finish(self, ctx, data, ops, tracer):
        return {}, []

    @staticmethod
    def _pipeline(ff, case):
        v, w = case["v"], case["w"]
        ts = ff.tensor_system(v, w)
        bounds = ff.tensor_frame_bounds(ts)
        factorized, _ = ff.check_operator_factorization(ts)
        dual = ff.canonical_dual_tensor(ts)
        is_dual, _ = ff.is_alternative_dual_tensor(ts, dual)
        dual_bounds = ff.alt_dual_frame_check(ts, dual)
        roi = ff.roi_tensor(v, w)
        return bounds, factorized, dual, is_dual, dual_bounds, roi

    @staticmethod
    def _check(ctx, case, out):
        bounds, factorized, dual, is_dual, dual_bounds, roi = out
        left, right = case["left"], case["right"]
        (lv, uv), (lw, uw) = oracle.bounds(left), oracle.bounds(right)
        dual_left, dual_right = (_oracle_system(f) for f in dual.factors)
        (dlv, duv), (dlw, duw) = oracle.bounds(dual_left), oracle.bounds(dual_right)
        residual = oracle.dual_residual(
            oracle.tensor(left, right), oracle.tensor(dual_left, dual_right), case["probes"])
        return (bounds.is_frame and factorized and is_dual and dual_bounds.is_frame
                and oracle.bounds_match(bounds.lower, bounds.upper, (lv * lw, uv * uw))
                and residual <= oracle.RESIDUAL_TOL
                and oracle.bounds_match(dual_bounds.lower, dual_bounds.upper,
                                        (dlv * dlw, duv * duw))
                and len(roi.ops) == len(left) * len(right)
                and oracle.roi_residual(roi.scalars, roi.ops, case["probes"])
                <= oracle.RESIDUAL_TOL)


def _library_system(ff, system):
    dim = system[0][0].shape[0]
    return ff.FusionSystem(dim, tuple(
        ff.WeightedSubspace(ff.SubspaceBasis(b), w) for b, w in system))


def _oracle_system(fusion_system):
    """The one place the oracle reads a library object: its bases and weights."""
    return [(m.basis.matrix, m.weight) for m in fusion_system.members]


WORKLOADS = {w.name: w for w in (Campaign(), Files(), Tensor())}
