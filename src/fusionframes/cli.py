"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 parse failure, 4 not a frame,
5 structural mismatch (e.g. dual arity).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ArityMismatch, BadParameters, DimensionMismatch, FusionFrameError, NotAFrame
from .fileformat import ParseError, _entry_to_complex, dumps_system, load_system
from .frames import (
    canonical_dual,
    frame_bounds,
    frame_operator_norms,
    is_alternative_dual,
    reconstruct,
)
from .tensor import _product_system, tensor_frame_bounds, tensor_system
from .verify import THEOREM_IDS, CheckSpec, random_fusion_system, run_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NOT_A_FRAME = 4
EXIT_MISMATCH = 5

MAX_TENSOR_DIM = 4096


def _parse_weights(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        raise BadParameters(f"weights must be LO:HI, got {text!r}")
    return lo, hi


def _parse_dims(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    def one(part):
        lo, _, hi = part.partition("..")
        return int(lo), int(hi or lo)

    try:
        parts = text.split(",")
        if len(parts) == 1:
            return one(parts[0]), one(parts[0])
        if len(parts) == 2:
            return one(parts[0]), one(parts[1])
    except ValueError:
        pass
    raise BadParameters(f"dims must be LO..HI or LO..HI,LO..HI, got {text!r}")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    sys_ = random_fusion_system(
        args.dim, args.subspaces, args.max_subdim, _parse_weights(args.weights), args.seed
    )
    _emit(dumps_system(sys_), args.out)
    return EXIT_OK


def _check_summary(sys_) -> dict:
    bounds = frame_bounds(sys_)
    summary = {
        "format_version": "fusion-frame-check/1",
        "ambient_dim": sys_.ambient_dim,
        "members": len(sys_),
        "is_frame": bounds.is_frame,
        "is_tight": bounds.is_tight,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "frame_operator_norm": bounds.upper,
    }
    if bounds.is_frame:
        summary["inverse_frame_operator_norm"] = frame_operator_norms(sys_)[1]
    return summary


def cmd_check(args) -> int:
    summary = _check_summary(load_system(args.infile))
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"is_frame: {summary['is_frame']}")
        print(f"is_tight: {summary['is_tight']}")
        print(f"optimal bounds: A = {summary['lower']:.12g}, B = {summary['upper']:.12g}")
        print(f"||S|| = {summary['frame_operator_norm']:.12g}")
        if "inverse_frame_operator_norm" in summary:
            print(f"||S^-1|| = {summary['inverse_frame_operator_norm']:.12g}")
    return EXIT_OK


def cmd_tensor(args) -> int:
    left = load_system(args.left)
    right = load_system(args.right)
    if left.ambient_dim * right.ambient_dim > MAX_TENSOR_DIM:
        print(
            f"error: tensor dimension {left.ambient_dim * right.ambient_dim} exceeds "
            f"{MAX_TENSOR_DIM}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    ts = tensor_system(left, right)
    _emit(dumps_system(_product_system(ts)), args.out)
    bt = tensor_frame_bounds(ts)
    # When the file itself goes to stdout, the human-readable report moves to
    # stderr so the emitted JSON stays parseable.
    stream = sys.stderr if args.out is None else sys.stdout
    print(f"is_frame: {bt.is_frame}", file=stream)
    print(f"tensor bounds: A = {bt.lower:.12g}, B = {bt.upper:.12g}", file=stream)
    return EXIT_OK


def cmd_dual(args) -> int:
    sys_ = load_system(args.infile)
    dual = canonical_dual(sys_)
    _emit(dumps_system(dual), args.out)
    stream = sys.stderr if args.out is None else sys.stdout
    _, residual = is_alternative_dual(sys_, dual)
    print(f"alternative-dual residual: {residual:.3e}", file=stream)
    return EXIT_OK


def _parse_vector(text: str, dim: int) -> np.ndarray:
    try:
        v = np.array([_entry_to_complex(e) for e in json.loads(text)])
    except (json.JSONDecodeError, RecursionError, TypeError, ParseError):
        raise BadParameters("--vector must be a JSON array of numbers or [re, im] pairs")
    if v.size != dim:
        raise BadParameters(f"vector has dim {v.size}, system has dim {dim}")
    return v


def cmd_reconstruct(args) -> int:
    sys_ = load_system(args.infile)
    f = _parse_vector(args.vector, sys_.ambient_dim)
    if args.dual:
        rec = reconstruct(sys_, load_system(args.dual), f)
    else:
        rec = reconstruct(sys_, canonical_dual(sys_), f)
    # Both norms are taken on x * 2**-k, 2**k the top power of two of f's
    # largest real or imaginary part (k = 0 below 1): the scaling is exact,
    # so the ratio keeps its bits and neither norm overflows.
    k = max(int(np.frexp(np.abs(f.view(float)).max())[1]) - 1, 0)
    scale = np.ldexp(1.0, -k)
    norm = float(np.linalg.norm(f * scale))
    err = float(np.linalg.norm((rec - f) * scale))
    error = err / norm if norm > 0 else err
    print("reconstructed: " + json.dumps([[x.real, x.imag] for x in rec]))
    print(f"{'relative' if norm > 0 else 'absolute'} error: {error:.3e}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.theorems.strip().upper() == "ALL":
        theorems = THEOREM_IDS
    else:
        theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    spec = CheckSpec(
        theorems=theorems, trials=args.trials, seed=args.seed, dims=_parse_dims(args.dims)
    )
    report = run_checks(spec)
    print(report.to_json())
    if report.all_passed:
        return EXIT_OK
    print("failing checks: " + ", ".join(report.failing), file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusion-frames",
        description="Fusion frame toolkit: generate, inspect, tensor, dualize, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a random fusion system file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--subspaces", type=int, required=True)
    p.add_argument("--max-subdim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weights", default="1:1", metavar="LO:HI")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("check", help="report frame bounds of a system file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("tensor", help="tensor two system files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("dual", help="canonical dual of a system file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("reconstruct", help="reconstruct a vector through a frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vector", required=True, metavar="JSON")
    p.add_argument("--dual")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the theorem verification campaign")
    p.add_argument("--theorems", default="ALL")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dims", default="2..6,2..6")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotAFrame as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_A_FRAME
    except (ArityMismatch, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (BadParameters, FusionFrameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
