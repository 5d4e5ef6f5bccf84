"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``ACCEPT n <label>: PASS`` / ``FAIL`` line (run pytest with ``-s`` to see
them).  The criteria exercise the public library surface plus the CLI.
"""

import json
import subprocess
import sys
import time

import numpy as np

from fusionframes import (
    canonical_dual,
    canonical_dual_tensor,
    check_operator_factorization,
    check_resolution_of_identity,
    frame_bounds,
    frame_operator,
    frame_operator_norms,
    invert,
    is_alternative_dual,
    is_alternative_dual_tensor,
    kron,
    projection,
    roi_tensor,
    tensor_frame_bounds,
    tensor_system,
    tensor_vector,
    transport_tensor_system,
)
from fusionframes.linalg import rel_fro
from fusionframes.verify import (
    _random_nonframe,
    _random_unitary,
    random_fusion_system,
)

RT2 = np.sqrt(2.0)


def _verdict(n, label, ok):
    print(f"ACCEPT {n} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({label}) failed"


def random_frame(rng, dim):
    for _ in range(8):
        sys_ = random_fusion_system(dim, dim, min(2, dim), (0.5, 2.0), rng)
        if frame_bounds(sys_).is_frame:
            return sys_
    raise AssertionError("no frame drawn")


def frame_pair(rng, lo=2, hi=6):
    d1 = int(rng.integers(lo, hi + 1))
    d2 = int(rng.integers(lo, hi + 1))
    return random_frame(rng, d1), random_frame(rng, d2)


def test_1_worked_instance(v2_system):
    sys_ = v2_system
    b = frame_bounds(sys_)
    ok = abs(b.lower - (1 - 1 / RT2)) <= 1e-12 and abs(b.upper - (1 + 1 / RT2)) <= 1e-12

    s_inv = invert(frame_operator(sys_))
    ok = ok and np.max(np.abs(s_inv - np.array([[1.0, -1.0], [-1.0, 3.0]]))) <= 1e-12

    dual = canonical_dual(sys_)
    acc = np.zeros((2, 2), dtype=complex)
    for m, dm in zip(sys_.members, dual.members):
        acc += m.weight**2 * projection(dm.basis) @ s_inv @ projection(m.basis)
    ok = ok and np.linalg.norm(acc - np.eye(2)) <= 1e-12
    _verdict(1, "worked instance", ok)


def test_2_operator_factorization():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(25):
        v, w = frame_pair(rng)
        passed, residuals = check_operator_factorization(tensor_system(v, w))
        ok = ok and passed
    _verdict(2, "frame operator factorization", ok)


def test_3_bounds_product_iff():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(25):
        v, w = frame_pair(rng)
        bv, bw = frame_bounds(v), frame_bounds(w)
        bt = tensor_frame_bounds(tensor_system(v, w))
        ok = ok and bt.is_frame
        ok = ok and abs(bt.lower - bv.lower * bw.lower) <= 1e-9 * bv.lower * bw.lower
        ok = ok and abs(bt.upper - bv.upper * bw.upper) <= 1e-9 * bv.upper * bw.upper
    for _ in range(10):
        nf = _random_nonframe(rng, int(rng.integers(2, 7)))
        other = random_frame(rng, int(rng.integers(2, 7)))
        ok = ok and not tensor_frame_bounds(tensor_system(nf, other)).is_frame
    _verdict(3, "tensor bounds are products iff factors are frames", ok)


def test_4_duality_suite():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(25):
        sys_ = random_frame(rng, int(rng.integers(2, 7)))
        passed, _res = is_alternative_dual(sys_, canonical_dual(sys_))
        ok = ok and passed

    for _ in range(10):
        v, w = frame_pair(rng, hi=5)
        ts = tensor_system(v, w)
        dual = canonical_dual_tensor(ts)
        factorwise = tensor_system(canonical_dual(v), canonical_dual(w))
        for dm, fm in zip(dual.base.members, factorwise.base.members):
            gap = np.linalg.norm(projection(dm.basis) - projection(fm.basis))
            ok = ok and gap <= 1e-9
        passed, _res = is_alternative_dual_tensor(ts, factorwise)
        ok = ok and passed
    _verdict(4, "duality suite", ok)


def test_5_inequality_sandwiches():
    rng = np.random.default_rng(5)
    slack = 1e-8
    ok = True

    # Canonical dual bounds: A/(||S|| ||S^-1||)^2 <= A' and B' <= B (||S|| ||S^-1||)^2.
    for _ in range(25):
        sys_ = random_frame(rng, int(rng.integers(2, 7)))
        b = frame_bounds(sys_)
        s_norm, s_inv_norm = frame_operator_norms(sys_)
        db = frame_bounds(canonical_dual(sys_))
        cond = s_norm**2 * s_inv_norm**2
        ok = ok and db.is_frame
        ok = ok and db.lower >= b.lower / cond - slack
        ok = ok and db.upper <= b.upper * cond + slack

    # Two-sided energy bound for the canonical resolution of the identity.
    for _ in range(25):
        v, w = frame_pair(rng, hi=4)
        fam = roi_tensor(v, w)
        bv, bw = frame_bounds(v), frame_bounds(w)
        lo = bv.lower * bw.lower / (bv.upper**2 * bw.upper**2)
        hi = bv.upper * bw.upper / (bv.lower**2 * bw.lower**2)
        f = rng.standard_normal(v.ambient_dim)
        g = rng.standard_normal(w.ambient_dim)
        fg = tensor_vector(f / np.linalg.norm(f), g / np.linalg.norm(g))
        energy = sum(
            s * float(np.linalg.norm(op @ fg)) ** 2 for s, op in zip(fam.scalars, fam.ops)
        )
        ok = ok and lo - slack <= energy <= hi + slack

    # Canonical dual bounds on the tensor system.
    for _ in range(25):
        v, w = frame_pair(rng, hi=4)
        ts = tensor_system(v, w)
        db = tensor_frame_bounds(canonical_dual_tensor(ts))
        bv, bw = frame_bounds(v), frame_bounds(w)
        s_norm, s_inv_norm = frame_operator_norms(ts.base)
        cond = s_norm**2 * s_inv_norm**2
        ok = ok and db.is_frame
        ok = ok and db.lower >= bv.lower * bw.lower / cond - slack
        ok = ok and db.upper <= bv.upper * bw.upper * cond + slack

    # Guaranteed lower bound for an alternative dual of the tensor system.
    for _ in range(25):
        v, w = frame_pair(rng, hi=4)
        ts = tensor_system(v, w)
        db = tensor_frame_bounds(canonical_dual_tensor(ts))
        d1, d2 = frame_bounds(v).upper, frame_bounds(w).upper
        _, s_inv_norm = frame_operator_norms(ts.base)
        ok = ok and db.lower >= 1.0 / (d1 * d2 * s_inv_norm**2) - slack
    _verdict(5, "inequality sandwiches", ok)


def test_6_unitary_transport():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(10):
        v, w = frame_pair(rng, hi=4)
        ts = tensor_system(v, w)
        t1 = _random_unitary(rng, v.ambient_dim)
        t2 = _random_unitary(rng, w.ambient_dim)
        moved = transport_tensor_system(t1, t2, ts)
        t12 = kron(t1, t2)
        conjugated = t12 @ frame_operator(ts.base) @ invert(t12)
        ok = ok and rel_fro(frame_operator(moved.base), conjugated) <= 1e-9
        b0 = tensor_frame_bounds(ts)
        b1 = tensor_frame_bounds(moved)
        ok = ok and abs(b1.lower - b0.lower) <= 1e-9 * b0.lower
        ok = ok and abs(b1.upper - b0.upper) <= 1e-9 * b0.upper
    _verdict(6, "unitary transport", ok)


def test_7_resolution_of_identity():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(25):
        v, w = frame_pair(rng)
        assert v.ambient_dim * w.ambient_dim <= 36
        sv_inv = invert(frame_operator(v))
        sw_inv = invert(frame_operator(w))
        t_ops = [m.weight**2 * sv_inv @ projection(m.basis) for m in v.members]
        u_ops = [m.weight**2 * sw_inv @ projection(m.basis) for m in w.members]
        passed, _res = check_resolution_of_identity([kron(t, u) for t in t_ops for u in u_ops])
        ok = ok and passed
    _verdict(7, "resolution of identity on the product space", ok)


def test_8_full_verification_campaign():
    cmd = [
        sys.executable, "-m", "fusionframes",
        "verify", "--theorems", "ALL", "--trials", "25", "--seed", "1",
    ]
    runs = []
    ok = True
    for _ in range(2):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True)
        elapsed = time.monotonic() - start
        ok = ok and proc.returncode == 0 and elapsed < 60.0
        runs.append(proc.stdout)
    ok = ok and runs[0] == runs[1]
    if ok:
        report = json.loads(runs[0])
        ok = all(c["passes"] == c["trials"] for c in report["checks"])
    _verdict(8, "full deterministic verification campaign", ok)
