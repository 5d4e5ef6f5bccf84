"""Seeded input generator (numpy only).

Every input of every workload comes from ``np.random.default_rng`` keyed on
the workload seed, so one seed always gives the same systems, vectors and
file bytes.
"""

from __future__ import annotations

import json

import numpy as np

import oracle

# Redraw a system whose condition number B/A exceeds this, so that no
# operation of a workload fails on an ill-conditioned draw.
MAX_CONDITION = 1e4
_REDRAWS = 20


def random_system(rng, dim, members, max_subdim, weights=(0.5, 2.0)):
    """Gaussian subspaces of dimension 1..max_subdim with uniform weights."""
    for _ in range(_REDRAWS):
        system = []
        for _ in range(members):
            k = int(rng.integers(1, max_subdim + 1))
            q, _ = np.linalg.qr(rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)))
            system.append((q, float(rng.uniform(*weights))))
        lower, upper = oracle.bounds(system)
        if lower > 0 and upper / lower <= MAX_CONDITION:
            return system
    raise RuntimeError(f"no frame with condition <= {MAX_CONDITION} in {_REDRAWS} draws")


def random_vectors(rng, dim, count):
    return rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))


def dumps(system) -> str:
    """fusion-frame/1 text of a complex system, laid out as the library writes it."""
    dim = system[0][0].shape[0]
    doc = {
        "format_version": "fusion-frame/1",
        "scalar": "complex",
        "ambient_dim": dim,
        "subspaces": [
            {
                "weight": w,
                "basis": [[[float(x.real), float(x.imag)] for x in col] for col in b.T],
            }
            for b, w in system
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
