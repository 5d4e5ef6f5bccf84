"""On-disk representation of a fusion system (JSON, format fusion-frame/1).

Layout:

    {
      "format_version": "fusion-frame/1",
      "scalar": "real" | "complex",
      "ambient_dim": 2,
      "subspaces": [
        {"weight": 1.0, "basis": [[[re, im], ...entries of column], ...columns]}
      ]
    }

Real files may store each entry as a plain number; the loader normalizes
to complex internally.  The loader orthonormalizes spanning sets, but
keeps an already-orthonormal basis untouched so that canonical files
round-trip byte-identically.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FusionFrameError
from .frames import FusionSystem, WeightedSubspace
from .linalg import SubspaceBasis, orthonormalize

FORMAT_VERSION = "fusion-frame/1"


class ParseError(FusionFrameError):
    """Malformed or unreadable frame file."""


def _is_number(x) -> bool:
    """JSON number; true and false are not numbers, although bool subclasses int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry_to_complex(e) -> complex:
    if _is_number(e):
        return complex(e)
    if isinstance(e, list) and len(e) == 2 and all(_is_number(x) for x in e):
        return complex(e[0], e[1])
    raise ParseError(f"bad matrix entry: {e!r}")


def system_to_dict(sys: FusionSystem) -> dict:
    is_real = all(np.allclose(m.basis.matrix.imag, 0.0, atol=0.0) for m in sys.members)
    subspaces = []
    for m in sys.members:
        cols = m.basis.matrix.T
        if is_real:
            cols = cols.real.tolist()
        else:
            cols = np.stack((cols.real, cols.imag), axis=-1).tolist()
        subspaces.append({"weight": float(m.weight), "basis": cols})
    return {
        "format_version": FORMAT_VERSION,
        "scalar": "real" if is_real else "complex",
        "ambient_dim": sys.ambient_dim,
        "subspaces": subspaces,
    }


def system_from_dict(data: dict) -> FusionSystem:
    try:
        if data.get("format_version") != FORMAT_VERSION:
            raise ParseError(f"unsupported format_version {data.get('format_version')!r}")
        dim = data["ambient_dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ParseError(f"bad ambient_dim {dim!r}")
        raw = data["subspaces"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("subspaces must be a nonempty list")
        members = []
        for k, sub in enumerate(raw):
            weight = sub["weight"]
            if not _is_number(weight) or weight <= 0:
                raise ParseError(f"subspace {k}: weight must be positive")
            cols = sub["basis"]
            if not isinstance(cols, list) or not cols:
                raise ParseError(f"subspace {k}: empty basis")
            vecs = []
            for col in cols:
                if not isinstance(col, list) or len(col) != dim:
                    raise ParseError(f"subspace {k}: column length != ambient_dim")
                vecs.append(np.array([_entry_to_complex(e) for e in col]))
            try:
                basis = SubspaceBasis(np.column_stack(vecs))
            except ValueError:
                basis = orthonormalize(vecs)
            members.append(WeightedSubspace(basis=basis, weight=float(weight)))
        return FusionSystem(ambient_dim=dim, members=tuple(members))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, FusionFrameError) as exc:
        raise ParseError(str(exc)) from exc


def dumps_system(sys: FusionSystem) -> str:
    return json.dumps(system_to_dict(sys), indent=2) + "\n"


def loads_system(text: str) -> FusionSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    return system_from_dict(data)


def save_system(sys: FusionSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_system(sys))


def load_system(path: str) -> FusionSystem:
    try:
        with open(path, encoding="utf-8") as fh:
            return loads_system(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
