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
from itertools import chain

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
    try:
        if _is_number(e):
            return complex(e)
        if isinstance(e, list) and len(e) == 2 and all(_is_number(x) for x in e):
            return complex(e[0], e[1])
    except OverflowError:
        raise ParseError(f"matrix entry too large for a float: {e!r}") from None
    raise ParseError(f"bad matrix entry: {e!r}")


# Exact JSON number types; ``type(True) is bool``, so booleans never match.
_NUMBER_TYPES = {int, float}


def _column_to_complex(col: list) -> np.ndarray:
    """One basis column as a complex vector.

    A column of plain numbers, or of ``[re, im]`` number pairs only, is
    converted as one float array.  Pairs are reinterpreted in place as
    complex128, which keeps a ``-0.0`` imaginary part that ``re + 1j * im``
    would turn into ``+0.0``.  Any other column, and a column holding an
    integer too large for a float, goes entry by entry through
    :func:`_entry_to_complex`, which accepts mixed numbers and pairs and
    raises the precise ``ParseError`` for anything else.
    """
    types = set(map(type, col))
    pairs = (
        types == {list}
        and set(map(len, col)) == {2}
        and set(map(type, chain.from_iterable(col))) <= _NUMBER_TYPES
    )
    if types <= _NUMBER_TYPES or pairs:
        try:
            a = np.array(col, dtype=float)  # a fresh C-contiguous array
        except OverflowError:
            pass
        else:
            return a.view(complex)[:, 0] if pairs else a.astype(complex)
    return np.array([_entry_to_complex(e) for e in col])


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
            try:
                weight = float(weight)
            except OverflowError:
                raise ParseError(f"subspace {k}: weight too large for a float") from None
            cols = sub["basis"]
            if not isinstance(cols, list) or not cols:
                raise ParseError(f"subspace {k}: empty basis")
            vecs = []
            for col in cols:
                if not isinstance(col, list) or len(col) != dim:
                    raise ParseError(f"subspace {k}: column length != ambient_dim")
                vecs.append(_column_to_complex(col))
            try:
                basis = SubspaceBasis(np.column_stack(vecs))
            except ValueError:
                basis = orthonormalize(vecs)
            members.append(WeightedSubspace(basis=basis, weight=weight))
        return FusionSystem(ambient_dim=dim, members=tuple(members))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, FusionFrameError) as exc:
        raise ParseError(str(exc)) from exc


# Indentation of each nesting level in the ``json.dumps(..., indent=2)`` layout.
_INDENT = [" " * (2 * level) for level in range(7)]


def _column_template(dim: int, is_real: bool) -> str:
    """``%``-template of one basis column, one ``%r`` per float."""
    if is_real:
        entry = "%r"
    else:
        entry = f"[\n{_INDENT[6]}%r,\n{_INDENT[6]}%r\n{_INDENT[5]}]"
    return f"[\n{_INDENT[5]}" + f",\n{_INDENT[5]}".join([entry] * dim) + f"\n{_INDENT[4]}]"


def dumps_system(sys: FusionSystem) -> str:
    """The fusion-frame/1 text of a system, byte for byte what
    ``json.dumps(<file dict>, indent=2) + "\n"`` gives.

    Entries are finite (``SubspaceBasis`` refuses others), and ``%r`` of a
    finite float is exactly the JSON encoder's number text.
    """
    is_real = not any(np.any(m.basis.matrix.imag) for m in sys.members)
    column = _column_template(sys.ambient_dim, is_real)
    blocks = []
    for m in sys.members:
        cols = m.basis.matrix.T
        flat = cols.real if is_real else np.stack((cols.real, cols.imag), axis=-1)
        basis = f",\n{_INDENT[4]}".join([column] * cols.shape[0]) % tuple(flat.ravel().tolist())
        blocks.append(
            f"{_INDENT[2]}{{\n"
            f'{_INDENT[3]}"weight": {float(m.weight)!r},\n'
            f'{_INDENT[3]}"basis": [\n{_INDENT[4]}{basis}\n{_INDENT[3]}]\n'
            f"{_INDENT[2]}}}"
        )
    subspaces = ",\n".join(blocks)
    return (
        "{\n"
        f'{_INDENT[1]}"format_version": "{FORMAT_VERSION}",\n'
        f'{_INDENT[1]}"scalar": "{"real" if is_real else "complex"}",\n'
        f'{_INDENT[1]}"ambient_dim": {json.dumps(sys.ambient_dim)},\n'
        f'{_INDENT[1]}"subspaces": [\n{subspaces}\n{_INDENT[1]}]\n'
        "}\n"
    )


def loads_system(text: str) -> FusionSystem:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text: {exc}") from exc
