"""fusion-frame/1 reader and writer: bytes, round trips and the column fast path."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionframes import (
    FusionSystem,
    SubspaceBasis,
    WeightedSubspace,
    dumps_system,
    load_system,
    loads_system,
)
from fusionframes.cli import main
from fusionframes.fileformat import ParseError, _column_to_complex, _entry_to_complex

HUGE = 10**400  # 401 digits: a valid JSON integer that no float can hold


def reference_text(sys_: FusionSystem) -> str:
    """The file layout as ``json.dumps(indent=2)`` lays out the file's dict."""
    is_real = all(np.allclose(m.basis.matrix.imag, 0.0, atol=0.0) for m in sys_.members)
    subspaces = []
    for m in sys_.members:
        cols = m.basis.matrix.T
        if is_real:
            cols = cols.real.tolist()
        else:
            cols = np.stack((cols.real, cols.imag), axis=-1).tolist()
        subspaces.append({"weight": float(m.weight), "basis": cols})
    data = {
        "format_version": "fusion-frame/1",
        "scalar": "real" if is_real else "complex",
        "ambient_dim": sys_.ambient_dim,
        "subspaces": subspaces,
    }
    return json.dumps(data, indent=2) + "\n"


def per_entry(col) -> np.ndarray:
    return np.array([_entry_to_complex(e) for e in col])


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(part(actual), part(expected))
        np.testing.assert_array_equal(np.signbit(part(actual)), np.signbit(part(expected)))


# Entries far below the orthonormality tolerance, signed zeros and subnormals
# included; a block of them leaves a basis orthonormal.
TINY = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.5e-16, -1e-15])

# A system here has at most 6 * 8 = 48 basis columns, and FusionSystem
# refuses one whose 2 * sum v_i^2 * dim V_i overflows: 2 * 48 * 1.3e153**2
# is 1.6e308, so every weight up to 1.3e153 keeps every drawn system valid.
WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 0.5, 5e-324, 1e-300, 1e150, 1.3e153]) | (
    st.floats(min_value=1e-300, max_value=1e150)
)


def _tiny_block(rng, rows, cols):
    out = rng.choice(TINY, (rows, cols))
    generic = rng.random((rows, cols)) < 0.5
    logs = rng.uniform(-300, -15, (rows, cols))
    return np.where(generic, np.sign(rng.standard_normal((rows, cols))) * 10.0**logs, out)


@st.composite
def systems(draw):
    """Valid systems whose entries reach every kind of float text.

    Each basis is a block on some rows (an orthonormal QR factor, or a
    signed identity with integral entries and signed zeros) and tiny
    entries on the others.
    """
    dim = draw(st.integers(1, 8))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, dim))
        rows = draw(st.integers(k, dim))
        if draw(st.booleans()):
            block = np.eye(rows, k) * rng.choice([1.0, -1.0], k)
            block[block == 0] *= rng.choice([1.0, -1.0], block.shape)[block == 0]
            block = block + 0j
            if is_complex:
                block.imag = rng.choice([0.0, -0.0], block.shape)
        else:
            g = rng.standard_normal((rows, k))
            if is_complex:
                g = g + 1j * rng.standard_normal((rows, k))
            block = np.linalg.qr(g)[0] + 0j
        rest = _tiny_block(rng, dim - rows, k) + 0j
        if is_complex:
            rest.imag = _tiny_block(rng, dim - rows, k)
        matrix = np.vstack((block, rest))[rng.permutation(dim)]
        members.append(WeightedSubspace(SubspaceBasis(matrix), draw(WEIGHTS)))
    return FusionSystem(dim, tuple(members))


NUMBERS = (
    st.floats(min_value=1e-300, max_value=1e300)
    | st.floats(min_value=-1e300, max_value=-1e-300)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.0])
    | st.integers(-(2**64), 2**64)
    | st.sampled_from([2**53 + 1, 10**300, -(10**300)])
)


NEGATIVE_ZERO_IMAG = FusionSystem(2, (
    WeightedSubspace(SubspaceBasis(np.array([[complex(0.6, -0.0)], [complex(0.0, -0.8)]])), 1.0),
))


class TestWriterAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(systems())
    @example(NEGATIVE_ZERO_IMAG)
    def test_bytes_round_trip_and_loaded_bits(self, sys_):
        text = dumps_system(sys_)
        assert text == reference_text(sys_)
        loaded = loads_system(text)
        assert dumps_system(loaded) == text
        for member, raw in zip(loaded.members, json.loads(text)["subspaces"]):
            expected = np.column_stack([per_entry(col) for col in raw["basis"]])
            assert_same_bits(member.basis.matrix, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(NUMBERS, min_size=1, max_size=8)
        | st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=8)
    )
    def test_column_path_matches_per_entry_parse(self, col):
        assert_same_bits(_column_to_complex(col), per_entry(col))


V2 = {
    "format_version": "fusion-frame/1",
    "scalar": "real",
    "ambient_dim": 2,
    "subspaces": [
        {"weight": 1.0, "basis": [[1.0, 0.0]]},
        {"weight": 1.0, "basis": [[0.7071067811865476, 0.7071067811865476]]},
    ],
}


def _with_basis(basis, weight=1.0):
    return {**V2, "subspaces": [{"weight": weight, "basis": basis}]}


class TestLoaderColumns:
    @pytest.mark.parametrize(
        "data",
        [
            _with_basis([["1.0", 0.0]]),
            _with_basis([[1.0, True]]),
            _with_basis([[["1.0", 0.0], [0.0, 0.0]]]),
            _with_basis([[[1.0], [0.0]]]),
            _with_basis([[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]),
            _with_basis([[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]),
            _with_basis([[[1.0, 0.0], [0.0]]]),
            _with_basis([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]),
            _with_basis([[HUGE, 0.0]]),
            _with_basis([[[HUGE, 0], [0, 0]]]),
            _with_basis([[1.0, 0.0]], weight=HUGE),
        ],
        ids=[
            "string", "bool", "string-in-pair", "pair-1-long", "pair-3-long", "pair-4-long",
            "pair-ragged", "nested-too-deep",
            "huge-int-entry", "huge-int-pair", "huge-int-weight",
        ],
    )
    def test_refused(self, data, tmp_path, capsys):
        text = json.dumps(data)
        with pytest.raises(ParseError):
            loads_system(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["check", "--in", str(path)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_integer_over_the_digit_limit_exits_3(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(V2).replace("1.0", "1" * 5000, 1))
        assert main(["check", "--in", str(path)]) == 3

    def test_mixed_numbers_and_pairs(self):
        sys_ = loads_system(json.dumps(_with_basis([[0.6, [0.0, -0.8]]])))
        assert_same_bits(sys_.members[0].basis.matrix[:, 0], [0.6 + 0j, complex(0.0, -0.8)])


class TestUnreadableFiles:
    def test_non_utf8_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(V2).encode("utf-16-le"))
        with pytest.raises(ParseError, match="utf16.json"):
            load_system(str(path))
        assert main(["check", "--in", str(path)]) == 3
        assert "Traceback" not in capsys.readouterr().err
