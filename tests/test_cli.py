import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from fusionframes import dumps_system, load_system, loads_system, projection, save_system
from fusionframes.cli import main
from fusionframes.fileformat import ParseError

V2_FILE = {
    "format_version": "fusion-frame/1",
    "scalar": "real",
    "ambient_dim": 2,
    "subspaces": [
        {"weight": 1.0, "basis": [[1.0, 0.0]]},
        {"weight": 1.0, "basis": [[0.7071067811865476, 0.7071067811865476]]},
    ],
}


@pytest.fixture
def v2_path(tmp_path):
    p = tmp_path / "v2.json"
    p.write_text(json.dumps(V2_FILE))
    return str(p)


@pytest.fixture
def parseval_path(tmp_path):
    data = {
        "format_version": "fusion-frame/1",
        "scalar": "real",
        "ambient_dim": 2,
        "subspaces": [
            {"weight": 1.0, "basis": [[1.0, 0.0]]},
            {"weight": 1.0, "basis": [[0.0, 1.0]]},
        ],
    }
    p = tmp_path / "parseval.json"
    p.write_text(json.dumps(data))
    return str(p)


@pytest.fixture
def nonframe_path(tmp_path):
    data = {
        "format_version": "fusion-frame/1",
        "scalar": "real",
        "ambient_dim": 2,
        "subspaces": [
            {"weight": 1.0, "basis": [[1.0, 0.0]]},
            {"weight": 1.0, "basis": [[1.0, 0.0]]},
        ],
    }
    p = tmp_path / "nonframe.json"
    p.write_text(json.dumps(data))
    return str(p)


class TestFileFormat:
    def test_roundtrip_canonical_bytes(self, v2_path):
        sys_ = load_system(v2_path)
        text = dumps_system(sys_)
        assert dumps_system(loads_system(text)) == text

    def test_load_save_projections(self, tmp_path, v2_path):
        sys_ = load_system(v2_path)
        out = tmp_path / "copy.json"
        save_system(sys_, str(out))
        reloaded = load_system(str(out))
        for a, b in zip(sys_.members, reloaded.members):
            assert np.linalg.norm(projection(a.basis) - projection(b.basis)) <= 1e-12

    def test_complex_entries(self):
        data = dict(V2_FILE)
        data["scalar"] = "complex"
        data["subspaces"] = [{"weight": 2.0, "basis": [[[0.0, 1.0], [0.0, 0.0]]]}]
        sys_ = loads_system(json.dumps(data))
        assert sys_.members[0].basis.matrix[0, 0] == 1j

    def test_loader_orthonormalizes_spanning_sets(self):
        data = dict(V2_FILE)
        data["subspaces"] = [{"weight": 1.0, "basis": [[3.0, 4.0]]}]
        sys_ = loads_system(json.dumps(data))
        assert abs(np.linalg.norm(sys_.members[0].basis.matrix) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "mutation",
        [
            {"format_version": "fusion-frame/999"},
            {"ambient_dim": 0},
            {"subspaces": []},
            {"subspaces": [{"weight": -1.0, "basis": [[1.0, 0.0]]}]},
            {"subspaces": [{"weight": 1.0, "basis": []}]},
            {"subspaces": [{"weight": 1.0, "basis": [[1.0, 0.0, 0.0]]}]},
        ],
    )
    def test_rejects_malformed(self, mutation):
        data = {**V2_FILE, **mutation}
        with pytest.raises(ParseError):
            loads_system(json.dumps(data))

    def test_rejects_non_json(self):
        with pytest.raises(ParseError):
            loads_system("not json {")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"ambient_dim": True, "subspaces": [{"weight": 1.0, "basis": [[1.0]]}]},
            {"subspaces": [{"weight": True, "basis": [[1.0, 0.0]]}]},
            {"subspaces": [{"weight": 1.0, "basis": [[True, 0.0]]}]},
            {"subspaces": [{"weight": 1.0, "basis": [[[1.0, False], [0.0, 0.0]]]}]},
        ],
    )
    def test_rejects_json_booleans(self, mutation, tmp_path, capsys):
        text = json.dumps({**V2_FILE, **mutation})
        with pytest.raises(ParseError):
            loads_system(text)
        path = tmp_path / "bool.json"
        path.write_text(text)
        assert main(["check", "--in", str(path)]) == 3

    @pytest.mark.parametrize(
        "column, expected",
        [
            ([[1e200, 1e200], [1e200, -1e200]], [0.5 + 0.5j, 0.5 - 0.5j]),
            ([1e300, 1e308], [1e-8, 1.0]),
        ],
    )
    def test_loader_orthonormalizes_huge_entries_silently(self, column, expected):
        data = {**V2_FILE, "subspaces": [{"weight": 1.0, "basis": [column]}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys_ = loads_system(json.dumps(data))
        np.testing.assert_allclose(sys_.members[0].basis.matrix[:, 0], expected, atol=1e-15)


class TestGenerate:
    def test_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        rc = main(["generate", "--dim", "2", "--subspaces", "2", "--max-subdim", "1",
                   "--seed", "7", "--out", out])
        assert rc == 0
        sys_ = load_system(out)
        assert sys_.ambient_dim == 2 and len(sys_) == 2

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main(["generate", "--dim", "3", "--subspaces", "3", "--max-subdim", "2",
                         "--seed", "7", "--weights", "0.5:2", "--out", out]) == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_bad_max_subdim_exits_2(self, capsys):
        rc = main(["generate", "--dim", "2", "--subspaces", "2", "--max-subdim", "0",
                   "--seed", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_v2_bounds(self, v2_path, capsys):
        assert main(["check", "--in", v2_path]) == 0
        out = capsys.readouterr().out
        assert "is_frame: True" in out
        assert "0.292893" in out and "1.70710678" in out

    def test_parseval_tight(self, parseval_path, capsys):
        assert main(["check", "--in", parseval_path]) == 0
        out = capsys.readouterr().out
        assert "is_tight: True" in out

    def test_json_stable_keys(self, v2_path, capsys):
        assert main(["check", "--in", v2_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == [
            "format_version", "ambient_dim", "members", "is_frame", "is_tight",
            "lower", "upper", "frame_operator_norm", "inverse_frame_operator_norm",
        ]
        assert data["lower"] == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)

    def test_malformed_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert main(["check", "--in", str(p)]) == 3

    def test_deeply_nested_exits_3(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        assert main(["check", "--in", str(p)]) == 3
        assert "invalid JSON" in capsys.readouterr().err


class TestTensor:
    def test_v2_squared_bounds(self, v2_path, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["tensor", "--left", v2_path, "--right", v2_path, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "0.0857864" in printed and "2.91421" in printed
        ts = load_system(out)
        assert ts.ambient_dim == 4 and len(ts) == 4

    def test_parseval_tensor(self, parseval_path, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["tensor", "--left", parseval_path, "--right", parseval_path,
                     "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "A = 1" in printed and "B = 1" in printed

    def test_dim_guard_exits_2(self, tmp_path, capsys):
        big = str(tmp_path / "big.json")
        assert main(["generate", "--dim", "65", "--subspaces", "2", "--max-subdim", "1",
                     "--seed", "1", "--out", big]) == 0
        assert main(["tensor", "--left", big, "--right", big]) == 2

    def test_dim_cap_refuses_before_writing(self, tmp_path, capsys):
        paths = []
        for dim in (64, 65):
            paths.append(str(tmp_path / f"d{dim}.json"))
            assert main(["generate", "--dim", str(dim), "--subspaces", "1", "--max-subdim", "1",
                         "--seed", "1", "--out", paths[-1]]) == 0
        out = tmp_path / "t.json"
        assert main(["tensor", "--left", paths[0], "--right", paths[1], "--out", str(out)]) == 2
        assert "tensor dimension 4160 exceeds 4096" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_failure_exits_3(self, tmp_path, v2_path):
        p = tmp_path / "bad.json"
        p.write_text("[]")
        assert main(["tensor", "--left", v2_path, "--right", str(p)]) == 3


class TestDual:
    def test_v2_dual(self, v2_path, tmp_path, capsys):
        out = str(tmp_path / "d.json")
        assert main(["dual", "--in", v2_path, "--out", out]) == 0
        printed = capsys.readouterr().out
        residual = float(printed.split("residual:")[1].strip())
        assert residual <= 1e-10
        dual = load_system(out)
        np.testing.assert_allclose(
            projection(dual.members[1].basis), [[0, 0], [0, 1]], atol=1e-12
        )

    def test_parseval_self_dual(self, parseval_path, tmp_path):
        out = str(tmp_path / "d.json")
        assert main(["dual", "--in", parseval_path, "--out", out]) == 0
        dual = load_system(out)
        src = load_system(parseval_path)
        for a, b in zip(dual.members, src.members):
            assert np.linalg.norm(projection(a.basis) - projection(b.basis)) <= 1e-12

    def test_nonframe_exits_4(self, nonframe_path, capsys):
        assert main(["dual", "--in", nonframe_path]) == 4


class TestReconstruct:
    def test_v2_vector(self, v2_path, capsys):
        assert main(["reconstruct", "--in", v2_path, "--vector", "[1, 0]"]) == 0
        out = capsys.readouterr().out
        err = float(out.split("error:")[1].strip())
        assert err <= 1e-12

    def test_zero_vector(self, v2_path, capsys):
        assert main(["reconstruct", "--in", v2_path, "--vector", "[0, 0]"]) == 0
        out = capsys.readouterr().out
        assert "absolute error" in out
        assert float(out.split("error:")[1].strip()) <= 1e-14

    def test_with_explicit_dual(self, v2_path, tmp_path, capsys):
        dual = str(tmp_path / "d.json")
        assert main(["dual", "--in", v2_path, "--out", dual]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--in", v2_path, "--vector", "[0.5, -2]",
                     "--dual", dual]) == 0
        err = float(capsys.readouterr().out.split("error:")[1].strip())
        assert err <= 1e-10

    def test_nonframe_exits_4(self, nonframe_path):
        assert main(["reconstruct", "--in", nonframe_path, "--vector", "[1, 0]"]) == 4

    def test_nonframe_with_dual_exits_4(self, nonframe_path, capsys):
        assert main(["reconstruct", "--in", nonframe_path, "--vector", "[1, 0]",
                     "--dual", nonframe_path]) == 4
        assert "not invertible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vector",
        ["[true, 0]", "[[1, 0, 2], 0]", "[1", "[\"1\", 0]", "3",
         pytest.param("[" * 100000, id="deeply-nested")],
    )
    def test_bad_vector_exits_2(self, v2_path, vector):
        assert main(["reconstruct", "--in", v2_path, "--vector", vector]) == 2

    def test_huge_integer_vector_exits_2(self, v2_path, capsys):
        assert main(["reconstruct", "--in", v2_path, "--vector", f"[{10**400}, 0]"]) == 2
        assert "--vector" in capsys.readouterr().err

    def test_arity_mismatch_exits_5(self, v2_path, parseval_path, tmp_path):
        # A dual file with the wrong member count.
        data = dict(V2_FILE)
        data["subspaces"] = data["subspaces"][:1]
        p = tmp_path / "short.json"
        p.write_text(json.dumps(data))
        assert main(["reconstruct", "--in", v2_path, "--vector", "[1, 0]",
                     "--dual", str(p)]) == 5

    def test_dimension_mismatch_exits_5(self, v2_path, tmp_path, capsys):
        # A dual file with the right member count on a different space.
        data = {**V2_FILE, "ambient_dim": 3}
        data["subspaces"] = [{"weight": 1.0, "basis": [[1.0, 0.0, 0.0]]}] * 2
        p = tmp_path / "dim3.json"
        p.write_text(json.dumps(data))
        assert main(["reconstruct", "--in", v2_path, "--vector", "[1, 0]",
                     "--dual", str(p)]) == 5
        assert "different space" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_theorem(self, capsys):
        rc = main(["verify", "--theorems", "T3.5", "--trials", "5", "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["version", "seed", "checks"]
        assert report["checks"][0]["theorem_id"] == "T3.5"
        assert report["checks"][0]["passes"] == 5

    def test_unknown_theorem_exits_2(self, capsys):
        assert main(["verify", "--theorems", "T9.9"]) == 2
        assert "T9.9" in capsys.readouterr().err

    def test_report_key_order(self, capsys):
        assert main(["verify", "--theorems", "D2.10", "--trials", "2", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["checks"][0]) == [
            "theorem_id", "trials", "passes", "worst_residual", "tolerance",
        ]
