import numpy as np
import pytest

from fusionframes import (
    BadParameters,
    CheckSpec,
    THEOREM_IDS,
    frame_bounds,
    frame_operator,
    random_fusion_system,
    run_checks,
)
from fusionframes.verify import _CHECKS

# Full catalog of theorem checks, one entry per statement.
CATALOG_IDS = {
    "T2.1", "D2.3", "N2.5", "T2.7", "N2.8", "D2.9", "D2.10", "T2.13",
    "D3.1", "N3.3", "T3.4", "T3.5", "T3.7", "T3.8", "P3.10", "N3.11",
    "T3.12", "T4.1", "D4.2", "N4.3", "T4.4", "T4.5",
}


class TestRandomFusionSystem:
    def test_deterministic(self):
        a = random_fusion_system(2, 2, 1, (1.0, 1.0), 7)
        b = random_fusion_system(2, 2, 1, (1.0, 1.0), 7)
        for ma, mb in zip(a.members, b.members):
            np.testing.assert_array_equal(ma.basis.matrix, mb.basis.matrix)
            assert ma.weight == mb.weight

    def test_frame_operator_psd(self):
        sys_ = random_fusion_system(4, 3, 2, (0.5, 2.0), 1)
        ev = np.linalg.eigvalsh(frame_operator(sys_))
        assert ev[0] >= -1e-12 * max(ev[-1], 1.0)

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            random_fusion_system(4, 3, 0, (0.5, 2.0), 1)
        with pytest.raises(BadParameters):
            random_fusion_system(4, 3, 5, (0.5, 2.0), 1)
        with pytest.raises(BadParameters):
            random_fusion_system(4, 3, 2, (0.0, 2.0), 1)

    def test_subspace_dims_in_range(self):
        sys_ = random_fusion_system(5, 10, 3, (1.0, 2.0), 2)
        assert all(1 <= m.basis.sub_dim <= 3 for m in sys_.members)

    def test_weights_in_range(self):
        sys_ = random_fusion_system(4, 10, 2, (0.5, 0.75), 3)
        assert all(0.5 <= m.weight <= 0.75 for m in sys_.members)


class TestCheckSpec:
    def test_unknown_theorem_rejected(self):
        with pytest.raises(BadParameters):
            CheckSpec(theorems=("T9.9",))

    def test_bad_trials(self):
        with pytest.raises(BadParameters):
            CheckSpec(trials=0)

    def test_coverage_equals_catalog(self):
        assert set(THEOREM_IDS) == CATALOG_IDS
        assert len(THEOREM_IDS) == len(CATALOG_IDS)


class TestRunChecks:
    def test_small_campaign_passes(self):
        report = run_checks(CheckSpec(trials=3, seed=42, dims=((2, 4), (2, 4))))
        assert report.all_passed, report.failing
        assert len(report.checks) == len(THEOREM_IDS)
        for c in report.checks:
            assert c["passes"] == c["trials"] == 3
            assert c["worst_residual"] >= 0.0
            assert "witness" not in c

    def test_deterministic_report(self):
        spec = CheckSpec(theorems=("T3.5", "N2.8"), trials=5, seed=9)
        assert run_checks(spec).to_json() == run_checks(spec).to_json()

    def test_t4_5_passes_at_seed_0(self):
        # Trial 2 draws a tensor system with cond(S) = 1.4e6; an LU inverse of
        # S left a dual residual of 4.7e-8 there, above the 1e-8 tolerance.
        report = run_checks(CheckSpec(theorems=("T4.5",), trials=25, seed=0))
        assert report.all_passed, report.checks

    def test_t3_5_factorization_campaign(self):
        report = run_checks(CheckSpec(theorems=("T3.5",), trials=25, seed=42, dims=((2, 4), (2, 4))))
        (check,) = report.checks
        assert check["passes"] == 25
        assert check["worst_residual"] <= 1e-10

    def test_failure_records_witness(self, monkeypatch):
        # Impossible tolerance forces failures; they must be data, not raises.
        monkeypatch.setitem(_CHECKS, "N2.8", (_CHECKS["N2.8"][0], 0.0))
        spec = CheckSpec(theorems=("N2.8",), trials=2, seed=1)
        report = run_checks(spec)
        (check,) = report.checks
        assert check["passes"] < check["trials"]
        assert report.failing == ["N2.8"]
        witness = check["witness"]
        assert witness["rng_key"][0] == 1
        assert witness["residual"] > 0.0

    def test_witness_replays(self, monkeypatch):
        # The rng_key in a witness regenerates the exact failing instance.
        fn, _ = _CHECKS["D2.9"]
        monkeypatch.setitem(_CHECKS, "D2.9", (fn, 0.0))
        spec = CheckSpec(theorems=("D2.9",), trials=2, seed=5)
        report = run_checks(spec)
        witness = report.checks[0]["witness"]
        rng = np.random.default_rng(witness["rng_key"])
        residual = fn(rng, spec.dims)
        assert residual == witness["residual"]
