"""The public API: what a user computes, and nothing that only tests need."""

import types

import fusionframes

PUBLIC = {
    # errors
    "ArityMismatch", "BadParameters", "DimensionMismatch", "FusionFrameError", "NotADual",
    "NotAFrame", "NotUnitary", "ParseError", "Singular", "ZeroSubspace",
    # linalg
    "KronOperator", "Spectrum", "SubspaceBasis", "orthonormalize",
    # frames
    "FrameBounds", "FusionSystem", "WeightedSubspace", "canonical_dual", "frame_bounds",
    "frame_operator", "frame_operator_norms", "inverse_frame_operator", "is_alternative_dual",
    "projection", "reconstruct",
    # tensor
    "RoiFamily", "TensorSystem", "alt_dual_frame_check", "canonical_dual_tensor",
    "check_operator_factorization", "is_alternative_dual_tensor", "roi_tensor",
    "tensor_frame_bounds", "tensor_system", "transport_tensor_system",
    # fileformat
    "dumps_system", "load_system", "loads_system", "save_system",
    # verify
    "CheckSpec", "THEOREM_IDS", "VerificationReport", "random_fusion_system", "run_checks",
}


def test_public_names_are_pinned():
    names = {
        n for n in dir(fusionframes)
        if not n.startswith("_") and not isinstance(getattr(fusionframes, n), types.ModuleType)
    }
    assert names == PUBLIC
