"""Finite-dimensional fusion frame toolkit.

Construction, frame operators and optimal bounds, canonical and
alternative duals, tensor products of systems, resolutions of the
identity, and a seeded verification campaign over all of the above.
"""

from .errors import (
    ArityMismatch,
    BadParameters,
    DimensionMismatch,
    FusionFrameError,
    NotADual,
    NotAFrame,
    NotHermitian,
    NotUnitary,
    Singular,
    ZeroSubspace,
)
from .fileformat import ParseError, load_system, loads_system, dumps_system, save_system
from .frames import (
    FrameBounds,
    FusionSystem,
    WeightedSubspace,
    canonical_dual,
    check_resolution_of_identity,
    frame_bounds,
    frame_operator,
    frame_operator_norms,
    inverse_frame_operator,
    is_alternative_dual,
    projection,
    reconstruct,
    reconstruct_canonical,
    transport_subspace,
)
from .linalg import (
    KronOperator,
    Spectrum,
    SubspaceBasis,
    hermitian_eig,
    invert,
    kron,
    operator_norm,
    orthonormalize,
    tensor_vector,
)
from .tensor import (
    RoiFamily,
    TensorSystem,
    alt_dual_frame_check,
    canonical_dual_tensor,
    check_operator_factorization,
    is_alternative_dual_tensor,
    roi_tensor,
    tensor_frame_bounds,
    tensor_system,
    transport_tensor_system,
)
from .verify import THEOREM_IDS, CheckSpec, VerificationReport, random_fusion_system, run_checks

__version__ = "0.1.0"
