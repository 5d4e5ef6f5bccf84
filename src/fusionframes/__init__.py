"""Finite-dimensional fusion frame toolkit.

Construction, frame operators and optimal bounds, canonical and
alternative duals, tensor products of systems, resolutions of the
identity, and a seeded verification campaign over all of the above.
"""

import os

# OpenBLAS reads this once, when numpy first loads it, so it must be set
# before any import below pulls in numpy. By default an idle worker thread
# spins for 2**28 cycles (~0.1 s) after start-up and after every parallel
# call; at this package's sizes that spin buys no wall time and costs about
# a third of a short CLI process's CPU. 4 is the lowest value OpenBLAS
# accepts: idle workers sleep at once, and the next parallel call wakes
# them. The thread count is unchanged, so large problems stay parallel and
# results are bit-identical. A value the user has set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .errors import (
    ArityMismatch,
    BadParameters,
    DimensionMismatch,
    FusionFrameError,
    NotADual,
    NotAFrame,
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
    frame_bounds,
    frame_operator,
    frame_operator_norms,
    inverse_frame_operator,
    is_alternative_dual,
    projection,
    reconstruct,
)
from .linalg import (
    KronOperator,
    Spectrum,
    SubspaceBasis,
    orthonormalize,
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
