"""witness-forge: entanglement witnesses from density matrices.

Construct witnesses in the forms c*I - sigma and sigma - c*I, compute
the admissible offset intervals by optimizing over product states
(see-saw with seeded restarts, plus a brute-force grid oracle), and
extend bipartite witnesses to more parties by purification, partial
purification, and tensor extension.
"""

from __future__ import annotations

from .errors import (
    BadPartyIndex,
    ConvergenceError,
    COutOfInterval,
    CountTooLarge,
    CPrimeOutOfInterval,
    DimensionMismatch,
    DomainError,
    FormNotSupported,
    InputError,
    MaxEigenvalueNotSelected,
    NoConvergence,
    NotHermitian,
    NotOrthonormal,
    ParamOutOfRange,
    ParseError,
    SelectionOutOfRange,
    UnnormalizedTail,
    UnsupportedDims,
    WitnessForgeError,
    exit_code_for,
)
from .linalg import (
    ComplexMatrix,
    ComplexVector,
    SpectralDecomposition,
    hermitian_eig,
    partial_trace,
    partial_transpose,
)
from .qstate import (
    DensityMatrix,
    PureState,
    PurificationSelection,
    isotropic,
    partial_purify,
    projector,
    purify,
    spectral,
)
from .witness import (
    OptResult,
    ProductState,
    Witness,
    WitnessForm,
    WitnessReport,
    evaluate,
    is_ces,
    make_witness,
    max_product_expectation,
    min_product_expectation,
    verify_witness,
)
from .oracle import exhaustive_witness_check, grid_product_extremum
from .extend import (
    count_partial_purifications,
    detect_product_extension,
    enumerate_partial_purifications,
    identity_extend,
    mixed_tensor_extend,
    partial_purify_extend,
    pure_tails_extend,
    purify_extend,
    purify_extend_n,
)
from .fileio import (
    dumps_canonical,
    encode_matrix_obj,
    parse_matrix_file,
    parse_matrix_obj,
    write_matrix_file,
)

__version__ = "0.1.0"

__all__ = [
    "BadPartyIndex",
    "ComplexMatrix",
    "ComplexVector",
    "ConvergenceError",
    "COutOfInterval",
    "CountTooLarge",
    "CPrimeOutOfInterval",
    "DensityMatrix",
    "DimensionMismatch",
    "DomainError",
    "FormNotSupported",
    "InputError",
    "MaxEigenvalueNotSelected",
    "NoConvergence",
    "NotHermitian",
    "NotOrthonormal",
    "OptResult",
    "ParamOutOfRange",
    "ParseError",
    "ProductState",
    "PureState",
    "PurificationSelection",
    "SelectionOutOfRange",
    "SpectralDecomposition",
    "UnnormalizedTail",
    "UnsupportedDims",
    "Witness",
    "WitnessForgeError",
    "WitnessForm",
    "WitnessReport",
    "count_partial_purifications",
    "detect_product_extension",
    "dumps_canonical",
    "encode_matrix_obj",
    "enumerate_partial_purifications",
    "evaluate",
    "exhaustive_witness_check",
    "exit_code_for",
    "grid_product_extremum",
    "hermitian_eig",
    "identity_extend",
    "is_ces",
    "isotropic",
    "make_witness",
    "max_product_expectation",
    "min_product_expectation",
    "mixed_tensor_extend",
    "partial_purify",
    "partial_purify_extend",
    "partial_trace",
    "partial_transpose",
    "parse_matrix_file",
    "parse_matrix_obj",
    "projector",
    "pure_tails_extend",
    "purify",
    "purify_extend",
    "purify_extend_n",
    "spectral",
    "verify_witness",
    "write_matrix_file",
]
