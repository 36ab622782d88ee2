"""Extremal eigenpairs of large Hankel tensors.

A Hankel tensor is stored as its generating vector alone; tensor-vector
products are real-FFT correlations of that vector, and extremal Z-, H-,
and generalized eigenpairs come from a curvilinear search on the unit
sphere.  A dense brute-force oracle validates the FFT products.
"""

__version__ = "0.1.0"

from .dense_oracle import (
    DEFAULT_ENTRY_CAP,
    DenseSymmetricTensor,
    OracleCapError,
    dense_hessian,
    dense_xm,
    dense_xm1,
    dense_xm2,
    materialize,
)
from .fft_products import (
    HankelSpec,
    SpectralCache,
    hankel_xm,
    hankel_xm1,
    make_cache,
)
from .generators import (
    Family,
    FamilySpec,
    generate,
    hilbert_bounds,
    vandermonde_reference,
)
from .objective import (
    BTensorKind,
    InvalidReferenceTensorError,
    ObjectiveEval,
    ReferenceProducts,
    b_xm,
    b_xm1,
    b_xm2,
    evaluate,
    residual,
)
from .solver import (
    EigenResult,
    Extreme,
    IterationRecord,
    LineSearchStallError,
    MultistartOutcome,
    OccurrenceBin,
    ResultOverflowError,
    SolverOptions,
    SolveStats,
    Termination,
    UnsupportedOrderError,
    bb_initial_step,
    cayley_step,
    curvilinear_search,
    multistart,
    power_method_baseline,
    solve,
    step_length,
)

__all__ = [
    "__version__",
    "HankelSpec",
    "SpectralCache",
    "make_cache",
    "hankel_xm",
    "hankel_xm1",
    "DenseSymmetricTensor",
    "OracleCapError",
    "DEFAULT_ENTRY_CAP",
    "materialize",
    "dense_xm",
    "dense_xm1",
    "dense_xm2",
    "dense_hessian",
    "BTensorKind",
    "ReferenceProducts",
    "ObjectiveEval",
    "InvalidReferenceTensorError",
    "b_xm",
    "b_xm1",
    "b_xm2",
    "evaluate",
    "residual",
    "Extreme",
    "Termination",
    "SolverOptions",
    "IterationRecord",
    "SolveStats",
    "EigenResult",
    "OccurrenceBin",
    "MultistartOutcome",
    "UnsupportedOrderError",
    "LineSearchStallError",
    "ResultOverflowError",
    "cayley_step",
    "step_length",
    "curvilinear_search",
    "bb_initial_step",
    "solve",
    "multistart",
    "power_method_baseline",
    "Family",
    "FamilySpec",
    "generate",
    "vandermonde_reference",
    "hilbert_bounds",
]
