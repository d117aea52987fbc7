"""Matrix equilibration, exact and matrix-free stochastic.

The package scales square signed matrices so that every row and column has
roughly unit 2-norm. The exact algorithms need element access; the
stochastic ones see the matrix only through products with probe vectors,
which is what makes them usable when the matrix is an opaque operator.
"""

from equilibrate.corpus import CorpusSpec, generate, read_spec_file, spec_name
from equilibrate.diagnostics import (
    CONDITION_SIZE_CAP,
    condition_number,
    convergence_history,
    ratio,
    row_sum_variance,
)
from equilibrate.errors import (
    ConfigError,
    DegenerateProbe,
    DimensionMismatch,
    EquilibrateError,
    GenerationFailed,
    MatrixMarketError,
    SizeCapExceeded,
    ZeroRowOrColumn,
)
from equilibrate.exact import (
    ConvergenceHistory,
    ExactOptions,
    equilibrate_2norm,
    inf_norm_scale,
    jacobi_scale,
    sinkhorn_knopp,
    sym_sinkhorn_knopp,
)
from equilibrate.io import (
    RunReport,
    read_matrix_market,
    write_matrix_market,
    write_report,
)
from equilibrate.matrix import (
    DiagonalScaling,
    LinearOperator,
    SparseMatrix,
    elementwise_square,
    from_sparse,
    scale,
)
from equilibrate.stochastic import (
    OmegaSchedule,
    ProbeSource,
    estimate_bx,
    snbin,
    ssbin,
)
from equilibrate.structure import (
    StructureReport,
    has_support,
    has_total_support,
    is_irreducible,
    structure_report,
)

__version__ = "0.1.0"

__all__ = [
    "CONDITION_SIZE_CAP",
    "ConfigError",
    "ConvergenceHistory",
    "CorpusSpec",
    "DegenerateProbe",
    "DiagonalScaling",
    "DimensionMismatch",
    "EquilibrateError",
    "ExactOptions",
    "GenerationFailed",
    "LinearOperator",
    "MatrixMarketError",
    "OmegaSchedule",
    "ProbeSource",
    "RunReport",
    "SizeCapExceeded",
    "SparseMatrix",
    "StructureReport",
    "ZeroRowOrColumn",
    "condition_number",
    "convergence_history",
    "elementwise_square",
    "equilibrate_2norm",
    "estimate_bx",
    "from_sparse",
    "generate",
    "has_support",
    "has_total_support",
    "inf_norm_scale",
    "is_irreducible",
    "jacobi_scale",
    "ratio",
    "read_matrix_market",
    "read_spec_file",
    "row_sum_variance",
    "scale",
    "sinkhorn_knopp",
    "snbin",
    "spec_name",
    "ssbin",
    "structure_report",
    "sym_sinkhorn_knopp",
    "write_matrix_market",
    "write_report",
]
