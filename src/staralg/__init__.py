"""staralg: dense complex-matrix toolkit for the operator system
b X a = b = a X b, the star partial order, and their characterizations.

The library is organized as:

- ``matcore``:   SVD, pseudoinverse, projectors, residual conventions
- ``starorder``: the order predicate, its block witness, range inclusion
- ``solvers``:   closed-form solution families and system diagnostics
- ``chars``:     characterizations via projections and (generalized) idempotents
- ``genlab``:    seeded, bit-reproducible instance generators
- ``verify``:    claim suites plus an independent least-squares oracle
- ``cli``:       matrix file format and the ``staralg`` command
"""

from .errors import (
    MatrixFormatError,
    NotComparableError,
    NumericError,
    PreconditionError,
    StaralgError,
    UnsolvableError,
)
from .matcore import (
    DEFAULT_TOL,
    Svd,
    Tol,
    adj,
    as_cmat,
    hermitian_defect,
    idempotent_defect,
    is_projector,
    meet_projector,
    pinv,
    projectors,
    rank_of,
    rel_residual,
    svd,
)
from .starorder import (
    StarWitness,
    range_included,
    range_inclusion_residual,
    star_leq,
    star_leq_witness,
    star_residuals,
)
from .solvers import (
    SolutionFamily,
    douglas_solve,
    hermitian_system_solve,
    prop_main_check,
    reduce_system,
    sandwich_solve,
    solves_system,
    system_criterion_residual,
    system_family,
    system_general,
    system_hermitian,
    system_particular,
    system_solvable,
)
from .chars import (
    common_lower_bound,
    deng_decompose,
    gp_check,
    gp_decompose,
    idempotent_split,
    is_generalized_projection,
    meet_split,
    pbq_char,
    projector_char,
)
from .genlab import (
    PRNG_NAME,
    Seed,
    SplitMix64,
    gen_gp,
    gen_idempotent,
    gen_rank_r,
    gen_star_pair,
    gen_thm23_instance,
    gen_unitary,
)
from .report import Check, Report, to_line
from .verify import NEG_FLOOR, SUITE_DESCRIPTIONS, SUITE_NAMES, lsq_oracle, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "StaralgError",
    "PreconditionError",
    "NotComparableError",
    "UnsolvableError",
    "NumericError",
    "MatrixFormatError",
    "Tol",
    "DEFAULT_TOL",
    "Svd",
    "adj",
    "as_cmat",
    "svd",
    "rank_of",
    "pinv",
    "projectors",
    "meet_projector",
    "rel_residual",
    "hermitian_defect",
    "idempotent_defect",
    "is_projector",
    "StarWitness",
    "star_residuals",
    "star_leq",
    "star_leq_witness",
    "range_included",
    "range_inclusion_residual",
    "SolutionFamily",
    "douglas_solve",
    "sandwich_solve",
    "system_criterion_residual",
    "system_solvable",
    "system_particular",
    "system_family",
    "system_general",
    "solves_system",
    "reduce_system",
    "hermitian_system_solve",
    "system_hermitian",
    "prop_main_check",
    "projector_char",
    "pbq_char",
    "deng_decompose",
    "gp_check",
    "is_generalized_projection",
    "gp_decompose",
    "meet_split",
    "idempotent_split",
    "common_lower_bound",
    "PRNG_NAME",
    "Seed",
    "SplitMix64",
    "gen_unitary",
    "gen_rank_r",
    "gen_star_pair",
    "gen_gp",
    "gen_idempotent",
    "gen_thm23_instance",
    "Check",
    "Report",
    "to_line",
    "NEG_FLOOR",
    "SUITE_NAMES",
    "SUITE_DESCRIPTIONS",
    "lsq_oracle",
    "run_suite",
]
