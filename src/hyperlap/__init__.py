"""Eigenvalue bounds for the Laplacian on hyperbolic space, at desk scale.

Closed-form bound constants, a certified Legendre-Galerkin/finite-difference
eigenvalue sweep for the separated strip family, counting-function and
Riesz-mean bound verification, and quadrature checks of the dual
kinetic-energy inequality.
"""

from .constants import (
    EXCESS,
    constant_ratio,
    counting_constant,
    kinetic_constant,
    lt_best_known,
    lt_classical,
    product_counting_constant,
)
from .counting import (
    BoundReport,
    CountingFunction,
    counting_rhs,
    polya_rhs,
    polya_rows,
    product_counting_rhs,
    product_riesz_rhs,
    ratio_rows,
    verify_bound,
)
from .discretize import (
    GalerkinFamily,
    Interval,
    TridiagOperator,
    assemble_fd,
    assemble_galerkin,
)
from .errors import (
    CertificationError,
    ConvergenceError,
    IncompleteTableError,
    QuadratureError,
)
from .lt_verify import (
    BoxPotential,
    LTReport,
    ProductDomain,
    SobolevReport,
    SobolevTrialFunction,
    TRIAL_NAMES,
    family_table,
    hyperbolic_volume,
    lt_check,
    potential_integral,
    sobolev_check,
    trial_profile,
)
from .sl_family import (
    EigenTable,
    solve_certified,
    sweep,
    table_rows_from_csv,
)

__version__ = "0.1.0"

__all__ = [
    "EXCESS",
    "BoundReport",
    "BoxPotential",
    "CertificationError",
    "ConvergenceError",
    "CountingFunction",
    "EigenTable",
    "GalerkinFamily",
    "IncompleteTableError",
    "Interval",
    "LTReport",
    "ProductDomain",
    "QuadratureError",
    "SobolevReport",
    "SobolevTrialFunction",
    "TridiagOperator",
    "TRIAL_NAMES",
    "assemble_fd",
    "assemble_galerkin",
    "constant_ratio",
    "counting_constant",
    "counting_rhs",
    "family_table",
    "hyperbolic_volume",
    "kinetic_constant",
    "lt_best_known",
    "lt_check",
    "lt_classical",
    "polya_rhs",
    "polya_rows",
    "potential_integral",
    "product_counting_constant",
    "product_counting_rhs",
    "product_riesz_rhs",
    "ratio_rows",
    "sobolev_check",
    "solve_certified",
    "sweep",
    "table_rows_from_csv",
    "trial_profile",
    "verify_bound",
]
