"""Boundary-integral elasticity on spherical geometries.

A spectral Galerkin solver for 3D isotropic linear elasticity with
multiple spherical inclusions, built on closed-form eigendecompositions
of the elastic layer operators in the vector-spherical-harmonic basis,
together with a brute-force kernel oracle that certifies every closed
form.
"""

from .harmonics import (
    Family,
    ModeIndex,
    VshExpansion,
    eval_VWX,
    eval_Y,
    project,
    reconstruct,
    surface_gradient_Y,
    traction_of_radial_field,
    vsh_basis,
)
from .materials import LameParams, lambda_to_poisson, poisson_to_lambda
from .problem import (
    BoundaryData,
    ProblemConfig,
    SolverOptions,
    SphereSpec,
    ValidationError,
    build_sigma,
    load_config,
    save_config,
    validate,
)
from .quadrature import LebedevRule, SphereFrame, rule_for_degree
from .spectra import (
    MODE_AS_PRINTED,
    MODE_SELF_CONSISTENT,
    adjoint_double_eigs,
    apply_double_layer,
    apply_single_layer,
    audit_spectra,
    double_layer_matrix,
    single_layer_eigs,
    single_layer_matrix,
)
from .system import (
    DenseSystem,
    DofMap,
    Solution,
    SolverError,
    apply_operator,
    assemble,
    c_coefficient,
    solve,
    solve_direct,
    solve_iterative,
)
from .postprocess import (
    FieldEvaluator,
    ResonantDataError,
    one_sphere_reference,
    relative_error,
)

__version__ = "0.1.0"
