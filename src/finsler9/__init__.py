"""Cubic-metric geometry of a 9-dimensional flat space and its mechanics."""

from .exceptions import (
    BlockLeakage,
    DegeneratePath,
    FinslerError,
    InconsistentMomenta,
    IsotropicVelocity,
    NonMonotone,
    NonRealEntry,
    NonTimelike,
    NotHermitian,
    NotUnimodular,
    NotUnitSpeed,
    SingularMomentumMatrix,
)
from .geometry import (
    LAMBDA_DUAL,
    LAMBDA_MATRICES,
    CubicMetric,
    conjugation_action,
    cubic_form,
    group_action,
    matrix_to_vec,
    metric_coefficients,
    random_unimodular,
    vec_to_matrix,
)
from .dynamics import (
    DEFAULT_KAPPA,
    ISOTROPY_EPS,
    Trajectory,
    action_stationarity_check,
    arc_length,
    canonical_energy,
    canonical_momenta,
    discrete_action,
    general_solution,
    invert_momenta,
    lagrangian,
    matrix_identity_residual,
    momenta_matrix,
    momentum_constraint_residual,
    random_nonisotropic_velocity,
    reparametrize,
    transform_momenta,
    unit_speed_velocity,
)
from .minkowski import (
    MINKOWSKI_METRIC,
    assemble_velocity,
    block_split_check,
    constraint_residual,
    embed_sl2,
    lorentz_residual,
    minkowski_norm_sq,
    reduced_action_check,
    solve_x8dot,
)
from .checks import CHECK_NAMES, run_checks

__version__ = "0.3.0"
