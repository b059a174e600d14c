"""The public signatures, pinned: an added or removed parameter is a one-line diff."""

import inspect

from contract import exported_callables

#: Parameter names of every callable that ``finsler9`` exports, exceptions
#: aside (they take a message).
SIGNATURES = {
    "CubicMetric": ("coefficients",),
    "Trajectory": ("x0", "v0", "s_range"),
    "action_stationarity_check": ("traj", "eta", "amplitudes", "kappa", "samples"),
    "arc_length": ("tau", "positions"),
    "assemble_velocity": ("xdot03", "xdot47"),
    "block_split_check": ("d2",),
    "canonical_energy": ("xdot", "kappa"),
    "canonical_momenta": ("xdot", "kappa"),
    "conjugation_action": ("d", "x"),
    "constraint_residual": ("xdot",),
    "cubic_form": ("x",),
    "discrete_action": ("tau", "positions", "kappa"),
    "embed_sl2": ("d2",),
    "general_solution": ("x0", "v0", "s"),
    "group_action": ("d",),
    "invert_momenta": ("p", "kappa"),
    "lagrangian": ("xdot", "kappa"),
    "lorentz_residual": ("block",),
    "matrix_identity_residual": ("xdot", "kappa"),
    "matrix_to_vec": ("m",),
    "metric_coefficients": (),
    "minkowski_norm_sq": ("x4",),
    "momenta_matrix": ("p",),
    "momentum_constraint_residual": ("p", "kappa"),
    "random_nonisotropic_velocity": ("rng", "margin", "scale", "size"),
    "random_unimodular": ("rng", "n", "size"),
    "reduced_action_check": ("tau", "xdot4", "spinor", "mass", "light_speed", "kappa"),
    "reparametrize": ("traj", "s_of_tau", "tau"),
    "run_checks": ("seed", "trials", "tolerances"),
    "solve_x8dot": ("xdot03", "xdot47"),
    "transform_momenta": ("transform", "p"),
    "unit_speed_velocity": ("rng", "margin", "size"),
    "vec_to_matrix": ("x",),
}


def test_every_exported_callable_has_its_pinned_parameters():
    exported = {name: tuple(inspect.signature(obj).parameters)
                for name, obj in exported_callables().items()}
    assert exported == SIGNATURES
