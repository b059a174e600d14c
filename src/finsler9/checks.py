"""Randomized invariant suite behind the ``check`` command.

Every library-level invariant runs here as a named check producing one
scaled residual per trial.  Check ``i`` draws from its own generator seeded
with ``[seed, i]``, so checks are independent of each other's draw counts
and could run in parallel; aggregation is a commutative max/min plus a
failure count.  Residuals are scaled so they compare directly against the
check's tolerance.

Each check is vectorised: it draws all of its trials as one block (the
samplers' ``size`` argument, rejected draws redrawn as a block) and
evaluates them with stacked array operations, so no loop runs once per
trial.  Residual ``t`` of a check still comes from trial ``t`` alone.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, minkowski
from .dynamics import (
    DEFAULT_KAPPA,
    Trajectory,
    canonical_energy,
    canonical_momenta,
    invert_momenta,
    lagrangian,
    matrix_identity_residual,
    momenta_matrix,
    momentum_constraint_residual,
    random_nonisotropic_velocity,
    transform_momenta,
    unit_speed_velocity,
)
from .geometry import (
    LAMBDA_DUAL,
    LAMBDA_MATRICES,
    conjugation_action,
    cubic_form,
    group_action,
    metric_coefficients,
    random_unimodular,
    vec_to_matrix,
)
from .minkowski import (
    assemble_velocity,
    block_split_check,
    constraint_residual,
    embed_sl2,
    lorentz_residual,
    reduced_action_check,
)


def _apply(ell, x):
    """``ell @ x`` for stacks of 9x9 matrices and 9-vectors."""
    return np.einsum("...ab,...b->...a", ell, x)


def _max_entry(a, axes=-1):
    """Largest absolute entry over the item ``axes``: one value per trial."""
    return np.abs(a).max(axis=axes)


def _random_timelike(rng, trials, spinor_cap=0.3):
    """4-velocities with g(v, v) in [0.3, 2.0] plus a capped spinor part."""
    spatial = rng.uniform(-0.5, 0.5, size=(trials, 3))
    q = rng.uniform(0.3, 2.0, size=trials)
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=-1))[:, None], spatial], axis=-1)
    spinor = rng.uniform(-1.0, 1.0, size=(trials, 4))
    spinor *= (spinor_cap * np.sqrt(q) * rng.random(trials)
               / np.linalg.norm(spinor, axis=-1))[:, None]
    return x4, spinor


def _random_timelike_curve(rng, trials, n=201):
    """Sampled timelike velocity curves with smoothly varying components.

    Returns the grid ``tau`` of ``n`` samples, ``(trials, n, 4)``
    4-velocities and spinor parts, and ``(trials,)`` masses and speeds.
    """
    tau = np.linspace(0.0, 1.0, n)
    wave = 2.0 * np.pi * tau[:, None]
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1, 3))
    spatial = 0.4 * np.sin(wave + phase) * rng.uniform(0.2, 1.0, size=(trials, 1, 3))
    q = (0.5 + 0.3 * np.sin(wave[:, 0] + rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1)))
         + rng.uniform(0.2, 1.0, size=(trials, 1)))
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=-1))[..., None], spatial], axis=-1)
    spinor = 0.2 * np.sqrt(q)[..., None] * np.sin(
        wave + rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1, 4))
    )
    mass, speed = rng.uniform(0.5, 2.0, size=(2, trials))
    return tau, x4, spinor, mass, speed


def _embedded_actions(rng, trials):
    return group_action(embed_sl2(random_unimodular(rng, n=2, size=trials)))


def _chk_duality(rng, trials):
    gram = 0.5 * np.einsum("aij,bji->ab", LAMBDA_DUAL, LAMBDA_MATRICES)
    return np.abs(gram - np.eye(9)).ravel()


def _chk_determinant_identity(rng, trials):
    x = rng.uniform(-10.0, 10.0, size=(trials, 9))
    det = np.linalg.det(vec_to_matrix(x))
    scale = np.maximum(1.0, np.linalg.norm(x, axis=1) ** 3)
    return np.maximum(np.abs(cubic_form(x) - det.real), np.abs(det.imag)) / scale


def _chk_metric_contraction(rng, trials):
    dense = metric_coefficients().as_dense()
    x = random_nonisotropic_velocity(rng, margin=1e-2, scale=10.0, size=trials)
    full = np.einsum("abc,ta,tb,tc->t", dense, x, x, x)
    poly = cubic_form(x)
    return np.abs(full - poly) / np.abs(poly)


def _chk_group_invariance(rng, trials):
    ell = group_action(random_unimodular(rng, size=trials))
    x = random_nonisotropic_velocity(rng, size=(trials, 5))
    f = cubic_form(x)
    return (np.abs(cubic_form(_apply(ell[:, None], x)) - f) / np.abs(f)).max(axis=-1)


def _chk_action_equivalence(rng, trials):
    d = random_unimodular(rng, size=trials)
    x = rng.uniform(-1.0, 1.0, size=(trials, 9))
    via_matrix = _apply(group_action(d), x)
    via_conj = conjugation_action(d, x)
    return _max_entry(via_matrix - via_conj) / np.maximum(_max_entry(via_conj), 1e-300)


def _chk_homomorphism(rng, trials):
    d1 = random_unimodular(rng, size=trials)
    d2 = random_unimodular(rng, size=trials)
    return _max_entry(group_action(d1 @ d2) - group_action(d1) @ group_action(d2), (-2, -1))


def _chk_homogeneity(rng, trials):
    x = random_nonisotropic_velocity(rng, size=trials)
    c = np.array([-2.0, 0.5, 3.0])[:, None]
    scaled = c**3 * cubic_form(x)
    return (np.abs(cubic_form(c[..., None] * x) - scaled) / np.abs(scaled)).max(axis=0)


def _chk_gradient_oracle(rng, trials):
    xdot = random_nonisotropic_velocity(rng, size=trials)
    p = canonical_momenta(xdot)
    h = 1e-6 * np.maximum(1.0, np.linalg.norm(xdot, axis=-1))[:, None]
    step = h[..., None] * np.eye(9)
    fd = (lagrangian(xdot[:, None] + step) - lagrangian(xdot[:, None] - step)) / (2.0 * h)
    return (np.abs(fd - p) / (1.0 + np.abs(p))).max(axis=-1)


def _chk_matrix_identity(rng, trials):
    xdot = random_nonisotropic_velocity(rng, size=trials)
    p = canonical_momenta(xdot)
    scale = 1.0 + np.linalg.norm(xdot, axis=-1) ** 2 * np.linalg.norm(p, axis=-1)
    return matrix_identity_residual(xdot) / scale


def _chk_zero_energy(rng, trials):
    xdot = random_nonisotropic_velocity(rng, size=trials)
    return np.abs(canonical_energy(xdot)) / np.abs(lagrangian(xdot))


def _chk_momentum_scale_invariance(rng, trials):
    xdot = random_nonisotropic_velocity(rng, size=trials)
    p = canonical_momenta(xdot)
    c = np.array([0.5, 2.0, 7.0])[:, None, None]
    return _max_entry(canonical_momenta(c * xdot) - p).max(axis=0) / _max_entry(p)


def _chk_inversion_round_trip(rng, trials):
    v = unit_speed_velocity(rng, size=trials)
    return _max_entry(invert_momenta(canonical_momenta(v)) - v)


def _chk_momentum_constraint(rng, trials):
    c3 = abs(2.0 * DEFAULT_KAPPA / 3.0) ** 3
    p = canonical_momenta(unit_speed_velocity(rng, size=trials))
    return np.abs(momentum_constraint_residual(p)) / c3


def _chk_unit_determinant(rng, trials):
    p = canonical_momenta(unit_speed_velocity(rng, size=trials))
    det = np.linalg.det(vec_to_matrix(invert_momenta(p)))
    return np.abs(det.real - 1.0)


def _chk_adjugate_vs_inverse(rng, trials):
    p = canonical_momenta(unit_speed_velocity(rng, size=trials))
    va = invert_momenta(p, method="adjugate")
    vi = invert_momenta(p, method="inverse")
    return _max_entry(va - vi) / _max_entry(vi)


def _chk_inverse_hermiticity(rng, trials):
    """The LU velocity matrix ``c N^-1`` is Hermitian before symmetrisation."""
    p = canonical_momenta(unit_speed_velocity(rng, size=trials))
    raw = (2.0 * DEFAULT_KAPPA / 3.0) * np.linalg.inv(momenta_matrix(p))
    return (_max_entry(raw - np.conj(np.swapaxes(raw, -1, -2)), (-2, -1))
            / _max_entry(raw, (-2, -1)))


def _chk_stationarity(rng, trials):
    v0 = np.zeros(9)
    v0[0] = v0[8] = 1.0
    traj = Trajectory(np.zeros(9), v0)
    amplitudes = np.geomspace(1e-2, 1e-4, 5)
    # smooth bump exp(-1 / (z (1 - z))) supported on tau in (0.3, 0.7), one per slot
    z = (np.linspace(0.0, 1.0, 201) - 0.3) / 0.4
    inside = (z > 0.0) & (z < 1.0)
    profile = np.zeros_like(z)
    profile[inside] = np.exp(-1.0 / (z[inside] * (1.0 - z[inside])))
    bumps = profile[None, :, None] * np.eye(9)[[0, 1, 4, 6, 8], None, :]
    return np.array([
        abs(dynamics.action_stationarity_check(traj, bump, amplitudes) - 2.0)
        for bump in bumps
    ])


def _chk_momentum_covariance(rng, trials):
    p = canonical_momenta(unit_speed_velocity(rng, size=trials))
    ell = group_action(random_unimodular(rng, size=trials))
    direct = invert_momenta(transform_momenta(ell, p))
    carried = _apply(ell, invert_momenta(p))
    return _max_entry(direct - carried) / _max_entry(carried)


def _chk_constant_count(rng, trials):
    """One scalar relation must pin down each momentum direction."""
    c3 = abs(2.0 * DEFAULT_KAPPA / 3.0) ** 3
    delta = 1e-3
    p = canonical_momenta(unit_speed_velocity(rng, size=trials))
    # bumped[t, a, s] is trial t with momentum a moved by +delta (s=0) or -delta (s=1)
    bumps = delta * np.stack([np.eye(9), -np.eye(9)], axis=1)
    bumped = np.abs(momentum_constraint_residual(p[:, None, None] + bumps)) / c3
    return bumped.max(axis=-1).min(axis=-1)


def _chk_subgroup_closure(rng, trials):
    a = random_unimodular(rng, n=2, size=trials)
    b = random_unimodular(rng, n=2, size=trials)
    return _max_entry(embed_sl2(a) @ embed_sl2(b) - embed_sl2(a @ b), (-2, -1))


def _chk_block_structure(rng, trials):
    ell = _embedded_actions(rng, trials)
    return _max_entry(np.where(minkowski._BLOCK_MASK, 0.0, ell), (-2, -1))


def _chk_lorentz_preservation(rng, trials):
    vec, _, _ = block_split_check(random_unimodular(rng, n=2, size=trials))
    return lorentz_residual(vec)


def _chk_scalar_invariance(rng, trials):
    ell = _embedded_actions(rng, trials)
    off = np.maximum(_max_entry(ell[:, 8, :8]), _max_entry(ell[:, :8, 8]))
    return np.maximum(np.abs(ell[:, 8, 8] - 1.0), off)


def _chk_constraint_closure(rng, trials):
    x4, spinor = _random_timelike(rng, trials)
    nine = assemble_velocity(x4, spinor)
    scale = np.maximum(1.0, minkowski.minkowski_norm_sq(x4) ** 1.5)
    return np.abs(constraint_residual(nine)) / scale


def _chk_action_equality(rng, trials):
    tau, x4, spinor, mass, speed = _random_timelike_curve(rng, trials)
    s_cubic, s_mink = reduced_action_check(tau, x4, spinor, mass, speed)
    return np.abs(s_cubic - s_mink) / np.abs(s_mink)


def _chk_action_kappa_sensitivity(rng, trials):
    tau, x4, spinor, mass, speed = _random_timelike_curve(rng, trials)
    s_cubic, s_mink = reduced_action_check(
        tau, x4, spinor, mass, speed, kappa=-1.01 * mass * speed
    )
    return np.abs(s_cubic - s_mink) / np.abs(s_mink)


def _chk_constraint_lorentz_invariance(rng, trials):
    x4, spinor = _random_timelike(rng, trials)
    nine = assemble_velocity(x4, spinor)
    moved = _apply(_embedded_actions(rng, trials), nine)
    scale = np.maximum(1.0, minkowski.minkowski_norm_sq(moved[:, :4]) ** 1.5)
    return np.abs(constraint_residual(moved)) / scale


@dataclass(frozen=True)
class CheckSpec:
    name: str
    tolerance: float
    cmp: str  # "le": pass iff residual <= tol; "ge": pass iff residual >= tol
    fn: object


CHECKS = [
    CheckSpec("duality", 1e-15, "le", _chk_duality),
    CheckSpec("determinant_identity", 1e-11, "le", _chk_determinant_identity),
    CheckSpec("metric_contraction", 1e-12, "le", _chk_metric_contraction),
    CheckSpec("group_invariance", 1e-9, "le", _chk_group_invariance),
    CheckSpec("action_equivalence", 1e-11, "le", _chk_action_equivalence),
    CheckSpec("homomorphism", 1e-10, "le", _chk_homomorphism),
    CheckSpec("homogeneity", 1e-12, "le", _chk_homogeneity),
    CheckSpec("gradient_oracle", 1e-6, "le", _chk_gradient_oracle),
    CheckSpec("matrix_identity", 1e-10, "le", _chk_matrix_identity),
    CheckSpec("zero_energy", 1e-10, "le", _chk_zero_energy),
    CheckSpec("momentum_scale_invariance", 1e-12, "le", _chk_momentum_scale_invariance),
    CheckSpec("inversion_round_trip", 1e-9, "le", _chk_inversion_round_trip),
    CheckSpec("momentum_constraint", 1e-9, "le", _chk_momentum_constraint),
    CheckSpec("unit_determinant", 1e-9, "le", _chk_unit_determinant),
    CheckSpec("adjugate_vs_inverse", 1e-11, "le", _chk_adjugate_vs_inverse),
    CheckSpec("inverse_hermiticity", 1e-12, "le", _chk_inverse_hermiticity),
    CheckSpec("stationarity", 0.1, "le", _chk_stationarity),
    CheckSpec("momentum_covariance", 1e-8, "le", _chk_momentum_covariance),
    CheckSpec("constant_count", 1e-8, "ge", _chk_constant_count),
    CheckSpec("subgroup_closure", 1e-13, "le", _chk_subgroup_closure),
    CheckSpec("block_structure", 1e-12, "le", _chk_block_structure),
    CheckSpec("lorentz_preservation", 1e-10, "le", _chk_lorentz_preservation),
    CheckSpec("scalar_invariance", 1e-12, "le", _chk_scalar_invariance),
    CheckSpec("constraint_closure", 1e-12, "le", _chk_constraint_closure),
    CheckSpec("action_equality", 1e-10, "le", _chk_action_equality),
    CheckSpec("action_kappa_sensitivity", 1e-3, "ge", _chk_action_kappa_sensitivity),
    CheckSpec("constraint_lorentz_invariance", 1e-10, "le", _chk_constraint_lorentz_invariance),
]

CHECK_NAMES = [spec.name for spec in CHECKS]


def run_checks(seed=0, trials=500, tolerances=None):
    """Run every check; returns ``{name: {trials, failures, worst_residual}}``.

    ``tolerances`` optionally overrides the default tolerance per check
    name.  Same seed and trials always produce the same report.
    """
    tolerances = tolerances or {}
    report = {}
    for idx, spec in enumerate(CHECKS):
        rng = np.random.default_rng([seed, idx])
        residuals = np.asarray(spec.fn(rng, trials), dtype=float)
        tol = float(tolerances.get(spec.name, spec.tolerance))
        if spec.cmp == "le":
            failures = int(np.count_nonzero(residuals > tol))
            worst = float(residuals.max())
        else:
            failures = int(np.count_nonzero(residuals < tol))
            worst = float(residuals.min())
        report[spec.name] = {
            "trials": int(residuals.size),
            "failures": failures,
            "worst_residual": worst,
        }
    return report


def all_passed(report):
    return all(entry["failures"] == 0 for entry in report.values())
