"""Randomized invariant suite behind the ``check`` command.

Every library-level invariant runs here as a named check producing one
scaled residual per trial.  Check ``i`` draws from its own generator seeded
with ``[seed, i]``, so checks are independent of each other's draw counts
and could run in parallel; aggregation is a commutative max/min plus a
failure count.  Residuals are scaled so they compare directly against the
check's tolerance.

Each check whose work grows with the trials is a draw and a pure
evaluation (:func:`_blocked`).  The draw makes all of the check's generator
calls at once (the samplers' ``size`` argument, rejected draws redrawn as a
block) and keeps only per-trial parameters: at most 63 floats a trial, and
the curve checks keep the 14 phases, amplitudes, mass and speed of a curve,
not its 201 samples.  The evaluation then runs with stacked array
operations on consecutive blocks of at most ``_BLOCK_ROWS`` rows of work, so
memory holds the draws plus one block, and residual ``t`` of a check still
comes from trial ``t`` alone: the residuals do not depend on the block size.
"""

from collections.abc import Mapping
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
    _is_count,
    conjugation_action,
    cubic_form,
    group_action,
    matrix_to_vec,
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


#: Rows of work one block of trials evaluates at most (a trial of a curve
#: check is 201 rows); memory holds every trial's draws plus one block.
#: Of 1024 to 16384, 4096 is the largest that keeps ``check --trials 50``
#: at its lowest peak RSS (8192 adds 1 MB); larger blocks run faster only
#: from thousands of trials up.
_BLOCK_ROWS = 4096


def _blocked(draw, rows=1):
    """Make the pure evaluation it decorates into a check ``fn(rng, trials)``.

    ``draw(rng, trials)`` makes every generator call of the check and
    returns its per-trial parameters, a tuple of arrays whose leading axis
    is the trial.  The decorated evaluation maps the parameters of one block
    of trials to one residual per trial; it runs on consecutive blocks of
    ``_BLOCK_ROWS // rows`` trials (at least one), ``rows`` being the rows
    of work a trial costs: the 9-float rows of its largest stacked
    intermediate, 9 for a 9x9 action and 201 for a sampled curve.  The
    check keeps ``draw``, ``evaluate`` and ``rows`` as attributes.
    """
    def check(evaluate):
        def fn(rng, trials):
            params = draw(rng, trials)
            step = max(1, _BLOCK_ROWS // rows)
            return np.concatenate([evaluate(*(p[k:k + step] for p in params))
                                   for k in range(0, trials, step)])

        fn.__name__ = fn.__qualname__ = evaluate.__name__
        fn.__doc__ = evaluate.__doc__
        fn.draw, fn.evaluate, fn.rows = draw, evaluate, rows
        return fn

    return check


def _apply(ell, x):
    """``ell @ x`` for stacks of 9x9 matrices and 9-vectors."""
    return np.einsum("...ab,...b->...a", ell, x)


def _max_entry(a, axes=-1):
    """Largest absolute entry over the item ``axes``: one value per trial."""
    return np.abs(a).max(axis=axes)


def _velocities(rng, trials):
    return (random_nonisotropic_velocity(rng, size=trials),)


def _unit_speed(rng, trials):
    return (unit_speed_velocity(rng, size=trials),)


def _unimodular(rng, trials):
    return (random_unimodular(rng, size=trials),)


def _sl2(rng, trials):
    return (random_unimodular(rng, n=2, size=trials),)


def _random_timelike(rng, trials, spinor_cap=0.3):
    """4-velocities with g(v, v) in [0.3, 2.0] plus a capped spinor part."""
    spatial = rng.uniform(-0.5, 0.5, size=(trials, 3))
    q = rng.uniform(0.3, 2.0, size=trials)
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=-1))[:, None], spatial], axis=-1)
    spinor = rng.uniform(-1.0, 1.0, size=(trials, 4))
    spinor *= (spinor_cap * np.sqrt(q) * rng.random(trials)
               / np.linalg.norm(spinor, axis=-1))[:, None]
    return x4, spinor


def _curve_parameters(rng, trials):
    """The 14 numbers a trial of a curve check draws.

    Phases and amplitudes of the three spatial components, of ``g(v, v)``
    and of the four spinor components, then the mass and the speed; see
    :func:`_timelike_curve`.
    """
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1, 3))
    amplitude = rng.uniform(0.2, 1.0, size=(trials, 1, 3))
    q_phase = rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1))
    q_offset = rng.uniform(0.2, 1.0, size=(trials, 1))
    spinor_phase = rng.uniform(0.0, 2.0 * np.pi, size=(trials, 1, 4))
    mass, speed = rng.uniform(0.5, 2.0, size=(2, trials))
    return phase, amplitude, q_phase, q_offset, spinor_phase, mass, speed


def _timelike_curve(phase, amplitude, q_phase, q_offset, spinor_phase, n=201):
    """Sampled timelike velocity curves with smoothly varying components.

    Returns the grid ``tau`` of ``n`` samples and the ``(trials, n, 4)``
    4-velocities and spinor parts of the drawn :func:`_curve_parameters`.
    """
    tau = np.linspace(0.0, 1.0, n)
    wave = 2.0 * np.pi * tau[:, None]
    spatial = 0.4 * np.sin(wave + phase) * amplitude
    q = 0.5 + 0.3 * np.sin(wave[:, 0] + q_phase) + q_offset
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=-1))[..., None], spatial], axis=-1)
    spinor = 0.2 * np.sqrt(q)[..., None] * np.sin(wave + spinor_phase)
    return tau, x4, spinor


def _chk_duality(rng, trials):
    gram = 0.5 * np.einsum("aij,bji->ab", LAMBDA_DUAL, LAMBDA_MATRICES)
    return np.abs(gram - np.eye(9)).ravel()


@_blocked(lambda rng, trials: (rng.uniform(-10.0, 10.0, size=(trials, 9)),))
def _chk_determinant_identity(x):
    det = np.linalg.det(vec_to_matrix(x))
    scale = np.maximum(1.0, np.linalg.norm(x, axis=1) ** 3)
    return np.maximum(np.abs(cubic_form(x) - det.real), np.abs(det.imag)) / scale


@_blocked(lambda rng, trials: (
    random_nonisotropic_velocity(rng, margin=1e-2, scale=10.0, size=trials),))
def _chk_metric_contraction(x):
    full = metric_coefficients().contract(x)
    poly = cubic_form(x)
    return np.abs(full - poly) / np.abs(poly)


@_blocked(lambda rng, trials: (random_unimodular(rng, size=trials),
                               random_nonisotropic_velocity(rng, size=(trials, 5))), rows=9)
def _chk_group_invariance(d, x):
    ell = group_action(d)
    f = cubic_form(x)
    return (np.abs(cubic_form(_apply(ell[:, None], x)) - f) / np.abs(f)).max(axis=-1)


@_blocked(lambda rng, trials: (random_unimodular(rng, size=trials),
                               rng.uniform(-1.0, 1.0, size=(trials, 9))), rows=9)
def _chk_action_equivalence(d, x):
    via_matrix = conjugation_action(d, x)
    # the triple product d X d^+, hermitised: an independent path to the same vector
    m = d @ vec_to_matrix(x) @ np.conj(np.swapaxes(d, -1, -2))
    via_conj = matrix_to_vec(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
    return _max_entry(via_matrix - via_conj) / np.maximum(_max_entry(via_conj), 1e-300)


@_blocked(lambda rng, trials: _unimodular(rng, trials) + _unimodular(rng, trials), rows=27)
def _chk_homomorphism(d1, d2):
    return _max_entry(group_action(d1 @ d2) - group_action(d1) @ group_action(d2), (-2, -1))


@_blocked(_velocities, rows=3)
def _chk_homogeneity(x):
    c = np.array([-2.0, 0.5, 3.0])[:, None]
    scaled = c**3 * cubic_form(x)
    return (np.abs(cubic_form(c[..., None] * x) - scaled) / np.abs(scaled)).max(axis=0)


@_blocked(_velocities, rows=18)
def _chk_gradient_oracle(xdot):
    p = canonical_momenta(xdot)
    h = 1e-6 * np.maximum(1.0, np.linalg.norm(xdot, axis=-1))[:, None]
    step = h[..., None] * np.eye(9)
    fd = (lagrangian(xdot[:, None] + step) - lagrangian(xdot[:, None] - step)) / (2.0 * h)
    return (np.abs(fd - p) / (1.0 + np.abs(p))).max(axis=-1)


@_blocked(_velocities)
def _chk_matrix_identity(xdot):
    p = canonical_momenta(xdot)
    scale = 1.0 + np.linalg.norm(xdot, axis=-1) ** 2 * np.linalg.norm(p, axis=-1)
    return matrix_identity_residual(xdot) / scale


@_blocked(_velocities)
def _chk_zero_energy(xdot):
    return np.abs(canonical_energy(xdot)) / np.abs(lagrangian(xdot))


@_blocked(_velocities, rows=3)
def _chk_momentum_scale_invariance(xdot):
    p = canonical_momenta(xdot)
    c = np.array([0.5, 2.0, 7.0])[:, None, None]
    return _max_entry(canonical_momenta(c * xdot) - p).max(axis=0) / _max_entry(p)


@_blocked(_unit_speed)
def _chk_inversion_round_trip(v):
    return _max_entry(invert_momenta(canonical_momenta(v)) - v)


@_blocked(_unit_speed)
def _chk_momentum_constraint(v):
    c3 = abs(2.0 * DEFAULT_KAPPA / 3.0) ** 3
    return np.abs(momentum_constraint_residual(canonical_momenta(v))) / c3


@_blocked(_unit_speed)
def _chk_unit_determinant(v):
    det = np.linalg.det(vec_to_matrix(invert_momenta(canonical_momenta(v))))
    return np.abs(det.real - 1.0)


@_blocked(_unit_speed)
def _chk_adjugate_vs_inverse(v):
    p = canonical_momenta(v)
    vmat = (2.0 * DEFAULT_KAPPA / 3.0) * np.linalg.inv(momenta_matrix(p))
    vi = matrix_to_vec(0.5 * (vmat + np.conj(np.swapaxes(vmat, -1, -2))))
    return _max_entry(invert_momenta(p) - vi) / _max_entry(vi)


@_blocked(_unit_speed)
def _chk_inverse_hermiticity(v):
    """The LU velocity matrix ``c N^-1`` is Hermitian before symmetrisation."""
    raw = (2.0 * DEFAULT_KAPPA / 3.0) * np.linalg.inv(momenta_matrix(canonical_momenta(v)))
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
    # one bump at a time: each pass holds one (6, 201, 9) stack of curves
    return np.abs([dynamics.action_stationarity_check(traj, bump, amplitudes) - 2.0
                   for bump in bumps])


@_blocked(lambda rng, trials: _unit_speed(rng, trials) + _unimodular(rng, trials), rows=9)
def _chk_momentum_covariance(v, d):
    p = canonical_momenta(v)
    ell = group_action(d)
    direct = invert_momenta(transform_momenta(ell, p))
    carried = _apply(ell, invert_momenta(p))
    return _max_entry(direct - carried) / _max_entry(carried)


@_blocked(_unit_speed, rows=18)
def _chk_constant_count(v):
    """One scalar relation must pin down each momentum direction."""
    c3 = abs(2.0 * DEFAULT_KAPPA / 3.0) ** 3
    delta = 1e-3
    p = canonical_momenta(v)
    # bumped[t, a, s] is trial t with momentum a moved by +delta (s=0) or -delta (s=1)
    bumps = delta * np.stack([np.eye(9), -np.eye(9)], axis=1)
    bumped = np.abs(momentum_constraint_residual(p[:, None, None] + bumps)) / c3
    return bumped.max(axis=-1).min(axis=-1)


@_blocked(lambda rng, trials: _sl2(rng, trials) + _sl2(rng, trials))
def _chk_subgroup_closure(a, b):
    return _max_entry(embed_sl2(a) @ embed_sl2(b) - embed_sl2(a @ b), (-2, -1))


@_blocked(_sl2, rows=9)
def _chk_block_structure(d):
    ell = group_action(embed_sl2(d))
    return _max_entry(np.where(minkowski._BLOCK_MASK, 0.0, ell), (-2, -1))


@_blocked(_sl2, rows=9)
def _chk_lorentz_preservation(d):
    vec, _, _ = block_split_check(d)
    return lorentz_residual(vec)


@_blocked(_sl2, rows=9)
def _chk_scalar_invariance(d):
    ell = group_action(embed_sl2(d))
    off = np.maximum(_max_entry(ell[:, 8, :8]), _max_entry(ell[:, :8, 8]))
    return np.maximum(np.abs(ell[:, 8, 8] - 1.0), off)


@_blocked(_random_timelike)
def _chk_constraint_closure(x4, spinor):
    nine = assemble_velocity(x4, spinor)
    scale = np.maximum(1.0, minkowski.minkowski_norm_sq(x4) ** 1.5)
    return np.abs(constraint_residual(nine)) / scale


@_blocked(_curve_parameters, rows=201)
def _chk_action_equality(*params):
    *curve, mass, speed = params
    s_cubic, s_mink = reduced_action_check(*_timelike_curve(*curve), mass, speed)
    return np.abs(s_cubic - s_mink) / np.abs(s_mink)


@_blocked(_curve_parameters, rows=201)
def _chk_action_kappa_sensitivity(*params):
    *curve, mass, speed = params
    s_cubic, s_mink = reduced_action_check(*_timelike_curve(*curve), mass, speed,
                                           kappa=-1.01 * mass * speed)
    return np.abs(s_cubic - s_mink) / np.abs(s_mink)


@_blocked(lambda rng, trials: _random_timelike(rng, trials) + _sl2(rng, trials), rows=9)
def _chk_constraint_lorentz_invariance(x4, spinor, d):
    moved = _apply(group_action(embed_sl2(d)), assemble_velocity(x4, spinor))
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


def _check_arguments(seed, trials, tolerances):
    """ValueError unless ``seed >= 0`` and ``trials >= 1`` are integers (not
    bools) and ``tolerances`` is None or maps names of ``CHECK_NAMES`` to
    values that convert to finite floats; the message names the argument,
    or the check and its value."""
    if not _is_count(seed, 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not _is_count(trials, 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(tolerances, (Mapping, type(None))):
        raise ValueError("tolerances must be a mapping of check names to values, "
                         f"got a {type(tolerances).__name__}")
    for name, value in (tolerances or {}).items():
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r} in tolerances")
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):  # None, "x", 10**400
            raise ValueError(f"the tolerance of {name} must be a finite number, "
                             f"got {value!r}") from None
        if not np.isfinite(value):  # an infinite tolerance would switch its check off
            raise ValueError(f"the tolerance of {name} is {'NaN' if np.isnan(value) else value}")


def run_checks(seed=0, trials=500, tolerances=None):
    """Run every check; returns ``{name: {trials, failures, worst_residual}}``.

    ``tolerances`` optionally overrides the default tolerance per check
    name.  Same seed and trials always produce the same report.  A NaN
    residual counts as a failure and makes its ``worst_residual`` NaN.  A seed
    that is not a non-negative integer, trials that are not a positive
    integer (a bool is neither), ``tolerances`` that are not a mapping, an
    unknown check name or a tolerance that is not finite raise ValueError.
    """
    _check_arguments(seed, trials, tolerances)
    tolerances = tolerances or {}
    report = {}
    for idx, spec in enumerate(CHECKS):
        rng = np.random.default_rng([seed, idx])
        residuals = np.asarray(spec.fn(rng, trials), dtype=float)
        tol = float(tolerances.get(spec.name, spec.tolerance))
        # a NaN residual passes neither comparison, so it counts as a failure
        if spec.cmp == "le":
            failures = int(np.count_nonzero(~(residuals <= tol)))
            worst = float(residuals.max())
        else:
            failures = int(np.count_nonzero(~(residuals >= tol)))
            worst = float(residuals.min())
        report[spec.name] = {
            "trials": int(residuals.size),
            "failures": failures,
            "worst_residual": worst,
        }
    return report


def all_passed(report):
    return all(entry["failures"] == 0 for entry in report.values())
