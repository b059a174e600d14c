"""Randomized invariant suite behind the ``check`` command.

Every library-level invariant runs here as a named check producing one
scaled residual per trial.  Check ``i`` draws from its own generator seeded
with ``[seed, i]``, so checks are independent of each other's draw counts
and could run in parallel; aggregation is a commutative max/min plus a
failure count.  Residuals are scaled so they compare directly against the
check's tolerance.
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


def _random_timelike(rng, spinor_cap=0.3):
    """4-velocity with g(v, v) in [0.3, 2.0] plus a capped spinor part."""
    spatial = rng.uniform(-0.5, 0.5, size=3)
    q = rng.uniform(0.3, 2.0)
    x4 = np.concatenate([[np.sqrt(q + spatial @ spatial)], spatial])
    spinor = rng.uniform(-1.0, 1.0, size=4)
    spinor *= spinor_cap * np.sqrt(q) * rng.random() / np.linalg.norm(spinor)
    return x4, spinor


def _random_timelike_curve(rng, n=201):
    """Sampled timelike velocity curve with smoothly varying components."""
    tau = np.linspace(0.0, 1.0, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    spatial = 0.4 * np.sin(2.0 * np.pi * tau[:, None] + phase) * rng.uniform(0.2, 1.0, size=3)
    q = 0.5 + 0.3 * np.sin(2.0 * np.pi * tau + rng.uniform(0.0, 2.0 * np.pi)) + rng.uniform(0.2, 1.0)
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=1))[:, None], spatial], axis=1)
    spinor = 0.2 * np.sqrt(q)[:, None] * np.sin(
        2.0 * np.pi * tau[:, None] + rng.uniform(0.0, 2.0 * np.pi, size=4)
    )
    return tau, x4, spinor


def _chk_duality(rng, trials):
    res = []
    for a in range(9):
        for b in range(9):
            value = 0.5 * np.trace(LAMBDA_DUAL[a] @ LAMBDA_MATRICES[b])
            res.append(abs(value - (1.0 if a == b else 0.0)))
    return np.array(res)


def _chk_determinant_identity(rng, trials):
    x = rng.uniform(-10.0, 10.0, size=(trials, 9))
    det = np.linalg.det(vec_to_matrix(x))
    scale = np.maximum(1.0, np.linalg.norm(x, axis=1) ** 3)
    return np.maximum(np.abs(cubic_form(x) - det.real), np.abs(det.imag)) / scale


def _chk_metric_contraction(rng, trials):
    dense = metric_coefficients().as_dense()
    res = np.empty(trials)
    for t in range(trials):
        x = random_nonisotropic_velocity(rng, margin=1e-2, scale=10.0)
        full = np.einsum("abc,a,b,c->", dense, x, x, x)
        poly = cubic_form(x)
        res[t] = abs(full - poly) / abs(poly)
    return res


def _chk_group_invariance(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        ell = group_action(random_unimodular(rng))
        worst = 0.0
        for _ in range(5):
            x = random_nonisotropic_velocity(rng)
            f = cubic_form(x)
            worst = max(worst, abs(cubic_form(ell @ x) - f) / abs(f))
        res[t] = worst
    return res


def _chk_action_equivalence(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        d = random_unimodular(rng)
        x = rng.uniform(-1.0, 1.0, size=9)
        via_matrix = group_action(d) @ x
        via_conj = conjugation_action(d, x)
        res[t] = np.abs(via_matrix - via_conj).max() / max(np.abs(via_conj).max(), 1e-300)
    return res


def _chk_homomorphism(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        d1, d2 = random_unimodular(rng), random_unimodular(rng)
        res[t] = np.abs(group_action(d1 @ d2) - group_action(d1) @ group_action(d2)).max()
    return res


def _chk_homogeneity(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        x = random_nonisotropic_velocity(rng)
        f = cubic_form(x)
        res[t] = max(abs(cubic_form(c * x) - c**3 * f) / abs(c**3 * f)
                     for c in (-2.0, 0.5, 3.0))
    return res


def _chk_gradient_oracle(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        xdot = random_nonisotropic_velocity(rng)
        p = canonical_momenta(xdot)
        h = 1e-6 * max(1.0, np.linalg.norm(xdot))
        worst = 0.0
        for a in range(9):
            step = np.zeros(9)
            step[a] = h
            fd = (lagrangian(xdot + step) - lagrangian(xdot - step)) / (2.0 * h)
            worst = max(worst, abs(fd - p[a]) / (1.0 + abs(p[a])))
        res[t] = worst
    return res


def _chk_matrix_identity(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        xdot = random_nonisotropic_velocity(rng)
        p = canonical_momenta(xdot)
        scale = 1.0 + np.linalg.norm(xdot) ** 2 * np.linalg.norm(p)
        res[t] = matrix_identity_residual(xdot) / scale
    return res


def _chk_zero_energy(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        xdot = random_nonisotropic_velocity(rng)
        res[t] = abs(canonical_energy(xdot)) / abs(lagrangian(xdot))
    return res


def _chk_momentum_scale_invariance(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        xdot = random_nonisotropic_velocity(rng)
        p = canonical_momenta(xdot)
        res[t] = max(np.abs(canonical_momenta(c * xdot) - p).max()
                     for c in (0.5, 2.0, 7.0)) / np.abs(p).max()
    return res


def _chk_inversion_round_trip(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        v = unit_speed_velocity(rng)
        res[t] = np.abs(invert_momenta(canonical_momenta(v)) - v).max()
    return res


def _chk_momentum_constraint(rng, trials):
    c3 = abs(2.0 * DEFAULT_KAPPA / 3.0) ** 3
    res = np.empty(trials)
    for t in range(trials):
        p = canonical_momenta(unit_speed_velocity(rng))
        res[t] = abs(momentum_constraint_residual(p)) / c3
    return res


def _chk_unit_determinant(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        p = canonical_momenta(unit_speed_velocity(rng))
        det = np.linalg.det(vec_to_matrix(invert_momenta(p)))
        res[t] = abs(det.real - 1.0)
    return res


def _chk_adjugate_vs_inverse(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        p = canonical_momenta(unit_speed_velocity(rng))
        va = invert_momenta(p, method="adjugate")
        vi = invert_momenta(p, method="inverse")
        res[t] = np.abs(va - vi).max() / np.abs(vi).max()
    return res


def _chk_inverse_hermiticity(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        p = canonical_momenta(unit_speed_velocity(rng))
        raw = dynamics._cofactor_inverse_scaled(momenta_matrix(p))
        res[t] = np.abs(raw - raw.conj().T).max()
    return res


def _chk_stationarity(rng, trials):
    v0 = np.zeros(9)
    v0[0] = v0[8] = 1.0
    traj = Trajectory(np.zeros(9), v0)
    amplitudes = np.geomspace(1e-2, 1e-4, 5)

    def bump_in(slot):
        def eta(t):
            out = np.zeros(9)
            z = (t - 0.3) / 0.4
            if 0.0 < z < 1.0:
                out[slot] = np.exp(-1.0 / (z * (1.0 - z)))
            return out
        return eta

    return np.array([
        abs(dynamics.action_stationarity_check(traj, bump_in(slot), amplitudes) - 2.0)
        for slot in (0, 1, 4, 6, 8)
    ])


def _chk_momentum_covariance(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        p = canonical_momenta(unit_speed_velocity(rng))
        ell = group_action(random_unimodular(rng))
        direct = invert_momenta(transform_momenta(ell, p))
        carried = ell @ invert_momenta(p)
        res[t] = np.abs(direct - carried).max() / np.abs(carried).max()
    return res


def _chk_constant_count(rng, trials):
    """One scalar relation must pin down each momentum direction."""
    c3 = abs(2.0 * DEFAULT_KAPPA / 3.0) ** 3
    delta = 1e-3
    res = np.empty(trials)
    for t in range(trials):
        p = canonical_momenta(unit_speed_velocity(rng))
        worst = np.inf
        for a in range(9):
            bumped = 0.0
            for sign in (1.0, -1.0):
                q = p.copy()
                q[a] += sign * delta
                bumped = max(bumped, abs(momentum_constraint_residual(q)) / c3)
            worst = min(worst, bumped)
        res[t] = worst
    return res


def _chk_subgroup_closure(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        a = random_unimodular(rng, n=2)
        b = random_unimodular(rng, n=2)
        res[t] = np.abs(embed_sl2(a) @ embed_sl2(b) - embed_sl2(a @ b)).max()
    return res


def _chk_block_structure(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        ell = group_action(embed_sl2(random_unimodular(rng, n=2)))
        res[t] = np.abs(np.where(minkowski._BLOCK_MASK, 0.0, ell)).max()
    return res


def _chk_lorentz_preservation(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        vec, _, _ = block_split_check(random_unimodular(rng, n=2))
        res[t] = lorentz_residual(vec)
    return res


def _chk_scalar_invariance(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        ell = group_action(embed_sl2(random_unimodular(rng, n=2)))
        off = max(np.abs(ell[8, :8]).max(), np.abs(ell[:8, 8]).max())
        res[t] = max(abs(ell[8, 8] - 1.0), off)
    return res


def _chk_constraint_closure(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        x4, spinor = _random_timelike(rng)
        nine = assemble_velocity(x4, spinor)
        scale = max(1.0, minkowski.minkowski_norm_sq(x4) ** 1.5)
        res[t] = abs(constraint_residual(nine)) / scale
    return res


def _chk_action_equality(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        tau, x4, spinor = _random_timelike_curve(rng)
        mass, speed = rng.uniform(0.5, 2.0, size=2)
        s_cubic, s_mink = reduced_action_check(tau, x4, spinor, mass, speed)
        res[t] = abs(s_cubic - s_mink) / abs(s_mink)
    return res


def _chk_action_kappa_sensitivity(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        tau, x4, spinor = _random_timelike_curve(rng)
        mass, speed = rng.uniform(0.5, 2.0, size=2)
        s_cubic, s_mink = reduced_action_check(
            tau, x4, spinor, mass, speed, kappa=-1.01 * mass * speed
        )
        res[t] = abs(s_cubic - s_mink) / abs(s_mink)
    return res


def _chk_constraint_lorentz_invariance(rng, trials):
    res = np.empty(trials)
    for t in range(trials):
        x4, spinor = _random_timelike(rng)
        nine = assemble_velocity(x4, spinor)
        ell = group_action(embed_sl2(random_unimodular(rng, n=2)))
        moved = ell @ nine
        scale = max(1.0, minkowski.minkowski_norm_sq(moved[:4]) ** 1.5)
        res[t] = abs(constraint_residual(moved)) / scale
    return res


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
