"""Free-particle mechanics in the cubic-metric 9-space.

The action of a free particle is proportional to the cubic-norm length of
its world line, with a single coupling constant ``kappa``.  The Lagrangian
is homogeneous of degree one in the velocities, so the canonical momenta
are constants of motion, the canonical energy vanishes identically, and the
world lines are straight.  The momenta are the scaled gradient
``3 G(xdot, xdot, .)`` of the cubic form (the sharp map: the adjugate of
the velocity matrix, read in the basis), and their closed-form inversion
is the same map at ``D p``, ``D = diag(1, ..., 1, 2)``; both run through
one broadcasting kernel in real arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegeneratePath,
    InconsistentMomenta,
    IsotropicVelocity,
    NonMonotone,
    NonRealEntry,
    NotUnitSpeed,
    SingularMomentumMatrix,
)
from .geometry import (
    LAMBDA_DUAL,
    _DUAL_SCALE,
    _cubic_gradient,
    _rejection_sample,
    _vectors,
    cubic_form,
    matrix_to_vec,
    vec_to_matrix,
)

#: Default coupling; mass times speed of light equal to one, negative sign
#: so that the 4-dimensional limit reproduces the relativistic action.
DEFAULT_KAPPA = -1.0

#: A velocity is treated as isotropic when |cubic_form| drops below this
#: fraction of its euclidean norm cubed.
ISOTROPY_EPS = 1e-9

UNIT_SPEED_TOL = 1e-9
CONSTRAINT_ADMISSION_TOL = 1e-8
SINGULARITY_TOL = 1e-12


def _check_kappa(kappa):
    kappa = float(kappa)
    if kappa == 0.0 or not np.isfinite(kappa):
        raise ValueError("kappa must be a nonzero finite real number")
    return kappa


def _nonisotropic_form(xdot):
    """Cubic form of the velocity, or IsotropicVelocity if it is negligible."""
    xdot = np.asarray(xdot, dtype=float)
    f = cubic_form(xdot)
    norm3 = np.linalg.norm(xdot, axis=-1) ** 3
    bad = np.abs(f) < ISOTROPY_EPS * norm3
    bad |= norm3 == 0.0  # the zero vector is isotropic by definition
    if np.any(bad):
        raise IsotropicVelocity(
            f"|cubic form| below {ISOTROPY_EPS:.0e} of |v|^3 "
            f"({int(np.count_nonzero(bad))} velocity sample(s))"
        )
    return f


def lagrangian(xdot, kappa=DEFAULT_KAPPA):
    """``kappa`` times the real cube root of the velocity's cubic form."""
    kappa = _check_kappa(kappa)
    return kappa * np.cbrt(_nonisotropic_form(xdot))


def canonical_momenta(xdot, kappa=DEFAULT_KAPPA):
    """The nine conserved momenta conjugate to the coordinates.

    Each component is ``kappa/3`` times the gradient of the cubic form
    divided by its 2/3 power, the latter computed as the squared real cube
    root so the result is well defined on negative cubic forms too.  The
    gradient is the sharp map ``3 G(xdot, xdot, .)``, ``tr(lambda_a adj X)``
    for the velocity matrix ``X``.  The result is invariant under any
    nonzero rescaling of ``xdot`` and broadcasts over leading axes.
    """
    kappa = _check_kappa(kappa)
    f = _nonisotropic_form(xdot)
    return (kappa / 3.0) * _cubic_gradient(xdot) / (np.cbrt(f) ** 2)[..., None]


def canonical_energy(xdot, kappa=DEFAULT_KAPPA):
    """``P . xdot - L``; identically zero for this degree-1 Lagrangian."""
    xdot = np.asarray(xdot, dtype=float)
    p = canonical_momenta(xdot, kappa)
    return np.einsum("...a,...a->...", p, xdot) - lagrangian(xdot, kappa)


def momenta_matrix(p):
    """Hermitian 3x3 matrix of a 9-tuple of momenta.

    Mirrors :func:`finsler9.geometry.vec_to_matrix` in the dual basis, whose
    doubled lower-right corner belongs to the ninth momentum, so it equals
    ``vec_to_matrix(D p)`` with ``D = diag(1, ..., 1, 2)``.
    """
    p = _vectors(p)
    return np.einsum("...a,aij->...ij", p, LAMBDA_DUAL)


def matrix_identity_residual(xdot, kappa=DEFAULT_KAPPA):
    """Residual of the product identity tying velocities to their momenta.

    The Hermitian velocity matrix times the momentum matrix equals
    ``(2 kappa / 3)`` times the cube root of the cubic form times the
    identity, for every real velocity.  Returns the max-entry norm of the
    difference, shape ``(...)`` for ``(..., 9)`` velocities (a float for a
    single one); the contract is ``<= 1e-10 * (1 + |xdot|^2 |P|)``.
    """
    kappa = _check_kappa(kappa)
    xdot = np.asarray(xdot, dtype=float)
    p = canonical_momenta(xdot, kappa)
    lhs = vec_to_matrix(xdot) @ momenta_matrix(p)
    rhs = (2.0 * kappa / 3.0) * np.cbrt(cubic_form(xdot))[..., None, None] * np.eye(3)
    residual = np.abs(lhs - rhs).max(axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual


def momentum_constraint_residual(p, kappa=DEFAULT_KAPPA):
    """``det`` of the momentum matrix minus ``(2 kappa / 3)^3``.

    ``p`` has shape ``(..., 9)``; the result has shape ``(...)`` (a float
    for a single vector).  Vanishes on momenta generated by a unit-speed
    velocity; externally supplied momenta must keep it within
    ``1e-8 * |2 kappa / 3|^3`` to be admitted by :func:`invert_momenta`.
    """
    kappa = _check_kappa(kappa)
    p = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore"):  # NaN rows fail admission in invert_momenta
        det = np.linalg.det(momenta_matrix(p))
    scale = np.maximum(1.0, np.linalg.norm(p, axis=-1) ** 3)
    excess = np.abs(det.imag) - 1e-12 * scale
    if np.any(excess > 0):
        worst = det.imag.flat[np.argmax(excess)]
        raise NonRealEntry(f"determinant imaginary part {worst:.3e}")
    residual = det.real - (2.0 * kappa / 3.0) ** 3
    return float(residual) if residual.ndim == 0 else residual


def invert_momenta(p, kappa=DEFAULT_KAPPA, method="adjugate"):
    """Recover the unit-speed initial velocity from nine admissible momenta.

    Parameters
    ----------
    p : array_like, shape (..., 9)
        Momenta whose matrix satisfies the determinant constraint within
        ``1e-8 * |2 kappa / 3|^3`` (checked row by row; no silent
        projection).
    kappa : float
        Coupling constant, nonzero.
    method : {"adjugate", "inverse"}
        "adjugate" takes the adjugate of the momentum matrix, the sharp
        map ``G(Dp, Dp, .)`` in real arithmetic, using the constraint to
        substitute the exact determinant value.  "inverse" goes through a
        generic LU inverse and exists as an independent cross-check of the
        closed form.

    Returns
    -------
    ndarray, shape (..., 9)
        Velocities with unit-determinant Hermitian matrix; feeding them
        back to :func:`canonical_momenta` reproduces ``p``.
    """
    kappa = _check_kappa(kappa)
    p = np.asarray(p, dtype=float)
    residual = np.asarray(momentum_constraint_residual(p, kappa))
    c = 2.0 * kappa / 3.0
    admitted = CONSTRAINT_ADMISSION_TOL * abs(c) ** 3
    if not np.all(np.abs(residual) <= admitted):  # NaN fails too
        worst = residual.flat[np.argmax(np.abs(residual))]
        raise InconsistentMomenta(f"residual {worst:.6e} exceeds {admitted:.3e}")
    norm3 = np.linalg.norm(p, axis=-1) ** 3
    if not np.all(abs(c) ** 3 >= SINGULARITY_TOL * norm3):
        raise SingularMomentumMatrix(
            f"|det| = {abs(c) ** 3:.3e} below {SINGULARITY_TOL:.0e} * |P|^3"
        )
    if method == "adjugate":
        # The velocity matrix is c N^-1 = adj(N) / c^2, with det N pinned to
        # c^3 by the constraint.  N = vec_to_matrix(D p), so component a of
        # adj(N) in the basis is 0.5 tr(dual_a adj N) = 0.5 D_a grad(D p)_a.
        return 0.5 * _DUAL_SCALE * _cubic_gradient(_DUAL_SCALE * p) / c**2
    if method == "inverse":
        vmat = c * np.linalg.inv(momenta_matrix(p))
        return matrix_to_vec(0.5 * (vmat + np.conj(np.swapaxes(vmat, -1, -2))))
    raise ValueError(f"unknown method {method!r}")


def transform_momenta(transform, p):
    """Carry momenta along a 9x9 coordinate transformation.

    Momenta transform with the inverse transpose so that the pairing
    ``P . X`` is preserved.  A ``(..., 9, 9)`` stack of transforms
    broadcasts against ``(..., 9)`` momenta.
    """
    transpose = np.swapaxes(np.asarray(transform, dtype=float), -1, -2)
    return np.linalg.solve(transpose, np.asarray(p, dtype=float)[..., None])[..., 0]


def _require_unit_speed(v0):
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (9,):
        raise ValueError(f"expected one 9-vector, got shape {v0.shape}")
    gap = abs(cubic_form(v0) - 1.0)
    if not gap <= UNIT_SPEED_TOL:
        raise NotUnitSpeed(f"|det - 1| = {gap:.3e} exceeds {UNIT_SPEED_TOL:.1e}")
    return v0


def general_solution(x0, v0, s):
    """Point(s) of the straight world line ``x0 + s * v0``.

    ``v0`` must satisfy the unit-determinant condition; ``s`` may be a
    scalar or an array of arc-length values (of either sign).
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = _require_unit_speed(v0)
    s = np.asarray(s, dtype=float)
    return x0 + s[..., None] * v0


@dataclass(frozen=True)
class Trajectory:
    """Straight world line with initial point, unit-speed velocity, and range."""

    x0: np.ndarray
    v0: np.ndarray
    s_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "v0", _require_unit_speed(self.v0))
        s_i, s_f = self.s_range
        if s_i != 0.0:
            raise ValueError("the arc-length range must start at 0")
        object.__setattr__(self, "s_range", (0.0, float(s_f)))

    def at(self, s):
        return general_solution(self.x0, self.v0, s)

    def sample(self, n):
        s = np.linspace(0.0, self.s_range[1], n)
        return s, self.at(s)


def arc_length(tau, positions):
    """Cumulative cubic-norm length of a sampled curve.

    Velocities are finite differences (central in the interior, one-sided
    second order at the ends), the integrand is the real cube root of
    their cubic form, and the running integral is a composite trapezoid
    starting at 0.  Every sample must be nonisotropic, and ``tau`` must be
    a 1-d grid of at least 3 samples (otherwise :class:`DegeneratePath`).
    """
    tau = np.asarray(tau, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if tau.ndim != 1:
        raise DegeneratePath(f"tau must be a 1-d grid of samples, got shape {tau.shape}")
    if len(tau) < 3:
        raise DegeneratePath(f"need at least 3 samples, got {len(tau)}")
    vel = np.gradient(positions, tau, axis=0)
    speed = np.cbrt(_nonisotropic_form(vel))
    steps = np.diff(tau) * 0.5 * (speed[1:] + speed[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def reparametrize(traj, s_of_tau, tau):
    """Sample a trajectory in an arbitrary evolution parameter.

    ``s_of_tau`` is either a callable or an array of arc-length values
    aligned with ``tau``; it must start at 0 and be strictly monotone
    (otherwise :class:`NonMonotone`).  ``tau`` is a 1-d grid of at least
    2 samples (otherwise :class:`DegeneratePath`).  Returns
    ``(tau, positions)``.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or len(tau) < 2:
        raise DegeneratePath(f"need a 1-d grid of at least 2 samples, got shape {tau.shape}")
    s = np.asarray(s_of_tau(tau) if callable(s_of_tau) else s_of_tau, dtype=float)
    if s.shape != tau.shape:
        raise ValueError("s samples must align with tau samples")
    if abs(s[0]) > 1e-12:
        raise ValueError(f"reparametrization must start at s = 0, got {s[0]!r}")
    steps = np.diff(s)
    if np.any(steps == 0.0) or np.any(np.sign(steps) != np.sign(steps[0])):
        raise NonMonotone("ds/dtau vanishes or changes sign on the grid")
    return tau, traj.at(s)


def discrete_action(tau, positions, kappa=DEFAULT_KAPPA):
    """Trapezoid action of a sampled curve with finite-difference velocities.

    ``positions`` has shape ``(..., samples, 9)``; the result has shape
    ``(...)``, one action per curve (a float for a single curve).
    """
    tau = np.asarray(tau, dtype=float)
    vel = np.gradient(np.asarray(positions, dtype=float), tau, axis=-2)
    action = np.trapezoid(lagrangian(vel, kappa), tau)
    return float(action) if action.ndim == 0 else action


def action_stationarity_check(traj, eta, amplitudes, kappa=DEFAULT_KAPPA, samples=201):
    """Scaling exponent of the action change under a boundary-fixed bump.

    The trajectory is sampled on a uniform grid of at least 200 points,
    perturbed by ``eps * eta`` for each amplitude, and the discretized
    action of the base curve and of every perturbed one computed as one
    ``(len(amplitudes) + 1, samples, 9)`` stack.  Because straight lines
    make the action stationary, ``log |S(eps) - S(0)|`` against
    ``log eps`` must fit a slope of 2.

    ``eta`` is a callable ``tau -> (9,)`` or an aligned ``(samples, 9)``
    array vanishing at both ends.  Raises :class:`IsotropicVelocity` when a
    perturbed curve touches the isotropic cone (shrink the amplitudes).
    """
    if samples < 200:
        raise ValueError("the action grid needs at least 200 samples")
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.size < 2 or np.any(amplitudes <= 0):
        raise ValueError("need at least two positive amplitudes to fit a slope")
    tau = np.linspace(0.0, traj.s_range[1], samples)
    base = traj.at(tau)
    bump = np.stack([eta(t) for t in tau]) if callable(eta) else np.asarray(eta, dtype=float)
    if bump.shape != base.shape:
        raise ValueError("eta samples must have shape (samples, 9)")
    if np.abs(bump[0]).max() > 1e-12 or np.abs(bump[-1]).max() > 1e-12:
        raise ValueError("eta must vanish at both endpoints")
    curves = np.concatenate([base[None], base + amplitudes[:, None, None] * bump])
    actions = discrete_action(tau, curves, kappa)
    gaps = np.abs(actions[1:] - actions[0])
    if np.any(gaps == 0.0):
        raise ValueError("perturbation produced no action change; cannot fit")
    slope, _ = np.polyfit(np.log(amplitudes), np.log(gaps), 1)
    return float(slope)


def random_nonisotropic_velocity(rng, margin=1e-3, scale=1.0, size=None):
    """Uniform velocity draws rejected until safely off the isotropic cone.

    ``margin`` is the admitted lower bound of |cubic form| relative to the
    euclidean norm cubed; 1e-3 keeps downstream quotients well conditioned
    while rejecting almost nothing.  ``size`` (an int or a shape) stacks
    that many velocities, shape ``size + (9,)``; rejected draws are redrawn
    as a block.  ``size=None`` returns one ``(9,)`` velocity.
    """
    def accept(x):
        return np.abs(cubic_form(x)) >= margin * np.linalg.norm(x, axis=-1) ** 3

    return _rejection_sample(lambda k: rng.uniform(-scale, scale, size=(k, 9)), accept, size)


def unit_speed_velocity(rng, margin=1e-3, size=None):
    """Random velocities rescaled so their cubic form is exactly one.

    ``size`` is passed to :func:`random_nonisotropic_velocity`.
    """
    xdot = random_nonisotropic_velocity(rng, margin, size=size)
    return xdot / np.cbrt(cubic_form(xdot))[..., None]
