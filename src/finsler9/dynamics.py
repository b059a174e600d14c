"""Free-particle mechanics in the cubic-metric 9-space.

The action of a free particle is proportional to the cubic-norm length of
its world line, with a single coupling constant ``kappa``.  The Lagrangian
is homogeneous of degree one in the velocities, so the canonical momenta
are constants of motion, the canonical energy vanishes identically, and the
world lines are straight.  The momenta are the scaled gradient
``3 G(xdot, xdot, .)`` of the cubic form (the sharp map: the adjugate of
the velocity matrix, read in the basis), and their closed-form inversion
is the same map at ``D p``, ``D = diag(1, ..., 1, 2)``; both run through
one broadcasting kernel in real arithmetic.  The constraint ``det N`` is
one more table of :mod:`finsler9.geometry`'s term-table builder and reader.
"""

import contextlib
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
    _B_DUAL,
    _DUAL_SCALE,
    _basis_matrix,
    _by_blocks,
    _compensated_sums,
    _cubic_gradient,
    _is_count,
    _item,
    _monomials,
    _norm,
    _plain_sums,
    _rejection_sample,
    _stack,
    _terms,
    G,
    cubic_form,
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

#: ``det N = cubic_form(D p)`` as a table of ``G``'s 16 monomials in the
#: momenta, 16 steps of one output, with ``D`` folded into their weights.
_DET_TERMS = _terms(_monomials(G._dense, _DUAL_SCALE))

#: Higham's ``gamma_8 = 8u / (1 - 8u)``, ``u = 2^-53``.  A plain monomial
#: rounds twice and the sum by halves of 16 rounds four times, so the plain
#: ``det N`` is within ``gamma_6 S``; two more cover the rounding of ``S``
#: and of the threshold it is compared with.  It also bounds the
#: compensated sum's ``gamma^2 S``.
_GAMMA = 8 * 2.0**-53 / (1 - 8 * 2.0**-53)

#: The plain ``det N`` stands where ``gamma_8 S`` is at most this times
#: ``|2 kappa / 3|^3``: 1e5 below ``CONSTRAINT_ADMISSION_TOL``.
_PLAIN_DET_TOL = 1e-13


#: The range of ``|kappa|``: ``2^-300`` to ``2^300``, about 4.9e-91 to 2.0e90.
_KAPPA_RANGE = (2.0**-300, 2.0**300)


def _in_range(kappa):
    """Whether ``2^-300 <= |kappa| <= 2^300``, for a float or element by element; NaN is not.

    In that range ``|2 kappa / 3|^3`` lies within ``2^-902 .. 2^899``.  On
    momenta of the order of ``|kappa|``, as unit-speed momenta are, with
    room for a factor ``2^20`` either way, the monomials of
    :func:`momentum_constraint_residual` and their exact rounding errors
    stay normal, products of two stay below ``2^996`` and the 16-term sum
    stays finite, so its stated accuracy holds.  Far outside it ``c^3``
    overflows, or underflows and admission accepts anything.  Zero, NaN
    and the infinities are outside the range.
    """
    size = abs(kappa)
    return (size >= _KAPPA_RANGE[0]) & (size <= _KAPPA_RANGE[1])


def _check_kappa(kappa):
    """One ``kappa`` as a Python float, or ValueError naming it unless it is one number in range.

    A Python float keeps ``c ** 3`` on C ``pow``; numpy's array power may
    round it apart.
    """
    if not isinstance(kappa, float) and (kappa is None or np.ndim(kappa) != 0):
        what = "None" if kappa is None else f"shape {np.shape(kappa)}"
        raise ValueError(f"kappa must be one number, got {what}")
    kappa = float(kappa)
    if not _in_range(kappa):
        raise ValueError(f"kappa must be nonzero, with 2^-300 <= |kappa| <= 2^300, got {kappa!r}")
    return kappa


def _check_kappas(kappa):
    """``kappa`` as a float array, or :func:`_check_kappa`'s ValueError for its first element outside."""
    kappa = np.asarray(kappa, dtype=float)
    outside = ~_in_range(kappa)
    if outside.any():
        _check_kappa(kappa[outside].flat[0])
    return kappa


def _cubed_norm(x):
    """``|x|^3`` of ``(..., 9)`` rows as ``n * n * n``, ``n = |x|``.

    Only correctly rounded products, so one row and a stack give the same
    bits; numpy's scalar ``n ** 3`` and its array power differ in the last
    bits.
    """
    n = _norm(x)
    return n * n * n


def _nonisotropic_form(xdot):
    """Cubic form of the velocity, or IsotropicVelocity if it is negligible.

    A row with an infinite or NaN entry counts as isotropic, before any
    arithmetic on it.
    """
    xdot = _stack(xdot, 9)
    if not np.isfinite(xdot).all():  # a zero row is isotropic
        xdot = np.where(np.isfinite(xdot).all(axis=-1, keepdims=True), xdot, 0.0)
    f = cubic_form(xdot)
    norm3 = _cubed_norm(xdot)
    bad = ~(np.abs(f) >= ISOTROPY_EPS * norm3)  # NaN is bad too
    bad |= norm3 == 0.0  # the zero vector is isotropic by definition
    if np.any(bad):
        raise IsotropicVelocity(
            f"|cubic form| below {ISOTROPY_EPS:.0e} of |v|^3 "
            f"({int(np.count_nonzero(bad))} velocity sample(s))"
        )
    return f


def lagrangian(xdot, kappa=DEFAULT_KAPPA):
    """``kappa`` times the real cube root of the velocity's cubic form.

    ``(..., 9)`` velocities give shape ``(...)``.  ``kappa`` is a float or
    an array that broadcasts against those leading axes, every element in
    ``2^-300 <= |kappa| <= 2^300`` (otherwise ValueError); a row with its
    own ``kappa`` gives the bits of its own call.  A velocity on or near
    the isotropic cone raises :class:`IsotropicVelocity`.
    """
    kappa = _check_kappas(kappa)
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
    return (kappa / 3.0) * _cubic_gradient(xdot) / np.square(np.cbrt(f))[..., None]


def canonical_energy(xdot, kappa=DEFAULT_KAPPA):
    """``P . xdot - L``; identically zero for this degree-1 Lagrangian."""
    xdot = _stack(xdot, 9)
    p = canonical_momenta(xdot, kappa)
    return np.einsum("...a,...a->...", p, xdot) - lagrangian(xdot, kappa)


def momenta_matrix(p):
    """Hermitian 3x3 matrix of a 9-tuple of momenta.

    Mirrors :func:`finsler9.geometry.vec_to_matrix` in the dual basis, whose
    doubled lower-right corner belongs to the ninth momentum, so it equals
    ``vec_to_matrix(D p)`` with ``D = diag(1, ..., 1, 2)``.
    """
    return _basis_matrix(p, _B_DUAL)


def matrix_identity_residual(xdot, kappa=DEFAULT_KAPPA):
    """Residual of the product identity tying velocities to their momenta.

    The Hermitian velocity matrix times the momentum matrix equals
    ``(2 kappa / 3)`` times the cube root of the cubic form times the
    identity, for every real velocity.  Returns the max-entry norm of the
    difference, shape ``(...)`` for ``(..., 9)`` velocities (a float for a
    single one); the contract is ``<= 1e-10 * (1 + |xdot|^2 |P|)``.
    """
    kappa = _check_kappa(kappa)
    xdot = _stack(xdot, 9)
    p = canonical_momenta(xdot, kappa)
    lhs = vec_to_matrix(xdot) @ momenta_matrix(p)
    rhs = (2.0 * kappa / 3.0) * np.cbrt(cubic_form(xdot))[..., None, None] * np.eye(3)
    return _item(np.abs(lhs - rhs).max(axis=(-2, -1)))


def momentum_constraint_residual(p, kappa=DEFAULT_KAPPA):
    """``det`` of the momentum matrix minus ``(2 kappa / 3)^3``.

    ``p`` has shape ``(..., 9)``; the result has shape ``(...)`` (a float
    for a single vector), and a stack gives the bits of its rows.
    Vanishes on momenta generated by a unit-speed velocity; externally
    supplied momenta must keep it within ``1e-8 * |2 kappa / 3|^3`` to be
    admitted by :func:`invert_momenta`.

    Accuracy: ``det N`` is ``cubic_form(D p)``, summed in real arithmetic
    from the 16 monomials ``w p_a p_b p_c`` (``w`` exactly +-1 or +-2) of
    ``_DET_TERMS``, a table that ``geometry._terms`` builds and ``geometry`` reads.
    With ``S`` the sum of their magnitudes and ``u = 2^-53``, a row keeps
    the plain sum when ``gamma_8 S <= 1e-13 |2 kappa / 3|^3``, and that
    bounds its error.  Any other row is recomputed with exact products and
    a compensated sum, whose error is at most ``u |det N| + gamma_8^2 S``.
    Both hold while no product underflows, and entries and products of two
    stay below ``2^996`` in magnitude.  A row with an infinite or NaN
    entry, or whose monomials overflow, gives a non-finite value.
    """
    kappa = _check_kappa(kappa)
    p = _stack(p, 9)
    c3 = (2.0 * kappa / 3.0) ** 3
    rows = p.reshape(-1, 9)
    # inf and NaN propagate: such rows fail admission in invert_momenta
    det, size = _by_blocks(_plain_sums, _DET_TERMS, rows, np.empty((2, 1, len(rows))))[:, 0]
    # a NaN or infinite S takes the compensated pass too
    redo = np.flatnonzero(~(size <= _PLAIN_DET_TOL * abs(c3) / _GAMMA))
    if len(redo):
        det[redo] = _by_blocks(_compensated_sums, _DET_TERMS, rows[redo],
                               np.empty((1, len(redo))), copies=9)
    return _item((det - c3).reshape(p.shape[:-1]))


def invert_momenta(p, kappa=DEFAULT_KAPPA):
    """Recover the unit-speed initial velocity from nine admissible momenta.

    The velocity is the adjugate of the momentum matrix, the sharp map
    ``G(Dp, Dp, .)`` in real arithmetic, with the constraint substituting
    the exact determinant value.  The ``adjugate_vs_inverse`` check in
    :mod:`finsler9.checks` compares it with a generic LU inverse.

    Parameters
    ----------
    p : array_like, shape (..., 9)
        Momenta whose matrix satisfies the determinant constraint within
        ``1e-8 * |2 kappa / 3|^3`` (checked row by row; no silent
        projection).
    kappa : float
        Coupling constant, ``2^-300 <= |kappa| <= 2^300``.

    Returns
    -------
    ndarray, shape (..., 9)
        Velocities ``adj(N) / c^2``, ``c = 2 kappa / 3``, whose cubic form
        ``(det N / c^3)^2`` misses 1 by up to about ``2e-8`` at the admission
        edge and by more near the isotropic cone, so :class:`Trajectory` may
        refuse them, and so does ``finsler9 propagate``.  :func:`canonical_momenta`
        maps them back to ``p`` to that order.
    """
    kappa = _check_kappa(kappa)
    p = _stack(p, 9)
    residual = np.asarray(momentum_constraint_residual(p, kappa))
    c = 2.0 * kappa / 3.0
    admitted = CONSTRAINT_ADMISSION_TOL * abs(c) ** 3
    if not np.all(np.abs(residual) <= admitted):  # NaN fails too
        worst = residual.flat[np.argmax(np.abs(residual))]
        raise InconsistentMomenta(f"residual {worst:.6e} exceeds {admitted:.3e}")
    norm3 = _cubed_norm(p)
    if not np.all(abs(c) ** 3 >= SINGULARITY_TOL * norm3):
        raise SingularMomentumMatrix(
            f"|det| = {abs(c) ** 3:.3e} below {SINGULARITY_TOL:.0e} * |P|^3"
        )
    # The velocity matrix is c N^-1 = adj(N) / c^2, with det N pinned to
    # c^3 by the constraint.  N = vec_to_matrix(D p), so component a of
    # adj(N) in the basis is 0.5 tr(dual_a adj N) = 0.5 D_a grad(D p)_a.
    return 0.5 * _DUAL_SCALE * _cubic_gradient(_DUAL_SCALE * p) / c**2


def transform_momenta(transform, p):
    """Carry momenta along a 9x9 coordinate transformation.

    Momenta transform with the inverse transpose so that the pairing
    ``P . X`` is preserved.  A ``(..., 9, 9)`` stack of transforms
    broadcasts against ``(..., 9)`` momenta; any other shape raises
    ValueError naming it.  A singular or non-finite transform, or solved
    momenta that are not all finite, raise :class:`SingularMomentumMatrix`.
    """
    transpose = np.swapaxes(_stack(transform, 9, 9), -1, -2)
    if np.isfinite(transpose).all():
        with contextlib.suppress(np.linalg.LinAlgError):
            moved = np.linalg.solve(transpose, _stack(p, 9)[..., None])[..., 0]
            if np.isfinite(moved).all():
                return moved
    raise SingularMomentumMatrix("the momentum transform is singular or not finite")


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
    scalar or an array of arc-length values (of either sign) and
    broadcasts as in :meth:`Trajectory.at`, which also refuses a point
    that is not finite (a NaN ``x0`` or ``s`` included) with
    :class:`NonRealEntry`.
    """
    return Trajectory(x0, v0).at(s)


@dataclass(frozen=True)
class Trajectory:
    """Straight world line with initial point, unit-speed velocity, and range."""

    x0: np.ndarray
    v0: np.ndarray
    s_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "x0", _stack(self.x0, 9))
        object.__setattr__(self, "v0", _require_unit_speed(self.v0))
        try:
            s_i, s_f = map(float, self.s_range)
        except (TypeError, ValueError):  # not a pair of numbers
            s_i = s_f = np.nan
        if s_i != 0.0 or not np.isfinite(s_f):
            raise ValueError("the arc-length range must start at 0 and end at a finite value, "
                             f"got {self.s_range!r}")
        object.__setattr__(self, "s_range", (0.0, s_f))

    def at(self, s):
        """Point(s) ``x0 + s * v0`` at a scalar or an array of arc lengths ``s``.

        ``s`` broadcasts against the leading axes of ``x0``; shapes that do
        not broadcast raise ValueError naming both.  A point with an
        infinite or NaN entry, from an overflow or from a NaN ``x0`` or
        ``s``, raises :class:`NonRealEntry`.
        """
        s = np.asarray(s, dtype=float)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite point fails below
                points = self.x0 + s[..., None] * self.v0
        except ValueError:
            raise ValueError(f"arc lengths of shape {s.shape} and initial points of shape "
                             f"{self.x0.shape} do not broadcast") from None
        if not np.isfinite(points).all():
            raise NonRealEntry("the world line is beyond the float range")
        return points

    def sample(self, n):
        """``n`` evenly spaced arc lengths ``s`` from 0 to ``s_range[1]``, and ``self.at(s)``.

        An ``n`` that is not a non-negative integer raises ValueError naming it.
        """
        if not _is_count(n, 0):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        s = np.linspace(0.0, self.s_range[1], n)
        return s, self.at(s)


def _grid(tau, k, curve=None):
    """``tau`` as a float grid for the samples of ``curve``, an ``(..., samples, m)`` array.

    DegeneratePath unless ``tau`` is 1-d and finite with ``k`` samples or
    more; ValueError naming both shapes unless ``curve`` has as many
    samples as ``tau``.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or len(tau) < k:
        raise DegeneratePath(f"need a 1-d grid of at least {k} samples, got shape {tau.shape}")
    if not np.isfinite(tau).all():
        raise DegeneratePath(f"need a finite grid, got {float(tau[~np.isfinite(tau)][0])}")
    if curve is not None and np.shape(curve)[-2:-1] != tau.shape:
        raise ValueError(f"a grid of shape {tau.shape} does not align with the samples of a "
                         f"curve of shape {np.shape(curve)}")
    return tau


def arc_length(tau, positions):
    """Cumulative cubic-norm length of a sampled curve.

    Velocities are finite differences (central in the interior, one-sided
    first order at the ends), the integrand is the real cube root of
    their cubic form, and the running integral is a composite trapezoid
    starting at 0.  Every sample must be nonisotropic, and ``tau`` must be
    a finite 1-d grid of at least 3 samples (otherwise
    :class:`DegeneratePath`) with one point a row of ``positions``
    (otherwise ValueError).
    """
    positions = np.asarray(positions, dtype=float)
    tau = _grid(tau, 3, positions)
    vel = np.gradient(positions, tau, axis=0)
    speed = np.cbrt(_nonisotropic_form(vel))
    steps = np.diff(tau) * 0.5 * (speed[1:] + speed[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def reparametrize(traj, s_of_tau, tau):
    """Sample a trajectory in an arbitrary evolution parameter.

    ``s_of_tau`` is either a callable or an array of arc-length values
    aligned with ``tau``; it must start at 0 and be strictly monotone
    (otherwise :class:`NonMonotone`).  ``tau`` is a finite 1-d grid of at
    least 2 samples (otherwise :class:`DegeneratePath`).  Returns
    ``(tau, positions)``.
    """
    tau = _grid(tau, 2)
    s = np.asarray(s_of_tau(tau) if callable(s_of_tau) else s_of_tau, dtype=float)
    if s.shape != tau.shape:
        raise ValueError("s samples must align with tau samples")
    if not abs(s[0]) <= 1e-12:  # NaN fails too
        raise ValueError(f"reparametrization must start at s = 0, got {s[0]!r}")
    steps = np.diff(s)
    if np.any(steps == 0.0) or np.any(np.sign(steps) != np.sign(steps[0])):
        raise NonMonotone("ds/dtau vanishes or changes sign on the grid")
    return tau, traj.at(s)


def discrete_action(tau, positions, kappa=DEFAULT_KAPPA):
    """Trapezoid action of a sampled curve with finite-difference velocities.

    ``positions`` has shape ``(..., samples, 9)``; the result has shape
    ``(...)``, one action per curve (a float for a single curve).  A grid
    ``tau`` with fewer than 2 samples or a non-finite one raises
    :class:`DegeneratePath`, and one whose length is not ``samples``
    raises ValueError.
    """
    positions = np.asarray(positions, dtype=float)
    tau = _grid(tau, 2, positions)
    vel = np.gradient(positions, tau, axis=-2)
    return _item(np.trapezoid(lagrangian(vel, kappa), tau))


def action_stationarity_check(traj, eta, amplitudes, kappa=DEFAULT_KAPPA, samples=201):
    """Scaling exponent of the action change under boundary-fixed bumps.

    The trajectory is sampled on a uniform grid of at least 200 points,
    perturbed by ``eps * eta`` for each amplitude, and the discretized
    action of the base curve and of every perturbed one computed as one
    ``(..., len(amplitudes) + 1, samples, 9)`` stack.  Because straight
    lines make the action stationary, ``log |S(eps) - S(0)|`` against
    ``log eps`` must fit a slope of 2, bump by bump.

    ``eta`` is a callable ``tau -> (9,)`` or a ``(..., samples, 9)`` stack
    of bumps vanishing at both ends; the slopes have shape ``(...)`` (a
    float for one bump).  A last axis other than 9 raises the library's
    shape-rule ValueError, and another number of samples a ValueError
    naming ``(..., samples, 9)``.  Raises :class:`IsotropicVelocity` when a
    perturbed curve touches the isotropic cone (shrink the amplitudes).
    """
    if not _is_count(samples, 200):
        raise ValueError(f"samples must be an integer of at least 200, got {samples!r}")
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.size < 2 or not np.all(amplitudes > 0):  # NaN is not positive
        raise ValueError("need at least two positive amplitudes to fit a slope")
    if not np.isfinite(amplitudes).all():
        raise ValueError(f"amplitudes must be finite, got {amplitudes.tolist()!r}")
    tau = np.linspace(0.0, traj.s_range[1], samples)
    base = traj.at(tau)
    bump = _stack(np.stack([eta(t) for t in tau]) if callable(eta) else eta, 9)
    if bump.shape[-2:] != base.shape:
        raise ValueError("eta samples must have shape (..., samples, 9)")
    if np.abs(bump[..., [0, -1], :]).max(initial=0.0) > 1e-12:
        raise ValueError("eta must vanish at both endpoints")
    eps = np.concatenate([[0.0], amplitudes])
    actions = discrete_action(tau, base + eps[:, None, None] * bump[..., None, :, :], kappa)
    gaps = np.abs(actions[..., 1:] - actions[..., :1])
    if np.any(gaps == 0.0):
        raise ValueError("perturbation produced no action change; cannot fit")
    # one fit per bump: a 2-d right-hand side moves the bits from 8 amplitudes up
    slopes = [np.polyfit(np.log(amplitudes), g, 1)[0]
              for g in np.log(gaps).reshape(-1, amplitudes.size)]
    return _item(np.reshape(slopes, gaps.shape[:-1]))


#: ``|cubic_form(x)| <= (2/3)^1.5 |x|^3`` for every ``x``: the eigenvalues of
#: the velocity matrix ``X`` have squares summing to ``|X|_F^2 <= 2 |x|^2``
#: in this basis, and by AM-GM their product is at most ``(|X|_F^2 / 3)^1.5``.
#: A margin at or above it admits no draw.
_MARGIN_LIMIT = (2.0 / 3.0) ** 1.5


def _is_real(x):
    """Whether ``x`` is one real number: a Python or numpy int or float, or a 0-d array of one."""
    return np.ndim(x) == 0 and np.asarray(x).dtype.kind in "biuf"


def random_nonisotropic_velocity(rng, margin=1e-3, scale=1.0, size=None):
    """Uniform velocity draws rejected until safely off the isotropic cone.

    ``margin`` is the admitted lower bound of |cubic form| relative to the
    euclidean norm cubed; 1e-3 keeps downstream quotients well conditioned
    while rejecting almost nothing.  Draws are uniform in ``[-scale,
    scale]``.  ``size`` (a non-negative int or a shape of them) stacks
    that many velocities, shape ``size + (9,)``; rejected draws are redrawn
    as a block.  ``size=None`` returns one ``(9,)`` velocity.  A margin
    that is not a real number in ``0 <= margin < (2/3)^1.5``, a scale that
    is not a finite positive number, or another ``size`` raises ValueError
    naming it, before anything is drawn.
    """
    if not (_is_real(margin) and 0.0 <= margin < _MARGIN_LIMIT):  # NaN fails too
        raise ValueError(f"margin must be finite with 0 <= margin < (2/3)^1.5, got {margin!r}")
    if not (_is_real(scale) and 0.0 < scale < np.inf):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")

    def accept(x):
        return np.abs(cubic_form(x)) >= margin * _cubed_norm(x)

    return _rejection_sample(lambda k: rng.uniform(-scale, scale, size=(k, 9)), accept, size)


def unit_speed_velocity(rng, margin=1e-3, size=None):
    """Random velocities rescaled so their cubic form is exactly one.

    ``margin`` and ``size`` are passed to :func:`random_nonisotropic_velocity`,
    which refuses them as it does its own.
    """
    xdot = random_nonisotropic_velocity(rng, margin, size=size)
    return xdot / np.cbrt(cubic_form(xdot))[..., None]
