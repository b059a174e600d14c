"""The 4-dimensional relativistic limit of the cubic-metric space.

Unimodular 2x2 matrices embedded in the upper-left block of SL(3, C) act on
the 9-space without mixing three index groups: components 0-3 transform as
a Lorentz 4-vector, components 4-7 as a 4-component spinor, and component 8
is invariant.  Constraining the velocities so that the cubic form equals
the Minkowski interval to the power 3/2 collapses the 9-dimensional action
onto the standard relativistic point-particle action once the coupling is
minus mass times speed of light.
"""

import numpy as np

from .dynamics import _check_kappas, _grid
from .exceptions import BlockLeakage, NonTimelike
from .geometry import _item, _require_unimodular, _stack, cubic_form, group_action

#: Minkowski metric with signature (+, -, -, -).
MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI_METRIC.setflags(write=False)

BLOCK_TOL = 1e-12

_VEC = slice(0, 4)
_SPIN = slice(4, 8)

#: Entries of a 9x9 action inside the 4+4+1 diagonal blocks.
_BLOCK_MASK = np.zeros((9, 9), dtype=bool)
_BLOCK_MASK[_VEC, _VEC] = _BLOCK_MASK[_SPIN, _SPIN] = _BLOCK_MASK[8, 8] = True
_BLOCK_MASK.setflags(write=False)


def minkowski_norm_sq(x4):
    """``g_ab x^a x^b`` of a 4-vector (broadcasts over leading axes)."""
    x4 = _stack(x4, 4)
    return x4[..., 0] ** 2 - x4[..., 1] ** 2 - x4[..., 2] ** 2 - x4[..., 3] ** 2


def embed_sl2(d2):
    """Embed unimodular 2x2 matrices in the upper-left block of 3x3 ones.

    Broadcasts over leading axes: ``(..., 2, 2)`` gives ``(..., 3, 3)``
    (otherwise ValueError naming the shape).  The embedded matrices pass the
    3x3 unimodularity gate, whose ``det`` is the 2x2 one, or raise
    :class:`NotUnimodular` for the worst of them.
    """
    d2 = _stack(d2, 2, 2, dtype=complex)
    d3 = np.zeros(d2.shape[:-2] + (3, 3), dtype=complex)
    d3[..., :2, :2] = d2
    d3[..., 2, 2] = 1.0
    return _require_unimodular(d3)


def _split_blocks(ell):
    """Separate 9x9 matrices into the 4+4+1 diagonal blocks, or fail loudly."""
    leak = np.max(np.abs(np.where(_BLOCK_MASK, 0.0, ell)), initial=0.0)
    if not leak <= BLOCK_TOL:
        raise BlockLeakage(f"cross-block entry {leak:.3e} exceeds {BLOCK_TOL:.1e}")
    return (ell[..., _VEC, _VEC].copy(), ell[..., _SPIN, _SPIN].copy(),
            _item(ell[..., 8, 8].copy()))


def block_split_check(d2):
    """Blocks of the 9-space action of an embedded 2x2 group element.

    Returns ``(vector_block, spinor_block, scalar)`` where the vector block
    acts on components 0-3, the spinor block on 4-7, and the scalar (always
    1) on component 8; a ``(..., 2, 2)`` stack gives stacked blocks.  Raises
    :class:`BlockLeakage` if any cross-block entry survives above tolerance.
    """
    return _split_blocks(group_action(embed_sl2(d2)))


def lorentz_residual(block):
    """Max-entry norm of ``block^T g block - g``; zero for Lorentz matrices.

    ``(..., 4, 4)`` blocks give shape ``(...)`` (a float for a single one).
    """
    block = _stack(block, 4, 4)
    g = MINKOWSKI_METRIC
    return _item(np.abs(np.swapaxes(block, -1, -2) @ g @ block - g).max(axis=(-2, -1)))


def _timelike_norm_sq(xdot):
    if not np.all(np.isfinite(xdot)):
        raise NonTimelike("velocity parts must be finite")
    q = minkowski_norm_sq(xdot[..., _VEC])
    if not np.all(q > 0.0):
        raise NonTimelike("the 4-velocity part must satisfy g(v, v) > 0")
    return q


def constraint_residual(xdot):
    """How far a 9-velocity is from the velocity constraint of the 4D limit.

    The constraint equates the cubic form with the 3/2 power of the
    Minkowski norm of the 4-velocity part.  Requires a finite velocity with
    a timelike 4-part.
    """
    xdot = _stack(xdot, 9)
    q = _timelike_norm_sq(xdot)
    return cubic_form(xdot) - np.asarray(q) ** 1.5  # the array power, as in a stack


def solve_x8dot(xdot03, xdot47):
    """The ninth velocity closing the 4D-limit constraint; a float for one pair."""
    return _item(assemble_velocity(xdot03, xdot47)[..., 8])


def assemble_velocity(xdot03, xdot47):
    """Full 9-velocity with the ninth component solved from the constraint.

    The cubic form is linear in the ninth velocity with coefficient equal
    to the (positive, timelike) Minkowski norm of the 4-velocity part, so
    the solution is the constraint's deficit at a zero ninth velocity over
    that norm.  The parts broadcast over leading axes (ValueError naming
    both shapes if they do not); non-finite parts or a non-timelike 4-part
    raise :class:`NonTimelike`.
    """
    x4, s4 = _stack(xdot03, 4), _stack(xdot47, 4)
    try:
        x4, s4 = np.broadcast_arrays(x4, s4)
    except ValueError:
        raise ValueError(f"velocity parts of shapes {x4.shape} and {s4.shape} "
                         "do not broadcast") from None
    nine = np.concatenate([x4, s4, np.zeros_like(x4[..., :1])], axis=-1)
    q = _timelike_norm_sq(nine)
    nine[..., 8] = (np.asarray(q) ** 1.5 - cubic_form(nine)) / q  # the array power, as in a stack
    return nine


def reduced_action_check(tau, xdot4, spinor, mass, light_speed, kappa=None):
    """Evaluate the 9-space action against the relativistic one on one curve.

    ``xdot4`` and ``spinor`` are sampled velocity components on the grid
    ``tau``; the ninth velocity is assembled from the constraint at every
    sample.  Returns ``(cubic_action, minkowski_action)``: the first is the
    9-space action at coupling ``kappa`` (default ``-mass * light_speed``),
    the second is ``-mass * light_speed`` times the proper-time integral.
    They agree exactly when ``kappa`` keeps its default value.  A ``kappa``,
    given or default, with an element outside ``2^-300 <= |kappa| <= 2^300``
    raises ValueError, as in the maps of :mod:`finsler9.dynamics`.

    Curves stacked as ``(..., n, 4)`` with ``mass``, ``light_speed`` and
    ``kappa`` broadcasting against ``(...)`` give two ``(...)`` arrays;
    one curve gives two floats.  ``tau`` is a finite 1-d grid of at least
    2 samples (otherwise :class:`DegeneratePath`) with one point a sample
    of the curve (otherwise ValueError naming both shapes).
    """
    mass = np.asarray(mass, dtype=float)
    light_speed = np.asarray(light_speed, dtype=float)
    if not (np.all(mass > 0) and np.all(light_speed > 0)):
        raise ValueError("mass and light speed must be positive")
    kappa = _check_kappas(-mass * light_speed if kappa is None else kappa)
    nine = assemble_velocity(xdot4, spinor)
    tau = _grid(tau, 2, nine[..., _VEC])
    q = minkowski_norm_sq(nine[..., _VEC])
    s_cubic = np.trapezoid(kappa[..., None] * np.cbrt(cubic_form(nine)), tau, axis=-1)
    s_mink = np.trapezoid(-(mass * light_speed)[..., None] * np.sqrt(q), tau, axis=-1)
    return _item(s_cubic), _item(s_mink)
