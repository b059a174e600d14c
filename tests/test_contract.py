"""The export contract: one table of every export, and the properties that read it.

``EXPORTS`` has a row for every callable that ``finsler9`` exports (and
``Class.method`` rows for methods that refuse on their own): its pinned
parameter names; either its stacking cases or why it takes no stack; and
its refusals, each an input, a token and an exact message (empty where the
shape and kappa rules cover the export).  Four properties walk it:

- a stack gives the bits of its rows: each case is called on a stack that
  crosses its blocks' edges, on the same rows as a 2-d stack, and on each
  row alone; the results must agree in every bit, the sign of zero and the
  place of each NaN included, and a result for one item must be a float
  (a Python float or a numpy scalar), never a 0-d array;
- the shape rule: an item argument with an axis one too long or one too
  short, or reduced to a lone scalar, raises ValueError ``expected shape
  (..., <item>), got shape <shape>``, for one item and for a stack;
- the kappa rule: every export that takes ``kappa`` refuses one outside
  ``2^-300 <= |kappa| <= 2^300`` with ValueError;
- a refusal raises its token and exact message: exactly the entry's error
  class, its whole message, no warning first (``filterwarnings = error``)
  and no draw from a generator among the inputs.  A stack with one bad row
  is an entry with the message of that row alone.

A new export joins the contract by joining ``EXPORTS``, and a new refusal
by one entry in its row; ``test_every_export_is_a_row_with_its_pinned_parameters``
fails for an export without a row, and for a row whose parameters are not
the export's, and ``test_every_token_is_the_error_of_a_refusal`` for a
token that no entry raises.
"""

import copy
import functools
import inspect
import pathlib
import re
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsler9
from finsler9 import (
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
    Trajectory,
    action_stationarity_check,
    assemble_velocity,
    block_split_check,
    canonical_energy,
    canonical_momenta,
    conjugation_action,
    constraint_residual,
    cubic_form,
    discrete_action,
    embed_sl2,
    general_solution,
    group_action,
    invert_momenta,
    lagrangian,
    lorentz_residual,
    matrix_identity_residual,
    matrix_to_vec,
    metric_coefficients,
    minkowski_norm_sq,
    momenta_matrix,
    momentum_constraint_residual,
    random_unimodular,
    reduced_action_check,
    solve_x8dot,
    transform_momenta,
    unit_speed_velocity,
    vec_to_matrix,
)
from finsler9.dynamics import _DET_TERMS, _KAPPA_RANGE
from finsler9.geometry import (
    _ACTION_TERMS,
    _BLOCK_ROWS,
    _CACHE_TERMS,
    _COMPLEX_DET_TERMS,
    _GRADIENT_TERMS,
    _require_unimodular,
)

from contract import exported_callables, same_bits

#: Rows per block of each kernel: 512 (gradient), 56 (action), 2 304
#: (momentum determinant), 768 (unimodularity gate) and 4 096 (``_rows_times``).
GRADIENT, ACTION, DETERMINANT, GATE = (
    _CACHE_TERMS // t[-1].size
    for t in (_GRADIENT_TERMS, _ACTION_TERMS, _DET_TERMS, _COMPLEX_DET_TERMS))
BASIS = _BLOCK_ROWS

#: Stack sizes for functions without blocks.  256 rows cross any SIMD width
#: many times, and give a one-item rounding that differs from a stack's (as
#: numpy's scalar and array powers do on 6% of 4D-limit pairs) room to show.
ELEMENTWISE = 256

#: Stack sizes for functions of whole curves, whose every row is already a
#: stack of samples: 8 rows cross the widest SIMD width.
CURVES = 8

TAU = np.linspace(0.0, 1.0, 201)
TRAJECTORY = Trajectory(np.zeros(9), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
AMPLITUDES = np.geomspace(1e-2, 1e-4, 9)  # a fit of all bumps at once moves bits from 8 up
ONE_TRANSFORM = group_action(random_unimodular(np.random.default_rng(0)))


def scales(rng, n, low, high):
    """One power of ten a row, from ``10^low`` to ``10^high``, as ``(n, 1)``."""
    return 10.0 ** rng.uniform(low, high, size=(n, 1))


def velocities(rng, n):
    """``n`` nonisotropic velocities over 60 decades, some entries ``-0.0``."""
    x = rng.uniform(-1.0, 1.0, size=(2 * n + 20, 9))
    x[rng.random(x.shape) < 0.1] = -0.0
    x = x[np.abs(cubic_form(x)) >= 1e-3 * np.linalg.norm(x, axis=1) ** 3][:n]
    return (x * scales(rng, n, -30, 30),)


def kappas(rng, n):
    """One coupling a row, of either sign, across the kappa range."""
    return rng.choice([-1.0, 1.0], size=n) * 2.0 ** rng.uniform(-300, 300, size=n)


def velocities_and_kappas(rng, n):
    return velocities(rng, n) + (kappas(rng, n),)


def admitted_momenta(rng, n):
    """Unit-speed momenta moved up to ``2e-9`` off the constraint: all admitted."""
    p = canonical_momenta(unit_speed_velocity(rng, size=n))
    return (p * (1.0 + 2e-9 * rng.uniform(-1.0, 1.0, size=(n, 1))),)


def wide_rows(rng, n):
    """Unit-speed momenta over 230 decades, with ``-0.0``, inf and NaN entries."""
    p = canonical_momenta(unit_speed_velocity(rng, size=n)) * scales(rng, n, -120, 110)
    p[rng.random(p.shape) < 0.05] = -0.0
    for value, share in ((np.inf, 0.02), (-np.inf, 0.02), (np.nan, 0.02)):
        p[rng.random(p.shape) < share] = value
    return (p,)


def finite_rows(rng, n, width=9):
    """Signed ``width``-vectors over 200 decades, some entries ``-0.0``."""
    x = rng.uniform(-1.0, 1.0, size=(n, width)) * scales(rng, n, -100, 100)
    x[rng.random(x.shape) < 0.05] = -0.0
    return (x,)


def four_vectors(rng, n):
    return finite_rows(rng, n, 4)


def four_by_four(rng, n):
    return (finite_rows(rng, n, 16)[0].reshape(n, 4, 4),)


def unimodular(rng, n):
    return (random_unimodular(rng, size=n),)


def unimodular_2x2(rng, n):
    return (random_unimodular(rng, n=2, size=n),)


def unimodular_and_vectors(rng, n):
    return unimodular(rng, n) + finite_rows(rng, n)


def hermitian(rng, n):
    return (vec_to_matrix(finite_rows(rng, n)[0]),)


def transforms_and_momenta(rng, n):
    return (group_action(random_unimodular(rng, size=n)),) + admitted_momenta(rng, n)


def timelike_parts(rng, n):
    """Timelike 4-velocity parts and spinor parts, each pair scaled over 60 decades."""
    spatial = rng.uniform(-0.5, 0.5, size=(n, 3))
    q = rng.uniform(0.2, 4.0, size=(n, 1))
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=1, keepdims=True)), spatial],
                        axis=1)
    spinor = rng.uniform(-0.5, 0.5, size=(n, 4))
    spinor[rng.random(spinor.shape) < 0.1] = -0.0
    k = scales(rng, n, -30, 30)
    return x4 * k, spinor * k


def timelike_velocities(rng, n):
    """Assembled 4D-limit velocities, the ninth component moved up to 10% off the constraint."""
    nine = assemble_velocity(*timelike_parts(rng, n))
    nine[:, 8] *= 1.0 + rng.uniform(-0.1, 0.1, size=n)
    return (nine,)


def points_and_arc_lengths(rng, n):
    """Initial points over 200 decades and signed arc lengths over 100."""
    s = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-50, 50, size=n)
    return finite_rows(rng, n) + (s,)


def world_lines(rng, n):
    """Gently bent unit-speed lines sampled on ``TAU``, each scaled over 60 decades."""
    x0, w = rng.uniform(-1.0, 1.0, size=(2, n, 1, 9))
    v = unit_speed_velocity(rng, size=(n, 1))
    curves = x0 + TAU[:, None] * v + 0.01 * np.sin(np.pi * TAU)[:, None] * w
    return (curves * scales(rng, n, -30, 30)[..., None],)


def bumps(rng, n):
    """Bumps on ``TAU`` that vanish at both ends, each along its own direction and size."""
    shape = 4.0 * TAU * (1.0 - TAU) * np.sin(np.pi * rng.integers(1, 4, size=(n, 1)) * TAU)
    direction = rng.uniform(-1.0, 1.0, size=(n, 1, 9)) * scales(rng, n, -1, 0)[..., None]
    return (shape[..., None] * direction,)


def four_d_curves(rng, n):
    """4D-limit curves on ``TAU``, with one mass and one light speed each, over two decades."""
    x4, spinor = timelike_parts(rng, n)
    x4 = x4[:, None, :] * (1.0 + 0.2 * TAU[:, None])
    spinor = spinor[:, None, :] * (1.0 - 0.1 * TAU[:, None])
    mass, speed = 10.0 ** rng.uniform(-1.0, 1.0, size=(2, n))
    return x4, spinor, mass, speed


def four_d_curves_and_kappas(rng, n):
    return four_d_curves(rng, n) + (kappas(rng, n),)


class Case(NamedTuple):
    """One way to call an export on stacks: ``function(*inputs(rng, n))`` for ``n`` rows."""

    function: Callable
    inputs: Callable  #: ``(rng, n)`` -> the arguments, each stacked ``n`` rows deep
    blocks: tuple  #: the stack sizes whose edges it crosses: block sizes, ELEMENTWISE or CURVES
    variant: str = ""  #: a second case of one export is named ``name/variant``


class Refusal(NamedTuple):
    """The row's callable on ``inputs`` raises exactly ``error``, with exactly ``message``."""

    inputs: tuple  #: the positional arguments; ``self`` first for a method
    error: type
    message: str


def refuse(error, message, *inputs):
    """One refusal of ``error(message)`` per input; an input that is not a tuple is one argument."""
    return [Refusal(args if isinstance(args, tuple) else (args,), error, message)
            for args in inputs]


def with_entry(a, index, value):
    """A copy of ``a`` with ``value`` at ``index``."""
    a = np.array(a, dtype=np.result_type(np.asarray(a), np.asarray(value)))
    a[index] = value
    return a


def alone_and_among(bad, good, n=3, row=1):
    """``bad`` alone, then as row ``row`` of ``n`` copies of ``good``: a stack gives its message."""
    return bad, with_entry(np.stack([good] * n), row, bad)


def kappa_outside(kappa):
    return f"kappa must be nonzero, with 2^-300 <= |kappa| <= 2^300, got {kappa!r}"


def not_one_kappa(x):
    """A ``kappa`` that is not one number, after the one item ``x``."""
    return [Refusal((x, kappa), ValueError, f"kappa must be one number, got {what}") for kappa, what
            in ((None, "None"), (np.array([-1.0]), "shape (1,)"), ([-1.0, -2.0], "shape (2,)"))]


def gap(reads):
    return f"|det - 1| = {reads} exceeds 1.0e-09"


def tent(t):
    """A tent in slot 8: at amplitude 1 it cancels the line's ninth velocity on half the grid."""
    return with_entry(np.zeros(9), 8, min(t, 1.0 - t))


DIAG = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
P0 = np.array([-2 / 3, 0, 0, 0, 0, 0, 0, 0, -1 / 3])  # DIAG's momenta at kappa = -1
E0 = with_entry(np.zeros(9), 0, 1.0)  # on the isotropic cone
REST = np.array([1.0, 0.0, 0.0, 0.0])
TIMELIKE = np.array([2.0, 1.0, 0.0, 0.0])
SPINOR = np.full(4, 0.5)
RNG = np.random.default_rng(0)  # the property calls on a copy: nothing draws from this one
FAR = random_unimodular(np.random.default_rng(2))  # maps np.full(9, 1e307) past the float range
SIX = random_unimodular(np.random.default_rng(0), size=6)
BUMPS = bumps(np.random.default_rng(0), 5)[0]

ISOTROPIC = refuse(
    IsotropicVelocity, "|cubic form| below 1e-09 of |v|^3 (1 velocity sample(s))",
    *(x for bad in [np.zeros(9), E0, with_entry(DIAG, 4, np.nan),
                    *(with_entry(DIAG, slot, v) for slot in (0, 4, 8) for v in (np.inf, -np.inf))]
      for x in alone_and_among(bad, DIAG)))

#: On the constraint (power-of-two scalings keep it exact), but singular relative to its norm.
ILL_CONDITIONED = np.array([2.0**-52 / 3, 0, 0, -(2.0**-52) / 3, 2.0**27 / 3, 0, 0, 0, 0])

SINGULAR = [np.zeros((9, 9)), np.diag([1.0] * 8 + [0.0]), np.diag([np.nan] * 9),
            with_entry(np.eye(9), (4, 4), np.inf),
            with_entry(np.eye(9), (0, 0), 1e-310)]  # nonsingular, but p[0] / 1e-310 overflows

ARC_LENGTHS = [(np.zeros(9), np.nan), (np.zeros(9), np.inf),  # inf times a zero velocity is NaN
               (np.full(9, np.nan), 0.0), (np.full(9, 1e308), 1e308)]

#: name -> (its least samples, its arguments for a grid ``tau`` and curves of samples of ``shape``).
GRIDS = {
    "arc_length": (3, lambda tau, shape: (tau, np.zeros(shape + (9,)) + DIAG)),
    "discrete_action": (2, lambda tau, shape: (tau, np.zeros((2,) + shape + (9,)) + DIAG)),
    "reduced_action_check": (2, lambda tau, shape: (
        tau, np.zeros(shape + (4,)) + REST, np.zeros(shape + (4,)), 1.0, 1.0)),
    "reparametrize": (2, lambda tau, shape: (TRAJECTORY, np.zeros(shape), tau)),
}


def grid(name):
    """The grid rule: a non-finite, short, scalar or 2-d grid, or one of another length."""
    least, call = GRIDS[name]
    refusals = [Refusal(call(with_entry(np.linspace(0.0, 1.0, least + 2), 1, bad), (least + 2,)),
                        DegeneratePath, f"need a finite grid, got {bad}")
                for bad in (np.nan, np.inf, -np.inf)]
    refusals += [Refusal(call(tau, np.shape(tau)), DegeneratePath,
                         f"need a 1-d grid of at least {least} samples, got shape {np.shape(tau)}")
                 for tau in (np.linspace(0.0, 1.0, least - 1), np.zeros(0), 0.5,
                             np.zeros((least, 2)))]
    if name != "reparametrize":  # whose curve is the trajectory's
        refusals += [Refusal(args, ValueError, "a grid of shape (5,) does not align with the "
                             f"samples of a curve of shape {args[1].shape}")
                     for args in (call(np.linspace(0.0, 1.0, 5), (n,)) for n in (4, 6))]
    return refusals


def margins(*args):
    return [Refusal((*args, margin), ValueError,
                    f"margin must be finite with 0 <= margin < (2/3)^1.5, got {margin!r}")
            for margin in (np.nan, np.inf, -1e-3, (2 / 3) ** 1.5, 0.6, "a", None)]


def sizes(*args):
    return [Refusal((*args, size), ValueError,
                    f"size must be None, a non-negative integer or a tuple of them, got {size!r}")
            for size in (2.5, -1, (2, -1), (2, 1.5), True, (2, True))]


def one_non_finite_entry(n):
    """An identity with one inf or NaN entry, alone and in a stack: the gap it reads."""
    return [Refusal((d,), NotUnimodular, gap(reads))
            for entry, reads in ((np.inf, "inf"), (-np.inf, "inf"), (complex(0, np.inf), "inf"),
                                 (np.nan, "nan"), (complex(1, np.nan), "nan"))
            for d in alone_and_among(with_entry(np.eye(n, dtype=complex), (0, 1), entry),
                                     np.eye(n))]


def not_hermitian(residue):
    return f"conjugate-symmetry residue {residue} exceeds 1.0e-12"


NON_FINITE_PARTS = [(TIMELIKE, with_entry(SPINOR, 1, np.nan)),
                    (TIMELIKE, with_entry(SPINOR, 2, -np.inf)),
                    (with_entry(TIMELIKE, 0, np.inf), SPINOR)]

PARTS = [
    *refuse(NonTimelike, "the 4-velocity part must satisfy g(v, v) > 0",
            ([1.0, 1.0, 0.0, 0.0], np.zeros(4))),
    *refuse(NonTimelike, "velocity parts must be finite", *NON_FINITE_PARTS,
            *((x4, np.zeros(4)) for x4 in alone_and_among(np.full(4, np.nan), REST, 5))),
    *refuse(ValueError, "velocity parts of shapes (3, 4) and (2, 4) do not broadcast",
            (np.tile(TIMELIKE, (3, 1)), np.tile(SPINOR, (2, 1)))),
]


def rest(n):
    """A rest curve of ``n`` samples on ``[0, 1]``: tau, the 4-velocities and zero spinors."""
    return np.linspace(0.0, 1.0, n), np.tile(REST, (n, 1)), np.zeros((n, 4))


#: name -> (its parameter names, pinned; its stacking cases, or why it takes no stack;
#: its refusals). A name is the export's, or ``Class.method`` for a method.
EXPORTS = {
    "CubicMetric": (("coefficients",), "one tensor; its contract is a row", [
        Refusal(({triple: 1.0},), ValueError, f"triple {triple!r} is not non-decreasing in 0..8")
        for triple in [(8, 0, 0), (-1, 0, 0), (0, 0, 9), (0, 0, 1.5), "abc", (0, 0),
                       (True, 1, 2)]]),
    "CubicMetric.coefficient": (("self", "a", "b", "c"), "one entry", [
        Refusal((metric_coefficients(), *triple), ValueError, f"triple {triple!r} is not in 0..8")
        for triple in [(-1, 0, 0), (9, 0, 0), (0, 8, 1.5), (0, True, 0)]]),
    "CubicMetric.contract": (("self", "x"), [
        Case(metric_coefficients().contract, finite_rows, (ELEMENTWISE,))], []),
    "Trajectory": (("x0", "v0", "s_range"), "one world line; its at is the general_solution row", [
        *refuse(NotUnitSpeed, gap("7.000e+00"), (np.zeros(9), 2 * DIAG)),
        *(Refusal((np.zeros(9), v0), ValueError, f"expected one 9-vector, got shape {v0.shape}")
          for v0 in (np.append(DIAG, 0.0), DIAG[:8], np.stack([DIAG, DIAG]))),
        *(Refusal((np.zeros(9), DIAG, s_range), ValueError, "the arc-length range must start at 0 "
                  f"and end at a finite value, got {s_range!r}")
          for s_range in [(0.5, 1.0), 5.0, (0.0, 1.0, 2.0), (0.0, None),
                          (0.0, np.nan), (0.0, np.inf), (0.0, -np.inf)])]),
    "Trajectory.at": (("self", "s"), "the general_solution row", refuse(
        NonRealEntry, "the world line is beyond the float range",
        *((Trajectory(np.stack([np.zeros(9), x0]), DIAG), s) for x0, s in ARC_LENGTHS))),
    "Trajectory.sample": (("self", "n"), "takes a count", [
        *(Refusal((TRAJECTORY, n), ValueError, f"n must be a non-negative integer, got {n!r}")
          for n in (-1, 2.5, np.float64(3.0), "3", None, True)),
        *refuse(ValueError, "arc lengths of shape (5,) and initial points of shape (2, 9) do not "
                "broadcast", (Trajectory(np.zeros((2, 9)), DIAG), 5))]),
    "action_stationarity_check": (("traj", "eta", "amplitudes", "kappa", "samples"), [
        Case(functools.partial(action_stationarity_check, TRAJECTORY, amplitudes=AMPLITUDES),
             bumps, (CURVES,))], [
        *refuse(IsotropicVelocity, "|cubic form| below 1e-09 of |v|^3 (100 velocity sample(s))",
                (TRAJECTORY, tent, [1.0, 0.5])),
        *(Refusal((TRAJECTORY, BUMPS[0], [1e-2, 1e-3], -1.0, samples), ValueError,
                  f"samples must be an integer of at least 200, got {samples!r}")
          for samples in (50, 199, 200.5, 201.0)),
        *refuse(ValueError, "need at least two positive amplitudes to fit a slope",
                *((TRAJECTORY, BUMPS[0], a)
                  for a in ([1e-2], [1e-2, 0.0], [1e-2, -1e-3], [1e-2, np.nan]))),
        *refuse(ValueError, "amplitudes must be finite, got [0.01, inf]",
                (TRAJECTORY, BUMPS[0], [1e-2, np.inf])),
        *refuse(ValueError, "eta samples must have shape (..., samples, 9)",
                (TRAJECTORY, np.zeros((5, 200, 9)), [1e-2, 1e-3])),
        *refuse(ValueError, "eta must vanish at both endpoints",
                (TRAJECTORY, lambda t: np.ones(9), [1e-2, 1e-3]),
                *((TRAJECTORY, with_entry(BUMPS, (bump, end, 3), 1e-6), [1e-2, 1e-3])
                  for bump in (0, 2, 4) for end in (0, -1))),
        *refuse(ValueError, "perturbation produced no action change; cannot fit",
                (TRAJECTORY, np.zeros((201, 9)), [1e-2, 1e-3]))]),
    "arc_length": (("tau", "positions"), "one curve: its samples are its first axis, not a stack", [
        *refuse(IsotropicVelocity, "|cubic form| below 1e-09 of |v|^3 (11 velocity sample(s))",
                (np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11)[:, None] * E0)),
        *refuse(DegeneratePath, "need a 1-d grid of at least 3 samples, got shape ()",
                (0.5, DIAG)),
        *grid("arc_length")]),
    "assemble_velocity": (("xdot03", "xdot47"), [
        Case(assemble_velocity, timelike_parts, (ELEMENTWISE,))], PARTS),
    "block_split_check": (("d2",), [Case(block_split_check, unimodular_2x2, (ACTION, GATE))],
                          refuse(NotUnimodular, gap("1.250e+00"),
                                 *alone_and_among(1.5 * np.eye(2), np.eye(2), 6, 2))),
    "canonical_energy": (("xdot", "kappa"), [Case(canonical_energy, velocities, (GRADIENT,))],
                         ISOTROPIC + not_one_kappa(DIAG)),
    "canonical_momenta": (("xdot", "kappa"), [Case(canonical_momenta, velocities, (GRADIENT,))], [
        *ISOTROPIC, *not_one_kappa(DIAG),
        *refuse(IsotropicVelocity, "|cubic form| below 1e-09 of |v|^3 (2 velocity sample(s))",
                np.stack([with_entry(DIAG, 8, np.inf), DIAG, np.zeros(9), DIAG]))]),
    "conjugation_action": (("d", "x"), [
        Case(conjugation_action, unimodular_and_vectors, (ACTION,))], [
        *refuse(NotUnimodular, gap("7.000e+00"), (2.0 * np.eye(3), E0)),
        *refuse(NotHermitian, "the conjugated vector has a non-finite entry",
                (FAR, np.full(9, 1e307)),
                *(call for bad in (with_entry(np.ones((6, 9)), (4, 7), v)
                                   for v in (np.nan, np.inf, -np.inf))
                  for call in ((FAR, bad), (FAR, bad[4]), (SIX, bad), (SIX[0], bad[4]))))]),
    "constraint_residual": (("xdot",), [
        Case(constraint_residual, timelike_velocities, (ELEMENTWISE,))], [
        *refuse(NonTimelike, "the 4-velocity part must satisfy g(v, v) > 0",
                np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])),
        *refuse(NonTimelike, "velocity parts must be finite", np.full(9, np.nan),
                *alone_and_among(with_entry(DIAG, 2, np.nan), DIAG, 5, 3),
                *(np.concatenate([x4, s4, [1.0]]) for x4, s4 in NON_FINITE_PARTS))]),
    "cubic_form": (("x",), [Case(cubic_form, finite_rows, (ELEMENTWISE,))], []),
    "discrete_action": (("tau", "positions", "kappa"), [
        Case(functools.partial(discrete_action, TAU), world_lines, (CURVES,))], [
        *refuse(DegeneratePath, "need a 1-d grid of at least 2 samples, got shape (1,)",
                (np.zeros(1), np.ones((3, 1, 9)))),
        *grid("discrete_action")]),
    "embed_sl2": (("d2",), [Case(embed_sl2, unimodular_2x2, (GATE,))], [
        *refuse(NotUnimodular, gap("3.000e+00"), *alone_and_among(2.0 * np.eye(2), np.eye(2))),
        *refuse(NotUnimodular, gap("1.250e+00"),
                *alone_and_among(1.5 * np.eye(2), np.eye(2), 6, 2)),
        *refuse(NotUnimodular, gap("2.000e-08"),
                *alone_and_among((1.0 + 1e-8) * np.eye(2), np.eye(2), 50, 7)),
        *refuse(NotUnimodular, gap("inf"), np.full((2, 2), 1e200)),  # inf - inf: a NaN det
        *one_non_finite_entry(2)]),
    "general_solution": (("x0", "v0", "s"), [
        Case(lambda x0, s: general_solution(x0, TRAJECTORY.v0, s), points_and_arc_lengths,
             (ELEMENTWISE,))], [
        *refuse(NotUnitSpeed, gap("7.000e+00"), (np.zeros(9), 2 * DIAG, 1.0)),
        *refuse(ValueError, "arc lengths of shape (4,) and initial points of shape (3, 9) do not "
                "broadcast", (np.zeros((3, 9)), DIAG, np.zeros(4))),
        *refuse(NonRealEntry, "the world line is beyond the float range",
                *((x0, DIAG, s) for x0, s in ARC_LENGTHS))]),
    "group_action": (("d",), [Case(group_action, unimodular, (ACTION,))], [
        *refuse(NotUnimodular, gap("7.000e+00"), *alone_and_among(2.0 * np.eye(3), np.eye(3))),
        *refuse(NonRealEntry, "the action has a non-finite entry",  # det 1; the terms overflow
                *alone_and_among(np.diag([1e160, 1e-160, 1.0]), np.eye(3))),
        *refuse(NotUnimodular, gap("inf"), 1e160 * np.eye(3),
                with_entry(np.stack([np.eye(3)] * 4), (2, 1, 1), np.inf),
                with_entry(np.eye(3), (slice(2), slice(2)), 1e200)),  # inf - inf: a NaN det
        *refuse(NotUnimodular, gap("nan"), np.stack([1e160 * np.eye(3), np.full((3, 3), np.nan)]),
                with_entry(np.stack([np.eye(3)] * 4), (2, 1, 1), complex(1, np.nan))),
        *one_non_finite_entry(3)]),
    "invert_momenta": (("p", "kappa"), [
        Case(invert_momenta, admitted_momenta, (GRADIENT, DETERMINANT))], [
        *refuse(InconsistentMomenta, "residual 2.962963e-01 exceeds 2.963e-09", np.zeros(9)),
        *refuse(InconsistentMomenta, "residual 6.666667e-07 exceeds 2.963e-09",
                *alone_and_among(with_entry(P0, 3, 1e-3), P0, 32, 11)),
        *refuse(InconsistentMomenta, "residual nan exceeds 2.963e-09",
                with_entry(np.stack([P0] * 3), (1, 4), np.nan),
                *(x for scale in (1e110, 1e300) for x in alone_and_among(scale * P0, P0, 5, 2)),
                *(x for slot, v in ((4, np.nan), (0, np.inf))
                  for x in alone_and_among(with_entry(P0, slot, v), P0, 5, 2))),
        *refuse(SingularMomentumMatrix, "|det| = 2.963e-01 below 1e-12 * |P|^3", ILL_CONDITIONED),
        *refuse(ValueError, kappa_outside(1e-120), (1e-120 * P0, 1e-120)),  # c^3 underflows
        *not_one_kappa(P0)]),
    "lagrangian": (("xdot", "kappa"), [
        Case(lagrangian, velocities, (GRADIENT,)),
        Case(lagrangian, velocities_and_kappas, (GRADIENT,), "per_row_kappa")], [
        *ISOTROPIC, *refuse(ValueError, kappa_outside(0.0), (DIAG, 0.0))]),
    "lorentz_residual": (("block",), [Case(lorentz_residual, four_by_four, (ELEMENTWISE,))], []),
    "matrix_identity_residual": (("xdot", "kappa"), [
        Case(matrix_identity_residual, velocities, (GRADIENT, BASIS))], not_one_kappa(DIAG)),
    "matrix_to_vec": (("m",), [Case(matrix_to_vec, hermitian, (BASIS,))], [
        *refuse(NotHermitian, not_hermitian("1.000e-06"),
                with_entry(np.eye(3, dtype=complex), (0, 1), 1e-6)),
        *refuse(NotHermitian, not_hermitian("3.606e-09"),  # the worst of all nine entries
                with_entry(with_entry(np.zeros((50, 3, 3), dtype=complex), (17, 2, 1),
                                      3e-9 - 2e-9j), (30, 0, 0), 1e-10j)),
        *(Refusal((m,), NotHermitian, not_hermitian(reads))
          for value in (np.nan, np.inf, -np.inf)
          for m, reads in ((with_entry(vec_to_matrix(np.ones((6, 9))), (2, 0, 0), value), "nan"),
                           (with_entry(vec_to_matrix(np.ones(9)), (1, 2), value),
                            "nan" if np.isnan(value) else "inf")))]),
    "metric_coefficients": ((), "takes nothing", []),
    "minkowski_norm_sq": (("x4",), [Case(minkowski_norm_sq, four_vectors, (ELEMENTWISE,))], []),
    "momenta_matrix": (("p",), [Case(momenta_matrix, wide_rows, (BASIS,))], []),
    "momentum_constraint_residual": (("p", "kappa"), [
        Case(momentum_constraint_residual, wide_rows, (DETERMINANT,))], [
        *refuse(ValueError, kappa_outside(1e300), (np.ones(9), 1e300)),  # c^3 overflows
        *not_one_kappa(P0)]),
    "random_nonisotropic_velocity": (("rng", "margin", "scale", "size"),
                                     "a sampler: its size is the stack it draws", [
        *margins(RNG),
        *(Refusal((RNG, 1e-3, scale), ValueError,
                  f"scale must be finite and positive, got {scale!r}")
          for scale in (0.0, -1.0, np.nan, np.inf, "a")),
        *sizes(RNG, 1e-3, 1.0)]),
    "random_unimodular": (("rng", "n", "size"), "a sampler", [
        *(Refusal((RNG, n), ValueError, f"n must be a positive integer, got {n!r}")
          for n in (0, -1, 2.0, 1.5, "3", None, True)),
        *sizes(RNG, 3)]),
    "reduced_action_check": (("tau", "xdot4", "spinor", "mass", "light_speed", "kappa"), [
        Case(functools.partial(reduced_action_check, TAU), four_d_curves, (CURVES,)),
        Case(functools.partial(reduced_action_check, TAU), four_d_curves_and_kappas, (CURVES,),
             "per_curve_kappa")], [
        *refuse(ValueError, "mass and light speed must be positive", (*rest(201), -1.0, 1.0)),
        *refuse(ValueError, kappa_outside(-(2.0**-301)), (*rest(5), 2.0**-301, 1.0)),
        *refuse(ValueError, kappa_outside(-np.inf), (*rest(3), 1e308, 1e308)),  # -m c overflows
        *refuse(NonRealEntry, "the 4D-limit record is beyond the float range",
                (rest(3)[0], 1e103 * rest(3)[1], rest(3)[2], 1.0, 1.0),  # q ** 1.5 overflows
                (*rest(3), 1e308, 1e308, -1.0)),  # m c overflows
        *refuse(NonTimelike, "the 4-velocity part must satisfy g(v, v) > 0",
                (TAU, with_entry(rest(201)[1], 100, [0.5, 0.9, 0.0, 0.0]), np.zeros((201, 4)),
                 1.0, 1.0)),
        *refuse(IsotropicVelocity, "|cubic form| below 1e-09 of |v|^3 (1 velocity sample(s))",
                *((*rest(5)[:2], with_entry(rest(5)[2], (2, 1), size), 1.0, 1.0)
                  for size in (31.7, 1e8))),  # at rest |f| / |x|^3 is about size^-6
        *refuse(NonTimelike, "velocity parts must be finite",
                *((np.linspace(0.0, 1.0, 3), with_entry(np.tile(TIMELIKE, (3, 1)), 1, x4),
                   with_entry(np.tile(SPINOR, (3, 1)), 1, s4), 1.0, 1.0)
                  for x4, s4 in NON_FINITE_PARTS)),
        *refuse(ValueError, "velocity parts of shapes (3, 4) and (2, 4) do not broadcast",
                (np.linspace(0.0, 1.0, 4), np.tile(TIMELIKE, (3, 1)), np.tile(SPINOR, (2, 1)),
                 1.0, 1.0)),
        *grid("reduced_action_check")]),
    "reparametrize": (("traj", "s_of_tau", "tau"), "samples one trajectory on one grid", [
        *refuse(NonMonotone, "ds/dtau vanishes or changes sign on the grid",
                (TRAJECTORY, lambda t: np.minimum(t, 0.5), np.linspace(0.0, 1.0, 11)),
                (TRAJECTORY, lambda t: np.sin(3.0 * t), np.linspace(0.0, 1.0, 51))),
        *refuse(ValueError, "reparametrization must start at s = 0, got np.float64(1.0)",
                (TRAJECTORY, lambda t: t + 1.0, np.linspace(0.0, 1.0, 11))),
        *refuse(ValueError, "reparametrization must start at s = 0, got np.float64(nan)",
                (TRAJECTORY, [np.nan, 1.0, 2.0, 3.0, 4.0], np.linspace(0.0, 1.0, 5))),
        *refuse(ValueError, "s samples must align with tau samples",
                (TRAJECTORY, np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 11))),
        *grid("reparametrize")]),
    "run_checks": (("seed", "trials", "tolerances"),
                   "takes a seed and a trial count; the checks it runs call the rows", [
        Refusal(args, ValueError, message) for args, message in [
            ((0, 0), "trials must be a positive integer, got 0"),
            ((0, 2.0), "trials must be a positive integer, got 2.0"),
            ((0, True), "trials must be a positive integer, got True"),
            ((-1, 1), "seed must be a non-negative integer, got -1"),
            ((0.5, 1), "seed must be a non-negative integer, got 0.5"),
            ((True, 1), "seed must be a non-negative integer, got True"),
            ((0, 1, [("duality", 1.0)]),
             "tolerances must be a mapping of check names to values, got a list"),
            ((0, 1, {"nope": 1.0}), "unknown check 'nope' in tolerances"),
            ((0, 1, {"duality": np.nan}), "the tolerance of duality is NaN"),
            ((0, 1, {"duality": np.inf}), "the tolerance of duality is inf"),
            ((0, 1, {"constant_count": -np.inf}), "the tolerance of constant_count is -inf"),
            *(((0, 1, {"duality": value}),
               f"the tolerance of duality must be a finite number, got {value!r}")
              for value in (None, "x", 10**400))]]),
    "solve_x8dot": (("xdot03", "xdot47"), [Case(solve_x8dot, timelike_parts, (ELEMENTWISE,))],
                    PARTS),
    "transform_momenta": (("transform", "p"), [
        Case(transform_momenta, transforms_and_momenta, (ELEMENTWISE,)),
        Case(functools.partial(transform_momenta, ONE_TRANSFORM), admitted_momenta,
             (ELEMENTWISE,), "one_transform")], refuse(
        SingularMomentumMatrix, "the momentum transform is singular or not finite",
        *(call for bad in SINGULAR for call in (
            (bad, P0), (np.stack([np.eye(9), bad, np.eye(9)]), np.stack([P0] * 3)),
            (bad, np.stack([P0] * 3)))))),
    "unit_speed_velocity": (("rng", "margin", "size"), "a sampler", [
        *margins(RNG), *sizes(RNG, 1e-3)]),
    "vec_to_matrix": (("x",), [Case(vec_to_matrix, wide_rows, (BASIS,))], []),
}

#: Every stacking case by its test id, ``name`` or ``name/variant``.
CASES = {name + (case.variant and "/" + case.variant): case
         for name, (_, stacked, _) in EXPORTS.items() if not isinstance(stacked, str)
         for case in stacked}

#: Every refusal by its test id, ``name/index``.
REFUSALS = {f"{name}/{i}": (name, refusal)
            for name, (_, _, refusals) in EXPORTS.items() for i, refusal in enumerate(refusals)}

#: Couplings outside ``2^-300 <= |kappa| <= 2^300``, each refused at both signs.
KAPPA_OUTSIDE = [np.nextafter(_KAPPA_RANGE[0], 0.0), np.nextafter(_KAPPA_RANGE[1], np.inf),
                 1e-120, 1e300, 0.0, np.inf, np.nan]


def parts(result):
    """A result as a tuple of its arrays: ``block_split_check`` and ``reduced_action_check`` give several."""
    return result if isinstance(result, tuple) else (result,)


def test_block_sizes():
    assert (GRADIENT, ACTION, DETERMINANT, GATE, BASIS) == (512, 56, 2304, 768, 4096)


def export(name):
    """The callable a row names: an export, or ``Class.method``."""
    owner, *attributes = name.split(".")
    return functools.reduce(getattr, attributes, exported_callables()[owner])


def test_every_export_is_a_row_with_its_pinned_parameters():
    assert {name.split(".")[0] for name in EXPORTS} == set(exported_callables())
    assert {name: params for name, (params, _, _) in EXPORTS.items()} == {
        name: tuple(inspect.signature(export(name)).parameters) for name in EXPORTS}
    assert all(stacked for _, stacked, _ in EXPORTS.values())  # cases, or a reason


@pytest.mark.parametrize("entry", list(REFUSALS))
def test_a_refusal_raises_its_token_and_exact_message(entry):
    """On a copy of the inputs: a generator among them must not have drawn.

    Under ``filterwarnings = error`` a warning before the token fails too.
    """
    name, (inputs, error, message) = REFUSALS[entry]
    args = copy.deepcopy(inputs)
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        export(name)(*args)
    assert type(refused.value) is error
    for used, fresh in zip(args, copy.deepcopy(inputs)):
        if isinstance(used, np.random.Generator):
            assert used.random() == fresh.random()


#: Tokens that no public input raises, with the reason.
UNREACHABLE = {
    BlockLeakage: "block_split_check splits the action of an embedded 2x2 matrix, whose "
                  "cross-block terms each have an exact zero factor, and the unimodularity gate "
                  "and group_action refuse every non-finite entry before the split",
}


def test_every_token_is_the_error_of_a_refusal():
    tokens = {token for token in vars(finsler9).values()
              if isinstance(token, type) and issubclass(token, FinslerError)} - {FinslerError}
    errors = {refusal.error for _, _, refusals in EXPORTS.values() for refusal in refusals}
    assert len(tokens) == 11
    assert errors == tokens - set(UNREACHABLE) | {ValueError}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(derandomize=True, deadline=None, max_examples=2)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_stack_gives_the_bits_of_its_rows(name, seed):
    function, inputs, blocks, _ = CASES[name]
    n = max(blocks) + 1
    args = inputs(np.random.default_rng(seed), n)
    rows = [parts(function(*row)) for row in zip(*args)]
    assert all(isinstance(item, float) for row in rows for item in row if np.ndim(item) == 0)
    per_row = [np.array(column) for column in zip(*rows)]

    def agree(shape):
        got = parts(function(*(a[:np.prod(shape)].reshape(shape + a.shape[1:]) for a in args)))
        return len(got) == len(per_row) and all(
            same_bits(g, r[:np.prod(shape)].reshape(shape + r.shape[1:]))
            for g, r in zip(got, per_row))

    for m in sorted({block + k for block in blocks for k in (-1, 0, 1)}):
        assert agree((m,)), m
    assert agree((2, n // 2))


def misshapen(a, axes):
    """The stack ``a`` with each of its last ``axes`` axes one shorter, then one longer."""
    for axis in range(-axes, 0):
        yield np.delete(a, 0, axis=axis)
        yield np.concatenate([a, np.take(a, [0], axis=axis)], axis=axis)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_misshapen_item_is_refused_by_the_shape_rule(name):
    """Every argument whose rows are items: a curve's samples change their last axis only."""
    function, inputs, blocks, _ = CASES[name]
    args = inputs(np.random.default_rng(0), 3)
    for i, a in enumerate(args):
        if a.ndim < 2:
            continue  # one number a row
        item = a.shape[-1:] if CURVES in blocks else a.shape[1:]
        spoilt = [*misshapen(a, len(item))]
        if CURVES not in blocks:
            spoilt.append(a[(...,) + (0,) * len(item)])  # a lone scalar
        for bad in spoilt:
            for rows in (slice(None), 0):  # a stack, then one item
                call = [b[rows] for b in args]
                call[i] = bad[rows]
                message = (f"expected shape (..., {', '.join(map(str, item))}), "
                           f"got shape {call[i].shape}")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    function(*call)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("kappa", KAPPA_OUTSIDE)
@pytest.mark.parametrize("name", sorted(
    name for name, (params, _, _) in EXPORTS.items() if "kappa" in params))
def test_a_kappa_outside_the_range_is_refused(name, kappa, sign):
    """On one item, through the export's first case, which passes ``kappa`` on."""
    case = CASES[name]
    one = [a[0] for a in case.inputs(np.random.default_rng(0), 3)]
    with pytest.raises(ValueError, match="^" + re.escape(
            "kappa must be nonzero, with 2^-300 <= |kappa| <= 2^300, got ")):
        case.function(*one, kappa=sign * kappa)


def verdict(d):
    """The gate's message for ``d``, or None if it passes."""
    try:
        _require_unimodular(d)
    except NotUnimodular as exc:
        return str(exc)
    return None


def gap(message):
    """The gap a message reads, ``-inf`` for a pass."""
    return -np.inf if message is None else float(message.split("= ")[1].split()[0])


@pytest.mark.parametrize("entry", [None, np.inf, complex(0, -np.inf), np.nan])
@pytest.mark.parametrize("n", [GATE - 1, GATE, GATE + 1])
@settings(derandomize=True, deadline=None, max_examples=3)
@given(seed=st.integers(0, 2**32 - 1), bad=st.integers(0, 4))
def test_a_stacks_unimodularity_verdict_is_its_worst_rows(n, entry, seed, bad):
    """Up to 4 rows, the last among them, 3e-13 to 3e-8 off ``det = 1``; maybe an inf or NaN."""
    rng = np.random.default_rng(seed)
    d = random_unimodular(rng, size=n)
    rows = rng.choice(n - 1, size=bad, replace=False)
    rows[:1] = n - 1
    d[rows] *= 1.0 + 10.0 ** rng.uniform(-13, -8, size=(bad, 1, 1))
    if entry is not None:
        d[rng.integers(n), rng.integers(3), rng.integers(3)] = entry
    per_row = [verdict(m) for m in d]
    assert verdict(d) == per_row[int(np.argmax([gap(m) for m in per_row]))]


# A failing property next to a passing test, run under this project's pytest settings.
_PAIR = """from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0

def test_a_passing_test():
    pass
"""


def test_a_failing_property_reports_and_the_other_tests_still_run(tmp_path):
    """Hypothesis's failure report must not abort the run under ``filterwarnings = error``."""
    (tmp_path / "test_pair.py").write_text(_PAIR)
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), "--rootdir", str(tmp_path), "test_pair.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
