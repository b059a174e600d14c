"""The export contract: one table of every export, and the properties that read it.

``EXPORTS`` has a row for every callable that ``finsler9`` exports (and
``Class.method`` rows for methods): its pinned parameter names, and either
its stacking cases or why it takes no stack.  Three properties walk it:

- a stack gives the bits of its rows: each case is called on a stack that
  crosses its blocks' edges, on the same rows as a 2-d stack, and on each
  row alone; the results must agree in every bit, the sign of zero and the
  place of each NaN included, and a result for one item must be a float
  (a Python float or a numpy scalar), never a 0-d array;
- the shape rule: an item argument with an axis one too long or one too
  short, or reduced to a lone scalar, raises ValueError ``expected shape
  (..., <item>), got shape <shape>``, for one item and for a stack;
- the kappa rule: every export that takes ``kappa`` refuses one outside
  ``2^-300 <= |kappa| <= 2^300`` with ValueError.

A new export joins the contract by joining ``EXPORTS``;
``test_every_export_is_a_row_with_its_pinned_parameters`` fails for an
export without a row, and for a row whose parameters are not the export's.
"""

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

from finsler9 import (
    NotUnimodular,
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


#: name -> (its parameter names, pinned; its stacking cases, or why it takes no stack).
#: A name is the export's, or ``Class.method`` for a method.
EXPORTS = {
    "CubicMetric": (("coefficients",), "one tensor; its contract is a row"),
    "CubicMetric.contract": (("self", "x"), [
        Case(metric_coefficients().contract, finite_rows, (ELEMENTWISE,))]),
    "Trajectory": (("x0", "v0", "s_range"), "one world line; its at is the general_solution row"),
    "action_stationarity_check": (("traj", "eta", "amplitudes", "kappa", "samples"), [
        Case(functools.partial(action_stationarity_check, TRAJECTORY, amplitudes=AMPLITUDES),
             bumps, (CURVES,))]),
    "arc_length": (("tau", "positions"), "one curve: its samples are its first axis, not a stack"),
    "assemble_velocity": (("xdot03", "xdot47"), [
        Case(assemble_velocity, timelike_parts, (ELEMENTWISE,))]),
    "block_split_check": (("d2",), [Case(block_split_check, unimodular_2x2, (ACTION, GATE))]),
    "canonical_energy": (("xdot", "kappa"), [Case(canonical_energy, velocities, (GRADIENT,))]),
    "canonical_momenta": (("xdot", "kappa"), [Case(canonical_momenta, velocities, (GRADIENT,))]),
    "conjugation_action": (("d", "x"), [
        Case(conjugation_action, unimodular_and_vectors, (ACTION,))]),
    "constraint_residual": (("xdot",), [
        Case(constraint_residual, timelike_velocities, (ELEMENTWISE,))]),
    "cubic_form": (("x",), [Case(cubic_form, finite_rows, (ELEMENTWISE,))]),
    "discrete_action": (("tau", "positions", "kappa"), [
        Case(functools.partial(discrete_action, TAU), world_lines, (CURVES,))]),
    "embed_sl2": (("d2",), [Case(embed_sl2, unimodular_2x2, (GATE,))]),
    "general_solution": (("x0", "v0", "s"), [
        Case(lambda x0, s: general_solution(x0, TRAJECTORY.v0, s), points_and_arc_lengths,
             (ELEMENTWISE,))]),
    "group_action": (("d",), [Case(group_action, unimodular, (ACTION,))]),
    "invert_momenta": (("p", "kappa"), [
        Case(invert_momenta, admitted_momenta, (GRADIENT, DETERMINANT))]),
    "lagrangian": (("xdot", "kappa"), [
        Case(lagrangian, velocities, (GRADIENT,)),
        Case(lagrangian, velocities_and_kappas, (GRADIENT,), "per_row_kappa")]),
    "lorentz_residual": (("block",), [Case(lorentz_residual, four_by_four, (ELEMENTWISE,))]),
    "matrix_identity_residual": (("xdot", "kappa"), [
        Case(matrix_identity_residual, velocities, (GRADIENT, BASIS))]),
    "matrix_to_vec": (("m",), [Case(matrix_to_vec, hermitian, (BASIS,))]),
    "metric_coefficients": ((), "takes nothing"),
    "minkowski_norm_sq": (("x4",), [Case(minkowski_norm_sq, four_vectors, (ELEMENTWISE,))]),
    "momenta_matrix": (("p",), [Case(momenta_matrix, wide_rows, (BASIS,))]),
    "momentum_constraint_residual": (("p", "kappa"), [
        Case(momentum_constraint_residual, wide_rows, (DETERMINANT,))]),
    "random_nonisotropic_velocity": (("rng", "margin", "scale", "size"),
                                     "a sampler: its size is the stack it draws"),
    "random_unimodular": (("rng", "n", "size"), "a sampler"),
    "reduced_action_check": (("tau", "xdot4", "spinor", "mass", "light_speed", "kappa"), [
        Case(functools.partial(reduced_action_check, TAU), four_d_curves, (CURVES,)),
        Case(functools.partial(reduced_action_check, TAU), four_d_curves_and_kappas, (CURVES,),
             "per_curve_kappa")]),
    "reparametrize": (("traj", "s_of_tau", "tau"), "samples one trajectory on one grid"),
    "run_checks": (("seed", "trials", "tolerances"),
                   "takes a seed and a trial count; the checks it runs call the rows"),
    "solve_x8dot": (("xdot03", "xdot47"), [Case(solve_x8dot, timelike_parts, (ELEMENTWISE,))]),
    "transform_momenta": (("transform", "p"), [
        Case(transform_momenta, transforms_and_momenta, (ELEMENTWISE,)),
        Case(functools.partial(transform_momenta, ONE_TRANSFORM), admitted_momenta,
             (ELEMENTWISE,), "one_transform")]),
    "unit_speed_velocity": (("rng", "margin", "size"), "a sampler"),
    "vec_to_matrix": (("x",), [Case(vec_to_matrix, wide_rows, (BASIS,))]),
}

#: Every stacking case by its test id, ``name`` or ``name/variant``.
CASES = {name + (case.variant and "/" + case.variant): case
         for name, (_, stacked) in EXPORTS.items() if not isinstance(stacked, str)
         for case in stacked}

#: Couplings outside ``2^-300 <= |kappa| <= 2^300``, each refused at both signs.
KAPPA_OUTSIDE = [np.nextafter(_KAPPA_RANGE[0], 0.0), np.nextafter(_KAPPA_RANGE[1], np.inf),
                 1e-120, 1e300, 0.0, np.inf, np.nan]


def parts(result):
    """A result as a tuple of its arrays: ``block_split_check`` and ``reduced_action_check`` give several."""
    return result if isinstance(result, tuple) else (result,)


def test_block_sizes():
    assert (GRADIENT, ACTION, DETERMINANT, GATE, BASIS) == (512, 56, 2304, 768, 4096)


def test_every_export_is_a_row_with_its_pinned_parameters():
    exported = exported_callables()
    assert {name.split(".")[0] for name in EXPORTS} == set(exported)

    def parameters(name):
        owner, *attributes = name.split(".")
        return tuple(inspect.signature(
            functools.reduce(getattr, attributes, exported[owner])).parameters)

    assert {name: params for name, (params, _) in EXPORTS.items()} == {
        name: parameters(name) for name in EXPORTS}
    assert all(stacked for _, stacked in EXPORTS.values())  # cases, or a reason


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
    name for name, (params, _) in EXPORTS.items() if "kappa" in params))
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
