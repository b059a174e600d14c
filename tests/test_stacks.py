"""A stack gives the bits of its rows: one property over every stacked export.

Each row of ``CASES`` calls its function on a stack that crosses its
blocks' edges, on the same rows as a 2-d stack, and on each row alone; the
results must agree in every bit, the sign of zero and the place of each
NaN included, and a result for one item must be a Python float (or a numpy
scalar), never a 0-d array.  A new stacked export joins the contract by
joining ``CASES``; ``test_every_export_is_a_row_or_not_stacked`` fails for
an export that is in neither ``CASES`` nor ``NOT_STACKED``.
"""

import functools
import pathlib
import subprocess
import sys

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
from finsler9.dynamics import _DET_TERMS
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


#: name -> (function, its inputs for ``n`` rows, the stack sizes whose edges it crosses:
#: its block sizes, or ``ELEMENTWISE`` or ``CURVES``).  A name is the export's,
#: ``Class.method`` for a method, and may end in ``/variant``.
CASES = {
    "canonical_momenta": (canonical_momenta, velocities, (GRADIENT,)),
    "lagrangian": (lagrangian, velocities, (GRADIENT,)),
    "lagrangian/per_row_kappa": (lagrangian, velocities_and_kappas, (GRADIENT,)),
    "canonical_energy": (canonical_energy, velocities, (GRADIENT,)),
    "invert_momenta": (invert_momenta, admitted_momenta, (GRADIENT, DETERMINANT)),
    "momentum_constraint_residual": (momentum_constraint_residual, wide_rows, (DETERMINANT,)),
    "group_action": (group_action, unimodular, (ACTION,)),
    "embed_sl2": (embed_sl2, unimodular_2x2, (GATE,)),
    "block_split_check": (block_split_check, unimodular_2x2, (ACTION, GATE)),
    "conjugation_action": (conjugation_action, unimodular_and_vectors, (ACTION,)),
    "vec_to_matrix": (vec_to_matrix, wide_rows, (BASIS,)),
    "momenta_matrix": (momenta_matrix, wide_rows, (BASIS,)),
    "matrix_to_vec": (matrix_to_vec, hermitian, (BASIS,)),
    "matrix_identity_residual": (matrix_identity_residual, velocities, (GRADIENT, BASIS)),
    "cubic_form": (cubic_form, finite_rows, (ELEMENTWISE,)),
    "CubicMetric.contract": (metric_coefficients().contract, finite_rows, (ELEMENTWISE,)),
    "minkowski_norm_sq": (minkowski_norm_sq, four_vectors, (ELEMENTWISE,)),
    "assemble_velocity": (assemble_velocity, timelike_parts, (ELEMENTWISE,)),
    "solve_x8dot": (solve_x8dot, timelike_parts, (ELEMENTWISE,)),
    "constraint_residual": (constraint_residual, timelike_velocities, (ELEMENTWISE,)),
    "lorentz_residual": (lorentz_residual, four_by_four, (ELEMENTWISE,)),
    "transform_momenta": (transform_momenta, transforms_and_momenta, (ELEMENTWISE,)),
    "transform_momenta/one_transform": (functools.partial(transform_momenta, ONE_TRANSFORM),
                                        admitted_momenta, (ELEMENTWISE,)),
    "general_solution": (lambda x0, s: general_solution(x0, TRAJECTORY.v0, s),
                         points_and_arc_lengths, (ELEMENTWISE,)),
    "discrete_action": (functools.partial(discrete_action, TAU), world_lines, (CURVES,)),
    "action_stationarity_check": (lambda eta: action_stationarity_check(TRAJECTORY, eta, AMPLITUDES),
                                  bumps, (CURVES,)),
    "reduced_action_check": (functools.partial(reduced_action_check, TAU), four_d_curves,
                             (CURVES,)),
    "reduced_action_check/per_curve_kappa": (functools.partial(reduced_action_check, TAU),
                                             four_d_curves_and_kappas, (CURVES,)),
}

#: Exports that take no stack, or whose stacked work is a row under another name: name -> why.
NOT_STACKED = {
    "random_nonisotropic_velocity": "a sampler: its size is the stack it draws",
    "unit_speed_velocity": "a sampler",
    "random_unimodular": "a sampler",
    "run_checks": "takes a seed and a trial count; the checks it runs call the rows",
    "reparametrize": "samples one trajectory on one grid",
    "arc_length": "one curve: its samples are its first axis, not a stack",
    "metric_coefficients": "takes nothing",
    "CubicMetric": "its contract is a row",
    "Trajectory": "one world line; its at is the general_solution row",
}


def parts(result):
    """A result as a tuple of its arrays: ``block_split_check`` and ``reduced_action_check`` give several."""
    return result if isinstance(result, tuple) else (result,)


def test_block_sizes():
    assert (GRADIENT, ACTION, DETERMINANT, GATE, BASIS) == (512, 56, 2304, 768, 4096)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(derandomize=True, deadline=None, max_examples=2)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_stack_gives_the_bits_of_its_rows(name, seed):
    function, inputs, blocks = CASES[name]
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


def test_every_export_is_a_row_or_not_stacked():
    rows = {name.split("/")[0] for name in CASES}
    functions = {row for row in rows if "." not in row}
    classes = {row.split(".")[0] for row in rows - functions}
    assert functions.isdisjoint(NOT_STACKED)
    assert classes <= set(NOT_STACKED)
    assert functions | set(NOT_STACKED) == set(exported_callables())


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
