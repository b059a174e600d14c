"""A stack gives the bits of its rows: one property over the public stacked functions.

Every function that reaches a term table or the blocked basis product is
called on a stack that crosses its blocks' edges, and on each row alone;
the results must agree in every bit, the sign of zero and the place of
each NaN included.  A new stacked function joins the contract by joining
``CASES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler9 import (
    NotUnimodular,
    block_split_check,
    canonical_energy,
    canonical_momenta,
    conjugation_action,
    cubic_form,
    embed_sl2,
    group_action,
    invert_momenta,
    lagrangian,
    matrix_identity_residual,
    matrix_to_vec,
    momenta_matrix,
    momentum_constraint_residual,
    random_unimodular,
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

#: Rows per block of each kernel: 512 (gradient), 56 (action), 2 304
#: (momentum determinant), 768 (unimodularity gate) and 4 096 (``_rows_times``).
GRADIENT, ACTION, DETERMINANT, GATE = (
    _CACHE_TERMS // t[-1].size
    for t in (_GRADIENT_TERMS, _ACTION_TERMS, _DET_TERMS, _COMPLEX_DET_TERMS))
BASIS = _BLOCK_ROWS


def scales(rng, n, low, high):
    """One power of ten a row, from ``10^low`` to ``10^high``, as ``(n, 1)``."""
    return 10.0 ** rng.uniform(low, high, size=(n, 1))


def velocities(rng, n):
    """``n`` nonisotropic velocities over 60 decades, some entries ``-0.0``."""
    x = rng.uniform(-1.0, 1.0, size=(2 * n + 20, 9))
    x[rng.random(x.shape) < 0.1] = -0.0
    x = x[np.abs(cubic_form(x)) >= 1e-3 * np.linalg.norm(x, axis=1) ** 3][:n]
    return (x * scales(rng, n, -30, 30),)


def velocities_and_kappas(rng, n):
    """:func:`velocities` and one coupling a row, of either sign, across the kappa range."""
    kappa = rng.choice([-1.0, 1.0], size=n) * 2.0 ** rng.uniform(-300, 300, size=n)
    return velocities(rng, n) + (kappa,)


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


def finite_rows(rng, n):
    """Signed 9-vectors over 200 decades, some entries ``-0.0``."""
    x = rng.uniform(-1.0, 1.0, size=(n, 9)) * scales(rng, n, -100, 100)
    x[rng.random(x.shape) < 0.05] = -0.0
    return (x,)


def unimodular(rng, n):
    return (random_unimodular(rng, size=n),)


def unimodular_2x2(rng, n):
    return (random_unimodular(rng, n=2, size=n),)


def unimodular_and_vectors(rng, n):
    return unimodular(rng, n) + finite_rows(rng, n)


def hermitian(rng, n):
    return (vec_to_matrix(finite_rows(rng, n)[0]),)


def split_blocks(d2):
    """:func:`block_split_check`'s vector, spinor and scalar blocks as one ``(..., 33)`` array."""
    vec, spin, scalar = block_split_check(d2)
    shape = np.shape(scalar)
    return np.concatenate([vec.reshape(shape + (16,)), spin.reshape(shape + (16,)),
                           np.reshape(scalar, shape + (1,))], axis=-1)


#: name -> (function, its inputs for ``n`` rows, the block sizes whose edges it crosses)
CASES = {
    "canonical_momenta": (canonical_momenta, velocities, (GRADIENT,)),
    "lagrangian": (lagrangian, velocities, (GRADIENT,)),
    "lagrangian_per_row_kappa": (lagrangian, velocities_and_kappas, (GRADIENT,)),
    "canonical_energy": (canonical_energy, velocities, (GRADIENT,)),
    "invert_momenta": (invert_momenta, admitted_momenta, (GRADIENT, DETERMINANT)),
    "momentum_constraint_residual": (momentum_constraint_residual, wide_rows, (DETERMINANT,)),
    "group_action": (group_action, unimodular, (ACTION,)),
    "embed_sl2": (embed_sl2, unimodular_2x2, (GATE,)),
    "block_split_check": (split_blocks, unimodular_2x2, (ACTION, GATE)),
    "conjugation_action": (conjugation_action, unimodular_and_vectors, (ACTION,)),
    "vec_to_matrix": (vec_to_matrix, wide_rows, (BASIS,)),
    "momenta_matrix": (momenta_matrix, wide_rows, (BASIS,)),
    "matrix_to_vec": (matrix_to_vec, hermitian, (BASIS,)),
    "matrix_identity_residual": (matrix_identity_residual, velocities, (GRADIENT, BASIS)),
}


def assert_same_raw_bits(stacked, per_row):
    """Equal shapes, NaN in the same places, and every other float64 bit pattern equal."""
    stacked, per_row = np.asarray(stacked), np.asarray(per_row)
    assert stacked.shape == per_row.shape
    stacked, per_row = stacked.view(float), per_row.view(float)
    nan = np.isnan(per_row)
    assert np.array_equal(np.isnan(stacked), nan)
    assert np.array_equal(stacked[~nan].view(np.uint64), per_row[~nan].view(np.uint64))


def test_block_sizes():
    assert (GRADIENT, ACTION, DETERMINANT, GATE, BASIS) == (512, 56, 2304, 768, 4096)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(derandomize=True, deadline=None, max_examples=2)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_stack_gives_the_bits_of_its_rows(name, seed):
    function, inputs, blocks = CASES[name]
    args = inputs(np.random.default_rng(seed), max(blocks) + 1)
    per_row = np.array([function(*row) for row in zip(*args)])
    for n in sorted({block + k for block in blocks for k in (-1, 0, 1)}):
        assert_same_raw_bits(function(*(a[:n] for a in args)), per_row[:n])


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
