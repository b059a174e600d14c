"""Tests for the cubic norm, the matrix basis, and the symmetry action."""

import ast
import itertools
import pathlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import finsler9
from finsler9 import (
    LAMBDA_DUAL,
    LAMBDA_MATRICES,
    CubicMetric,
    NotUnimodular,
    canonical_momenta,
    conjugation_action,
    cubic_form,
    embed_sl2,
    group_action,
    matrix_to_vec,
    metric_coefficients,
    momenta_matrix,
    random_unimodular,
    unit_speed_velocity,
    vec_to_matrix,
)
from finsler9.checks import CHECKS
from finsler9.dynamics import _DET_TERMS
from finsler9.geometry import (
    _ACTION_TERMS,
    _BLOCK_ROWS,
    _CACHE_TERMS,
    _COMPLEX_DET_TERMS,
    _DUAL_SCALE,
    _GRADIENT_TERMS,
    G,
    HERMITIAN_TOL,
    _by_blocks,
    _cubic_gradient,
    _det_forms,
    _hermitian_residue,
    _monomials,
    _norm,
    _products,
    _require_unimodular,
    _terms,
)

from contract import same_bits
from faults import minor_faults

#: Rows per block of ``_cubic_gradient``.
TERM_ROWS = _CACHE_TERMS // _GRADIENT_TERMS[-1].size

GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
]


# Monomials of the cubic norm, typed from the expanded polynomial:
# (triple, coefficient).  The library derives its tensor from the basis, so
# this table is an independent oracle for it.
_MONOMIALS = [
    ((0, 0, 8), 1.0), ((1, 1, 8), -1.0), ((2, 2, 8), -1.0), ((3, 3, 8), -1.0),
    ((0, 4, 4), -1.0), ((0, 5, 5), -1.0), ((0, 6, 6), -1.0), ((0, 7, 7), -1.0),
    ((1, 4, 6), 2.0), ((1, 5, 7), 2.0), ((2, 5, 6), 2.0), ((2, 4, 7), -2.0),
    ((3, 4, 4), 1.0), ((3, 5, 5), 1.0), ((3, 6, 6), -1.0), ((3, 7, 7), -1.0),
]


def multiplicity(triple):
    """Number of distinct permutations of an index triple."""
    return len(set(itertools.permutations(triple)))


def e(a):
    out = np.zeros(9)
    out[a] = 1.0
    return out


class TestBasis:
    def test_all_hermitian(self):
        for lam in LAMBDA_MATRICES:
            assert np.array_equal(lam, lam.conj().T)

    def test_middle_seven_are_gell_mann(self):
        for a in range(1, 8):
            assert np.array_equal(LAMBDA_MATRICES[a], GELL_MANN[a - 1])

    def test_dual_family(self):
        for a in range(8):
            assert np.array_equal(LAMBDA_DUAL[a], LAMBDA_MATRICES[a])
        assert np.array_equal(LAMBDA_DUAL[8], 2 * LAMBDA_MATRICES[8])


class TestCubicForm:
    def test_diagonal_vector(self):
        assert cubic_form([1, 0, 0, 0, 0, 0, 0, 0, 1]) == 1.0

    def test_pure_spinor_square_term(self):
        # only the X3 * (X4^2 + ...) group contributes
        assert cubic_form([0, 0, 0, 1, 1, 0, 0, 0, 0]) == 1.0

    def test_matches_determinant_on_random_vectors(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-10, 10, size=(1000, 9))
        det = np.linalg.det(vec_to_matrix(x))
        scale = np.maximum(1.0, np.linalg.norm(x, axis=1) ** 3)
        assert (np.abs(cubic_form(x) - det.real) / scale).max() < 1e-12
        assert (np.abs(det.imag) / scale).max() < 1e-11

    @pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
    def test_cubic_homogeneity(self, c):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=9)
            f = cubic_form(x)
            if abs(f) < 1e-6:
                continue
            assert abs(cubic_form(c * x) - c**3 * f) <= 1e-12 * abs(c**3 * f)


class TestMetricCoefficients:
    def test_squared_index_coefficient(self):
        g = metric_coefficients()
        assert g.coefficient(0, 0, 8) == pytest.approx(1.0 / 3.0)
        assert g.coefficient(8, 0, 0) == pytest.approx(1.0 / 3.0)

    def test_distinct_index_coefficient(self):
        g = metric_coefficients()
        assert g.coefficient(1, 4, 6) == pytest.approx(1.0 / 3.0)
        assert g.coefficient(6, 1, 4) == pytest.approx(1.0 / 3.0)

    def test_absent_triple_is_zero_and_not_stored(self):
        g = metric_coefficients()
        assert g.coefficient(1, 2, 3) == 0.0
        assert (1, 2, 3) not in g.triples()
        assert all(v != 0.0 for v in g.triples().values())

    def test_sparse_contraction_matches_polynomial(self):
        g = metric_coefficients()
        rng = np.random.default_rng(13)
        x = rng.uniform(-10, 10, size=(200, 9))
        assert_allclose(g.contract(x), cubic_form(x), rtol=1e-12, atol=1e-12)

    def test_dense_triple_loop_matches_polynomial(self):
        dense = metric_coefficients().as_dense()
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-10, 10, size=9)
            full = np.einsum("abc,a,b,c->", dense, x, x, x)
            poly = cubic_form(x)
            if abs(poly) < 1e-3:
                continue
            assert abs(full - poly) <= 1e-12 * abs(poly)

    def test_dense_is_symmetric(self):
        dense = metric_coefficients().as_dense()
        for axes in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.array_equal(dense, dense.transpose(axes))

    def test_triples_equal_monomial_oracle(self):
        expected = {triple: coeff / multiplicity(triple) for triple, coeff in _MONOMIALS}
        assert metric_coefficients().triples() == expected

    def test_dense_equals_monomial_oracle_on_all_729_entries(self):
        oracle = np.zeros((9, 9, 9))
        for triple, coeff in _MONOMIALS:
            for index in itertools.permutations(triple):
                oracle[index] = coeff / multiplicity(triple)
        assert np.array_equal(metric_coefficients().as_dense(), oracle)

    def test_constructor_fills_every_index_order(self):
        g = CubicMetric({(0, 1, 2): 0.5, (3, 3, 3): 0.0})
        assert g.triples() == {(0, 1, 2): 0.5}
        assert g.coefficient(2, 0, 1) == 0.5
        assert g.contract(e(0) + e(1) + e(2)) == 3.0
        g.as_dense()[0, 1, 2] = 7.0  # a copy: the tensor stays as built
        assert g.coefficient(0, 1, 2) == 0.5


class TestVectorMatrixIsomorphism:
    def test_basis_vectors_map_to_basis_matrices(self):
        assert np.array_equal(vec_to_matrix(e(0)), np.diag([1, 1, 0]))
        assert np.array_equal(vec_to_matrix(e(8)), np.diag([0, 0, 1]))
        assert np.array_equal(vec_to_matrix(e(4)), LAMBDA_MATRICES[4])

    def test_identity_matrix_decomposition(self):
        assert_allclose(matrix_to_vec(np.eye(3)), e(0) + e(8))

    def test_diag_1_m1_0_is_third_slot(self):
        assert_allclose(matrix_to_vec(np.diag([1.0, -1.0, 0.0])), e(3))

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-5, 5, size=(50, 9))
        assert_allclose(matrix_to_vec(vec_to_matrix(x)), x, atol=1e-14)


class TestGroupAction:
    def test_identity_element(self):
        assert_allclose(group_action(np.eye(3)), np.eye(9), atol=1e-15)

    def test_phase_rotation_fixes_diagonal_slots(self):
        theta = np.pi / 4
        d = np.diag([np.exp(1j * theta), np.exp(-1j * theta), 1.0])
        ell = group_action(d)
        for a in (0, 3, 8):
            expected = np.zeros(9)
            expected[a] = 1.0
            assert_allclose(ell[a], expected, atol=1e-15)
        # the (1, 2) plane rotates by twice the phase
        c, s = np.cos(2 * theta), np.sin(2 * theta)
        assert_allclose(ell[1:3, 1:3], [[c, s], [-s, c]], atol=1e-15)
        oracle = np.column_stack(
            [conjugation_action(d, e(b)) for b in range(9)]
        )
        assert_allclose(ell, oracle, atol=1e-14)

    def test_cubic_form_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ell = group_action(random_unimodular(rng))
            for _ in range(3):
                x = rng.uniform(-1, 1, size=9)
                f = cubic_form(x)
                if abs(f) < 1e-3:
                    continue
                assert abs(cubic_form(ell @ x) - f) <= 1e-9 * abs(f)

    def test_matches_conjugation_action(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = random_unimodular(rng)
            x = rng.uniform(-1, 1, size=9)
            lhs = group_action(d) @ x
            rhs = conjugation_action(d, x)
            assert_allclose(lhs, rhs, rtol=0, atol=1e-11 * max(1.0, np.abs(rhs).max()))

    def test_conjugation_by_identity_is_identity(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-3, 3, size=9)
        assert_allclose(conjugation_action(np.eye(3), x), x, rtol=0, atol=1e-14)

    def test_conjugation_is_linear_at_zero(self):
        rng = np.random.default_rng(31)
        assert_allclose(conjugation_action(random_unimodular(rng), np.zeros(9)),
                        np.zeros(9))

    def test_trace_formula_is_exactly_real_even_for_extreme_entries(self):
        # each basis matrix is sparse enough that the trace accumulates at
        # most one conjugate pair, so the imaginary parts cancel exactly
        # and the NonRealEntry guard stays purely defensive
        z1 = 1e9 * (np.pi + np.e * 1j)
        z2 = 1e9 * (np.sqrt(2) + np.sqrt(3) * 1j)
        d = np.array([[1.0, z1, z2], [0.0, 1.0, z1], [0.0, 0.0, 1.0]],
                     dtype=complex)
        ell = group_action(d)  # must not raise
        assert np.isrealobj(ell)

    def test_random_unimodular_has_unit_determinant(self):
        rng = np.random.default_rng(41)
        for n in (2, 3):
            for _ in range(50):
                d = random_unimodular(rng, n=n)
                assert abs(np.linalg.det(d) - 1.0) < 1e-12


def unimodular_loop(rng, n=3):
    """The one-at-a-time rejection loop ``random_unimodular`` replaced."""
    while True:
        d = rng.random((n, n)) + 1j * rng.random((n, n))
        det = np.linalg.det(d)
        if abs(det) >= 0.1:
            return d / det ** (1.0 / n)



class TestRandomUnimodularSize:
    @pytest.mark.parametrize("n", [2, 3])
    def test_single_draws_match_the_loop_bit_for_bit(self, n):
        rng, oracle = np.random.default_rng(61), np.random.default_rng(61)
        for _ in range(300):
            assert np.array_equal(random_unimodular(rng, n=n), unimodular_loop(oracle, n))
        assert rng.random() == oracle.random()  # same generator state afterwards

    @pytest.mark.parametrize("n", [2, 3])
    def test_sized_draws_have_unit_determinant(self, n):
        d = random_unimodular(np.random.default_rng(67), n=n, size=400)
        assert d.shape == (400, n, n)
        assert np.abs(np.linalg.det(d) - 1.0).max() < 1e-12

    def test_shape_sizes(self):
        rng = np.random.default_rng(71)
        assert random_unimodular(rng, size=(2, 3)).shape == (2, 3, 3, 3)
        assert random_unimodular(rng, size=0).shape == (0, 3, 3)
        assert random_unimodular(rng, n=np.int64(1), size=2).shape == (2, 1, 1)


# The basis maps as complex einsums over all 81 basis entries per vector:
# the library computes them as real (9, 18) products, which must give the
# same bits.
def vec_to_matrix_oracle(x):
    return np.einsum("...a,aij->...ij", x, LAMBDA_MATRICES)


def momenta_matrix_oracle(p):
    return np.einsum("...a,aij->...ij", p, LAMBDA_DUAL)


def matrix_to_vec_oracle(m):
    return 0.5 * np.einsum("aij,...ji->...a", LAMBDA_DUAL, m).real


def conjugation_oracle(d, x):
    """``conjugation_action`` as ``d @ X @ d^+`` with the oracle maps."""
    m = d @ vec_to_matrix_oracle(x) @ np.conj(np.swapaxes(d, -1, -2))
    return matrix_to_vec_oracle(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))


def assert_conjugation_is_the_group_action(d, x):
    """``group_action(d)`` applied to ``x``, near the triple product."""
    got = conjugation_action(d, x)
    assert same_bits(got, np.einsum("...ab,...b->...a", group_action(d), x))
    assert_allclose(got, conjugation_oracle(d, x), rtol=0, atol=1e-14 * np.abs(got).max())


def wide_vectors(seed, n=4000):
    """Signed magnitudes from 1e-300 to 1e300, with zeros and negative zeros."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-300, 300, size=(n, 9)) * rng.choice([-1.0, 1.0], size=(n, 9))
    x[rng.random((n, 9)) < 0.1] = 0.0
    x[rng.random((n, 9)) < 0.1] = -0.0
    return x


class TestBasisMapsAsRealProducts:
    @pytest.mark.parametrize("seed", [101, 103, 107])
    def test_vec_to_matrix_and_momenta_matrix_equal_the_einsum_oracle(self, seed):
        x = wide_vectors(seed)
        assert same_bits(vec_to_matrix(x), vec_to_matrix_oracle(x))
        assert same_bits(momenta_matrix(x), momenta_matrix_oracle(x))
        assert same_bits(vec_to_matrix(x[0]), vec_to_matrix_oracle(x[0]))
        assert same_bits(momenta_matrix(x[0]), momenta_matrix_oracle(x[0]))

    def test_all_negative_zero_vectors(self):
        x = np.full((3, 9), -0.0)
        assert same_bits(vec_to_matrix(x), vec_to_matrix_oracle(x))
        assert same_bits(momenta_matrix(x), momenta_matrix_oracle(x))
        assert same_bits(matrix_to_vec(vec_to_matrix(x)),
                         matrix_to_vec_oracle(vec_to_matrix(x)))

    @pytest.mark.parametrize("seed", [109, 113])
    def test_matrix_to_vec_equals_the_einsum_oracle(self, seed):
        m = vec_to_matrix_oracle(wide_vectors(seed))
        assert same_bits(matrix_to_vec(m), matrix_to_vec_oracle(m))
        assert same_bits(matrix_to_vec(m[0]), matrix_to_vec_oracle(m[0]))

    def test_matrix_to_vec_within_tolerance_of_hermitian(self):
        rng = np.random.default_rng(127)
        m = vec_to_matrix_oracle(rng.uniform(-1, 1, size=(4000, 9)))
        noise = rng.uniform(-1, 1, size=m.shape) + 1j * rng.uniform(-1, 1, size=m.shape)
        m = m + 0.3 * HERMITIAN_TOL * noise  # |m - m^+| <= 0.6 sqrt(2) tol
        assert same_bits(matrix_to_vec(m), matrix_to_vec_oracle(m))

    def test_non_finite_entries_propagate_as_in_the_oracle_without_warning(self):
        rng = np.random.default_rng(131)
        x = rng.uniform(-1, 1, size=(500, 9))
        for value, share in [(np.inf, 0.05), (-np.inf, 0.05), (np.nan, 0.05)]:
            x[rng.random(x.shape) < share] = value
        x[0] = [1e308, 0, 0, 1e308, 0, 0, 0, 0, 1e308]  # sums and 2 p_8 overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(vec_to_matrix(x), vec_to_matrix_oracle(x), equal_nan=True)
            assert np.array_equal(momenta_matrix(x), momenta_matrix_oracle(x),
                                  equal_nan=True)
            m = np.diag([1e308, 1e308, 1e308]).astype(complex)
            assert np.array_equal(matrix_to_vec(m), matrix_to_vec_oracle(m))

    def test_stacks_of_several_row_blocks_equal_the_einsum_oracle(self):
        x = wide_vectors(167, n=2 * (2 * _BLOCK_ROWS + 3)).reshape(2, -1, 9)
        for stack in (x, np.swapaxes(x, 0, 1)):  # contiguous and strided
            assert same_bits(vec_to_matrix(stack), vec_to_matrix_oracle(stack))
            assert same_bits(momenta_matrix(stack), momenta_matrix_oracle(stack))
            m = vec_to_matrix_oracle(stack)
            assert same_bits(matrix_to_vec(m), matrix_to_vec_oracle(m))

    def test_empty_stacks(self):
        assert vec_to_matrix(np.zeros((0, 9))).shape == (0, 3, 3)
        assert matrix_to_vec(np.zeros((0, 3, 3))).shape == (0, 9)

    def test_non_contiguous_matrices(self):
        m = vec_to_matrix_oracle(wide_vectors(139, n=50))
        view = np.swapaxes(m.conj(), -1, -2)  # the same Hermitian matrices, strided
        assert not view.flags.c_contiguous
        assert same_bits(matrix_to_vec(view), matrix_to_vec_oracle(view))

    @pytest.mark.parametrize("shape", [(), (3, 9), (5, 2, 9)])
    def test_one_d_conjugation_equals_the_plain_triple_product(self, shape):
        rng = np.random.default_rng(149)
        for _ in range(40):
            x = rng.uniform(-10, 10, size=shape + (9,))
            # one d, and a stack of d broadcasting against the stack of x
            for d in (random_unimodular(rng), random_unimodular(rng, size=shape[-1:] or 4)):
                assert_conjugation_is_the_group_action(d, x)

    def test_one_d_conjugation_on_a_large_stack(self):
        rng = np.random.default_rng(151)
        x = rng.uniform(-1, 1, size=(100_000, 9))
        for n in (2500, 100_000):
            assert_conjugation_is_the_group_action(random_unimodular(rng), x[:n])
        assert_conjugation_is_the_group_action(random_unimodular(rng, size=2500), x[:2500])


class TestConjugationOfExtremeVectors:
    def test_large_finite_vector_gives_its_finite_image_without_a_warning(self):
        # the triple product d X d^+ overflowed here, though the image is finite
        d = random_unimodular(np.random.default_rng(13))
        x = np.full(9, 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = conjugation_action(d, x)
            scaled = conjugation_action(d, 2.0**-10 * x)
        assert np.all(np.isfinite(got)) and np.abs(got).max() > 7e307
        assert same_bits(got, 2.0**10 * scaled)  # power-of-two scaling is exact
        assert_allclose(got, 2.0**10 * conjugation_oracle(d, 2.0**-10 * x),
                        rtol=0, atol=1e-14 * np.abs(got).max())


def gradient_oracle(x):
    """The gradient as the dense einsum over all 729 entries of ``G``."""
    return 3.0 * np.einsum("abc,...b,...c->...a", G.as_dense(), x, x)


class TestGradientTable:
    """``G``'s nonzero entries as the gradient kernel of every stack.

    The tests that compare ``_cubic_gradient`` with ``gradient_oracle`` are
    oracle tests: they hold for the einsum itself, and pin the kernel to it
    bit for bit, zero signs included.
    """

    def test_table_is_built_from_G_in_C_order(self):
        b_rows, c_rows, weights = _GRADIENT_TERMS
        assert b_rows.shape == c_rows.shape == (8, 9) and weights.shape == (8, 9, 1)
        rebuilt = np.zeros((9, 9, 9))
        keys = [[] for _ in range(9)]
        for b, c, w in zip(b_rows, c_rows, weights):
            for a in range(9):
                if w[a, 0] != 0.0:
                    rebuilt[a, b[a], c[a]] += w[a, 0]
                    keys[a].append(9 * b[a] + c[a])
        assert np.array_equal(rebuilt, G.as_dense())
        assert all(k == sorted(set(k)) for k in keys)

    def test_step_counts_and_weights(self):
        weights = _GRADIENT_TERMS[2][..., 0]  # (steps, 9)
        assert weights.shape == (8, 9)
        assert np.count_nonzero(weights, axis=0).tolist() == [6, 6, 6, 6, 8, 8, 8, 8, 4]
        nonzero = weights[weights != 0.0]
        assert np.all(np.abs(nonzero) == 1.0 / 3.0)
        # the padding comes after each component's terms
        for column in weights.T:
            k = np.count_nonzero(column)
            assert np.all(column[:k] != 0.0) and np.all(column[k:] == 0.0)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, TERM_ROWS - 1, TERM_ROWS, TERM_ROWS + 1,
                                   2500, _BLOCK_ROWS + 1, 100_000])
    def test_equals_the_einsum_oracle(self, n):
        x = np.random.default_rng(173).uniform(-1, 1, size=(n, 9))
        assert same_bits(_cubic_gradient(x), gradient_oracle(x))

    def test_wide_scale_rows(self):
        rng = np.random.default_rng(179)
        x = rng.uniform(-1, 1, size=(100_000, 9)) * 10.0 ** rng.uniform(-50, 50, (100_000, 9))
        assert same_bits(_cubic_gradient(x), gradient_oracle(x))

    def test_rows_of_negative_and_positive_zeros(self):
        x = np.full((128, 9), -0.0)
        x[::2, ::2] = 0.0
        assert same_bits(_cubic_gradient(x), gradient_oracle(x))
        assert not np.any(np.signbit(_cubic_gradient(x)))

    def test_dual_scaled_momenta(self):
        p = canonical_momenta(unit_speed_velocity(np.random.default_rng(181), size=2500))
        x = _DUAL_SCALE * p  # the input of invert_momenta's closed form
        assert same_bits(_cubic_gradient(x), gradient_oracle(x))

    def test_overflowing_rows_match_the_oracle_without_warning(self):
        x = wide_vectors(191, n=128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cubic_gradient(x)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = gradient_oracle(x)
        assert np.isinf(got).any()
        assert np.array_equal(got, expected, equal_nan=True)

    def test_stack_equals_per_row_calls(self):
        x = np.random.default_rng(193).uniform(-1, 1, size=(4, 16, 9))
        per_row = np.array([_cubic_gradient(row) for row in x.reshape(-1, 9)])
        assert same_bits(_cubic_gradient(x).reshape(per_row.shape), per_row)

    @pytest.mark.parametrize("n", [5, 63, 64, 65, TERM_ROWS - 1, TERM_ROWS, TERM_ROWS + 1,
                                   2500])
    def test_stack_with_inf_and_nan_rows_equals_per_row_calls(self, n):
        x = np.random.default_rng(199).uniform(-1, 1, size=(n, 9))
        for k in range(0, n, 2):  # every entry position, the last row included
            x[k, k % 9] = [np.inf, -np.inf, np.nan][k % 3]
        assert same_bits(_cubic_gradient(x), np.array([_cubic_gradient(row) for row in x]))

    def test_strided_stack(self):
        x = np.random.default_rng(197).uniform(-1, 1, size=(9, 3 * _BLOCK_ROWS)).T
        assert not x.flags.c_contiguous
        assert same_bits(_cubic_gradient(x), gradient_oracle(x))


class TestMonomialTable:
    """``G``'s 16 monomials, the terms of the momentum constraint ``cubic_form(D p)``."""

    @staticmethod
    def as_dict(terms):
        assert terms[-1].shape == (16, 1, 1)  # 16 steps of one output
        a, b, c, w = (t[:, 0] for t in terms)
        return {(int(i), int(j), int(k)): float(v) for i, j, k, v in zip(a, b, c, w[:, 0])}

    def test_unscaled_table_is_the_hand_typed_polynomial(self):
        assert self.as_dict(_terms(_monomials(G._dense, np.ones(9)))) == dict(_MONOMIALS)

    def test_dual_scale_doubles_the_terms_of_x8(self):
        scaled = self.as_dict(_terms(_monomials(G._dense, _DUAL_SCALE)))
        assert scaled == {t: v * (2.0 if 8 in t else 1.0) for t, v in _MONOMIALS}
        assert sorted(set(np.abs(list(scaled.values())))) == [1.0, 2.0]

    def test_terms_sum_to_the_cubic_form_at_the_scaled_vector(self):
        x = np.random.default_rng(211).uniform(-1, 1, size=(500, 9))
        a, b, c, w = (t[:, 0] for t in _terms(_monomials(G._dense, _DUAL_SCALE)))
        total = (w[:, 0] * x[:, a] * x[:, b] * x[:, c]).sum(axis=1)
        assert_allclose(total, cubic_form(_DUAL_SCALE * x), rtol=0, atol=1e-14)


def hermitian_residue_oracle(m):
    """The conjugate-symmetry residue over all nine entries of each matrix."""
    return np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))), initial=0.0)


class TestHermitianResidue:
    @pytest.mark.parametrize("n", [0, 1, 7, 2500])
    def test_equals_the_nine_entry_residue(self, n):
        rng = np.random.default_rng(211)
        m = vec_to_matrix_oracle(rng.uniform(-1, 1, size=(n, 9)))
        m = m + 1e-12 * (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape))
        entries = m.reshape(n, 9)
        assert _hermitian_residue(entries) == hermitian_residue_oracle(m)
        for row, matrix in zip(entries[:20], m[:20]):
            assert _hermitian_residue(row) == hermitian_residue_oracle(matrix)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0),
                                       complex(0.0, np.inf), complex(np.nan, 0.0)])
    def test_non_finite_entries_give_the_same_residue(self, value):
        m = vec_to_matrix_oracle(np.random.default_rng(223).uniform(-1, 1, size=(9, 9)))
        for k in range(9):
            m[k].flat[k] = value  # each entry position once
        with np.errstate(invalid="ignore"):
            expected = hermitian_residue_oracle(m)
            got = _hermitian_residue(m.reshape(9, 9))
            per_matrix = [(_hermitian_residue(a.reshape(9)), hermitian_residue_oracle(a))
                          for a in m]
        assert not expected <= HERMITIAN_TOL
        assert np.array_equal(got, expected, equal_nan=True)
        for a, b in per_matrix:
            assert np.array_equal(a, b, equal_nan=True)


def einsum_action(d):
    """The action as two complex einsums, ``d lam[b] d^+`` paired with the dual basis."""
    m = np.einsum("...ij,bjk,...lk->...bil", d, LAMBDA_MATRICES, d.conj())
    return (0.5 * np.einsum("aij,...bji->...ab", LAMBDA_DUAL, m)).real


def exact_action(d):
    """``Re tr(dual[a] d lam[b] d^+) / 2`` of one ``d`` and the documented bound on its error.

    Both exact, as ``(9, 9)`` Fractions: the bound is
    ``gamma_4 tr(|dual[a]| |d|_1 |lam[b]| |d|_1^T) / 2`` with ``|d|_1 = |Re d| + |Im d|``.
    """
    parts = [Fraction(v) for v in np.ascontiguousarray(d).view(float).ravel()]
    den = max(f.denominator for f in parts)  # powers of two: every other one divides it
    re, im = (np.array([int(f * den) for f in parts[s::2]], dtype=object).reshape(3, 3)
              for s in (0, 1))
    d1 = np.abs(re) + np.abs(im)

    def ints(a):
        return a.astype(int).astype(object)

    exact, bound = np.empty((2, 9, 9), dtype=object)
    gamma4 = Fraction(4, 2**53 - 4)
    for b, lam in enumerate(LAMBDA_MATRICES):
        ar = re @ ints(lam.real) - im @ ints(lam.imag)  # d lam[b]
        ai = re @ ints(lam.imag) + im @ ints(lam.real)
        mr, mi = ar @ re.T + ai @ im.T, ai @ re.T - ar @ im.T  # times d^+
        size = d1 @ ints(np.abs(lam)) @ d1.T
        for a, dual in enumerate(LAMBDA_DUAL):
            trace = np.sum(ints(dual.real) * mr.T) - np.sum(ints(dual.imag) * mi.T)
            exact[a, b] = Fraction(int(trace), 2 * den * den)
            total = np.sum(ints(np.abs(dual)) * size.T)
            bound[a, b] = gamma4 * Fraction(int(total), 2 * den * den)
    return exact, bound


def quadratic_forms_of_the_trace():
    """The symmetric ``(81, 18, 18)`` forms of the trace formula, by polarisation at unit ``z``."""
    def ell(z):
        d = np.asarray(z, dtype=float).view(complex).reshape(3, 3)
        return einsum_action(d).reshape(81)  # exact: entries are small integers

    unit = np.eye(18)
    diag = np.array([ell(u) for u in unit])  # (18, 81)
    forms = np.zeros((81, 18, 18))
    for p, q in itertools.combinations_with_replacement(range(18), 2):
        value = diag[p] if p == q else (ell(unit[p] + unit[q]) - diag[p] - diag[q]) / 2
        forms[:, p, q] = forms[:, q, p] = value
    return forms


ACTION_ROWS = _CACHE_TERMS // _ACTION_TERMS[-1].size


class TestActionTable:
    """``group_action`` as the 314 terms of ``_ACTION_TERMS``, summed by halves."""

    def test_table_is_the_trace_formula_of_the_two_bases(self):
        p_rows, q_rows, weights = _ACTION_TERMS
        rebuilt = np.zeros((81, 18, 18))
        for p, q, w in zip(p_rows, q_rows, weights[..., 0]):
            for entry in range(81):
                if w[entry] != 0.0:
                    assert p[entry] <= q[entry]
                    rebuilt[entry, p[entry], q[entry]] += w[entry] / 2
                    rebuilt[entry, q[entry], p[entry]] += w[entry] / 2
        assert np.array_equal(rebuilt, quadratic_forms_of_the_trace())

    def test_terms_steps_and_weights(self):
        p_rows, q_rows, weights = _ACTION_TERMS
        assert p_rows.shape == q_rows.shape == (8, 81) and weights.shape == (8, 81, 1)
        nonzero = weights[weights != 0.0]
        assert nonzero.size == 314
        assert set(np.abs(nonzero).tolist()) == {0.5, 1.0, 2.0}
        for column in weights[..., 0].T:  # the padding comes after each entry's terms
            k = np.count_nonzero(column)
            assert np.all(column[:k] != 0.0) and np.all(column[k:] == 0.0)
        assert ACTION_ROWS == 56 and TERM_ROWS == 512

    def test_entries_are_within_the_documented_bound_of_an_exact_reference(self):
        rng = np.random.default_rng(389)
        scaled = random_unimodular(rng, size=50)
        scaled *= np.array([1e5, 1e-5, 1.0])[:, None] * np.array([1e-5, 1.0, 1e5])
        sample = np.concatenate([random_unimodular(rng, size=100), scaled,
                                 embed_sl2(random_unimodular(rng, n=2, size=50))])
        table, einsum = group_action(sample), einsum_action(sample)
        worst = {"table": 0.0, "einsum": 0.0}
        for d, ell, ell_einsum in zip(sample, table, einsum):
            exact, bound = exact_action(d)
            err = np.vectorize(lambda got, ref: abs(Fraction(got) - ref), otypes=[object])
            table_err, einsum_err = err(ell, exact), err(ell_einsum, exact)
            assert np.all(table_err <= bound)
            scale = float(np.max(np.abs(exact)))
            worst["table"] = max(worst["table"], float(np.max(table_err)) / scale)
            worst["einsum"] = max(worst["einsum"], float(np.max(einsum_err)) / scale)
        print(f"max entry error over max |ell|, {len(sample)} d: "
              f"table {worst['table']:.3e}, einsum {worst['einsum']:.3e}")
        assert worst["table"] <= 1.1 * worst["einsum"], worst

    @pytest.mark.parametrize("name", ["block_structure", "scalar_invariance"])
    def test_embedded_checks_are_exactly_zero(self, name):
        index, spec = next((i, spec) for i, spec in enumerate(CHECKS) if spec.name == name)
        for seed in range(3):  # each trial of run_checks(seed, 500)
            residuals = spec.fn(np.random.default_rng([seed, index]), 500)
            assert np.all(residuals == 0.0)


def weight_pass_products(x, terms):
    """The products of a term table with its weights multiplied into the gathered first factors."""
    factors = x[np.array(terms[:-1])]
    t = factors[0]
    t *= terms[-1]
    for f in factors[1:]:
        t *= f
    return t


def rows_with_non_finite_entries(seed, n, k):
    """``n`` rows of ``k`` signed magnitudes, 1e-320 to 1e200, with inf, NaN and zero rows."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-320, 200, size=(n, k)) * rng.choice([-1.0, 1.0], size=(n, k))
    x[rng.random((n, k)) < 0.05] = -0.0
    x[::7, rng.integers(k)] = np.inf
    x[3::11, rng.integers(k)] = -np.inf
    x[5::13, rng.integers(k)] = np.nan
    x[1::17] = 0.0
    return x


def table_products(products, terms, rows):
    """``products(x, terms)`` of all rows through ``_by_blocks``: ``w.shape[:-1] + (n,)``."""
    return _by_blocks(products, terms, rows, np.empty(terms[-1].shape[:-1] + (len(rows),)))


class TestPrescaledProducts:
    """The first factors ``w x[i]`` read from a stack of ``x`` times each distinct weight."""

    def test_stack_is_chosen_from_the_table_shape(self):
        assert _GRADIENT_TERMS.scale.tolist() == [-1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0]
        assert _ACTION_TERMS.scale.tolist() == [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        # 16 monomials against 4 weights times 9 momenta: the weight pass stays
        assert _DET_TERMS.scale is None

    @pytest.mark.parametrize("terms, width, n", [
        *((_GRADIENT_TERMS, 9, n) for n in (1, 511, 512, 513)),
        *((_ACTION_TERMS, 18, n) for n in (1, 55, 56, 57)),
        *((_DET_TERMS, 9, n) for n in (1, 2303, 2304, 2305)),
    ])
    def test_equal_the_weight_pass_bit_for_bit(self, terms, width, n):
        rows = rows_with_non_finite_entries(n + width, n, width)
        got = table_products(_products, terms, rows)
        assert np.isnan(got).any() or n == 1
        assert same_bits(got, table_products(weight_pass_products, terms, rows))

    def test_a_fresh_process_reuses_the_block_temporaries(self):
        # two large temporaries freed in each block make glibc's malloc give
        # their pages back and fault them in again: about 675 faults a
        # 2 500-row gradient call in a fresh process, and 3-4x the time
        code = (
            "import numpy as np\n"
            "from finsler9.geometry import _cubic_gradient\n"
            "x = np.random.default_rng(0).uniform(-1, 1, size=(2500, 9))\n"
            "_cubic_gradient(x)\n"
            "before = minflt()\n"
            "for _ in range(100):\n"
            "    _cubic_gradient(x)\n"
            "print(minflt() - before)\n"
        )
        assert minor_faults(code) < 1000


class TestNorm:
    """``_norm`` is ``np.linalg.norm(x, axis=-1)`` bit for bit: numpy's pairwise order of nine."""

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_equals_numpy_on_scaled_rows(self, scale):
        rng = np.random.default_rng(223)
        x = rng.uniform(-1, 1, size=(20_000, 9)) * 10.0 ** rng.uniform(-4, 4, size=(20_000, 9))
        assert same_bits(_norm(scale * x), np.linalg.norm(scale * x, axis=-1))

    def test_signed_zeros_and_subnormals(self):
        rng = np.random.default_rng(227)
        x = rng.uniform(-1, 1, size=(4000, 9)) * 10.0 ** rng.uniform(-323, -300, size=(4000, 9))
        x[rng.random(x.shape) < 0.2] = -0.0
        x[:10] = -0.0
        assert np.any(np.abs(x) < np.finfo(float).tiny)
        assert same_bits(_norm(x), np.linalg.norm(x, axis=-1))

    @pytest.mark.parametrize("shape", [(9,), (1, 9), (4, 5, 9), (0, 9)])
    def test_one_vector_and_stacks(self, shape):
        x = np.random.default_rng(229).uniform(-1, 1, size=shape)
        got = np.asarray(_norm(x))
        assert same_bits(got, np.asarray(np.linalg.norm(x, axis=-1)))

    def test_strided_rows_keep_the_pairwise_order(self):
        x = np.random.default_rng(233).uniform(-1, 1, size=(9, 5000)).T
        assert same_bits(_norm(x), np.linalg.norm(np.ascontiguousarray(x), axis=-1))


def table_det(d):
    """``det d`` of complex ``(..., 3, 3)`` matrices: the gate's term table, summed in sequence."""
    z = np.ascontiguousarray(d).view(float).reshape(-1, 18)
    det = np.add.reduce(_products(z.T.copy(), _COMPLEX_DET_TERMS), axis=0)
    return det.T.copy().view(complex).reshape(d.shape[:-2])


class TestClosedFormDeterminant:
    """The unimodularity gate's ``det``: 48 real terms from :func:`_det_forms`, not LAPACK's LU."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_close_to_lapack(self, n):
        d = random_unimodular(np.random.default_rng(239), n=n, size=(20, 500))
        d3 = embed_sl2(d) if n == 2 else d
        assert_allclose(table_det(d3), np.linalg.det(d), rtol=0, atol=1e-14)
        assert_allclose(table_det(d3[0, 0]), np.linalg.det(d[0, 0]), rtol=0, atol=1e-14)
        assert _require_unimodular(d3[:0]).shape == (0, 500, 3, 3)

    def test_48_terms_of_weight_one_in_24_steps(self):
        forms = _det_forms()
        assert np.count_nonzero(forms) == 48 and set(np.abs(forms[forms != 0])) == {1.0}
        assert [t.shape[:2] for t in _COMPLEX_DET_TERMS] == [(24, 2)] * 4

    def test_cofactors_that_overflow_to_inf_minus_inf_read_inf(self):
        # every entry is finite, but two terms overflow with opposite signs,
        # so the expanded determinant is NaN
        d = np.array([[1e200, 1e200, 0], [1e200, 1e200, 0], [0, 0, 1]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(table_det(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnimodular, match=r"\|det - 1\| = inf exceeds"):
                group_action(d)
            with pytest.raises(NotUnimodular, match=r"\|det - 1\| = inf exceeds"):
                embed_sl2(d[:2, :2])



#: The argument rules, and the gate of every "<what> <worst> exceeds <tol>" refusal.
RULES = {"_stack", "_is_count", "_is_index", "_is_real", "_check_real", "_in_range",
         "_check_kappa", "_check_kappas", "_grid", "_refuse_above"}


def test_every_argument_rule_and_the_exceeds_gate_live_in_geometry():
    """The argument rules and the "exceeds" gate have one home, ``geometry``.

    Each rule is defined there once, and another module imports the rules it
    names from there.  Only the gate, and the momentum admission with its own
    format, word a refusal "... exceeds ...".
    """
    modules = [(path.stem, ast.parse(path.read_text()))
               for path in sorted(pathlib.Path(finsler9.__file__).parent.glob("*.py"))]
    defined, elsewhere = [], []
    for module, tree in modules:
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in RULES:
                defined.append((node.name, module))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in RULES and node.module == "geometry":
                        imported.add(alias.name)
                    elif alias.name in RULES:
                        elsewhere.append((module, alias.name, f"from {node.module}"))
            elif isinstance(node, ast.Attribute) and node.attr in RULES:
                elsewhere.append((module, node.attr, "as an attribute"))
        if module != "geometry":
            elsewhere += [(module, node.id, "not imported") for node in ast.walk(tree)
                          if isinstance(node, ast.Name) and node.id in RULES - imported]
    assert sorted(defined) == sorted((rule, "geometry") for rule in RULES)
    assert elsewhere == []
    wording = {(module, function.name) for module, tree in modules
               for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function) if isinstance(node, ast.JoinedStr)
               for part in node.values
               if isinstance(part, ast.Constant) and " exceeds " in part.value}
    assert wording == {("geometry", "_refuse_above"), ("dynamics", "invert_momenta")}
