"""Tests for the particle mechanics: momenta, inversion, straight lines."""

import itertools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import finsler9.dynamics
from finsler9 import (
    LAMBDA_DUAL,
    LAMBDA_MATRICES,
    DegeneratePath,
    InconsistentMomenta,
    IsotropicVelocity,
    NonMonotone,
    NonRealEntry,
    NotUnitSpeed,
    SingularMomentumMatrix,
    Trajectory,
    action_stationarity_check,
    arc_length,
    canonical_energy,
    canonical_momenta,
    constraint_residual,
    cubic_form,
    discrete_action,
    general_solution,
    group_action,
    invert_momenta,
    lagrangian,
    matrix_identity_residual,
    momenta_matrix,
    momentum_constraint_residual,
    random_nonisotropic_velocity,
    random_unimodular,
    reduced_action_check,
    reparametrize,
    transform_momenta,
    unit_speed_velocity,
    vec_to_matrix,
)
from finsler9.dynamics import _DET_TERMS, _GAMMA, _KAPPA_RANGE, _PLAIN_DET_TOL, _cubed_norm
from finsler9.geometry import G, _cubic_gradient, matrix_to_vec, metric_coefficients

DIAG = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 1.0])


def cubic_form_gradient(xdot):
    """Hand-expanded gradient of the cubic form; an oracle for the adjugate."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = (xdot[..., a] for a in range(9))
    return np.stack(
        [
            2.0 * x0 * x8 - x4**2 - x5**2 - x6**2 - x7**2,
            2.0 * (-x1 * x8 + x4 * x6 + x5 * x7),
            2.0 * (-x2 * x8 + x5 * x6 - x4 * x7),
            -2.0 * x3 * x8 + x4**2 + x5**2 - x6**2 - x7**2,
            2.0 * (-x0 * x4 + x1 * x6 - x2 * x7 + x3 * x4),
            2.0 * (-x0 * x5 + x1 * x7 + x2 * x6 + x3 * x5),
            2.0 * (-x0 * x6 + x1 * x4 + x2 * x5 - x3 * x6),
            2.0 * (-x0 * x7 + x1 * x5 - x2 * x4 - x3 * x7),
            x0**2 - x1**2 - x2**2 - x3**2,
        ],
        axis=-1,
    )


#: Cyclic successors and predecessors of the row/column indices 0, 1, 2.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cofactor_inverse_scaled(n):
    """Adjugate of complex 3x3 matrices; an oracle for the real sharp map.

    Cofactor ``(i, j)`` is the 2x2 determinant of rows ``i+1, i+2`` and
    columns ``j+1, j+2`` taken cyclically, which carries its sign.
    """
    rows1, rows2 = n[..., _NEXT, :], n[..., _PREV, :]
    cofactor = (rows1[..., _NEXT] * rows2[..., _PREV]
                - rows1[..., _PREV] * rows2[..., _NEXT])
    return np.swapaxes(cofactor, -1, -2)


D = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])


class TestSharpMap:
    """The real kernel ``3 G(x, x, .)`` against the complex adjugate oracle."""

    def test_metric_coefficients_is_the_module_tensor(self):
        assert metric_coefficients() is G
        with pytest.raises(ValueError):
            G._dense[0, 0, 8] = 1.0  # read-only

    def test_gradient_matches_adjugate_and_hand_expansion(self):
        x = random_nonisotropic_velocity(np.random.default_rng(701), size=1000)
        adjugate = np.einsum("aij,...ji->...a", LAMBDA_MATRICES,
                             _cofactor_inverse_scaled(vec_to_matrix(x))).real
        got = _cubic_gradient(x)
        scale = np.abs(adjugate).max(axis=-1)
        assert (np.abs(got - adjugate).max(axis=-1) / scale).max() <= 1e-14
        assert (np.abs(got - cubic_form_gradient(x)).max(axis=-1) / scale).max() <= 1e-14

    def test_sharp_of_sharp_is_norm_times_vector(self):
        # adj(adj X) = det(X) X, read in the basis through the dual pairing
        x = random_nonisotropic_velocity(np.random.default_rng(703), size=200)
        sharp = 0.5 * D * _cubic_gradient(x)
        twice = 0.5 * D * _cubic_gradient(sharp)
        expected = cubic_form(x)[:, None] * x
        assert_allclose(twice, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("kappa", [-1.0, 0.7, -2.5])
    def test_inversion_matches_complex_adjugate(self, kappa):
        v = unit_speed_velocity(np.random.default_rng(709), size=1000)
        p = canonical_momenta(v, kappa)
        c = 2.0 * kappa / 3.0
        adj = _cofactor_inverse_scaled(momenta_matrix(p))
        oracle = matrix_to_vec(0.5 * (adj + np.conj(np.swapaxes(adj, -1, -2))) / c**2)
        got = invert_momenta(p, kappa)
        gap = np.abs(got - oracle).max(axis=-1) / np.abs(oracle).max(axis=-1)
        assert gap.max() <= 1e-13

    def test_stack_is_bit_identical_to_per_row_calls(self):
        v = unit_speed_velocity(np.random.default_rng(711), size=(4, 16))
        p = canonical_momenta(v)
        assert np.array_equal(p.reshape(-1, 9),
                              [canonical_momenta(row) for row in v.reshape(-1, 9)])
        back = invert_momenta(p)
        assert np.array_equal(back.reshape(-1, 9),
                              [invert_momenta(row) for row in p.reshape(-1, 9)])


class TestVectorShape:
    CALLS = {
        "cubic_form": cubic_form,
        "vec_to_matrix": vec_to_matrix,
        "momenta_matrix": momenta_matrix,
        "lagrangian": lagrangian,
        "canonical_momenta": canonical_momenta,
        "invert_momenta": invert_momenta,
        "momentum_constraint_residual": momentum_constraint_residual,
        "_cubic_gradient": _cubic_gradient,
        "CubicMetric.contract": G.contract,
        "general_solution_x0": lambda x0: general_solution(x0, DIAG, 1.0),
        "transform_momenta_p": lambda p: transform_momenta(np.eye(9), p),
        "Trajectory_x0": lambda x0: Trajectory(x0, DIAG),
        "constraint_residual": constraint_residual,
    }

    def test_message_names_the_expected_and_the_received_shape(self):
        with pytest.raises(ValueError, match=re.escape("expected shape (..., 9), got shape (8,)")):
            cubic_form(np.ones(8))

    @pytest.mark.parametrize("length", [8, 10])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_wrong_length_raises_value_error_naming_the_shape(self, name, length):
        with pytest.raises(ValueError, match=rf"got shape \(3, {length}\)"):
            self.CALLS[name](np.ones((3, length)))
        with pytest.raises(ValueError, match=rf"got shape \({length},\)"):
            self.CALLS[name](np.ones(length))

    @pytest.mark.parametrize("shape", [(8, 8), (10, 10), (9, 8), (2, 9, 10), (9,)])
    def test_transform_that_is_not_9x9_raises_value_error_naming_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            transform_momenta(np.ones(shape), np.ones(9))


class TestLagrangian:
    def test_unit_diagonal_velocity(self):
        assert lagrangian(DIAG, kappa=-1.0) == -1.0

    def test_degree_one_homogeneity(self):
        assert lagrangian(2 * DIAG, kappa=-1.0) == -2.0

    def test_matches_determinant_cube_root(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            xdot = random_nonisotropic_velocity(rng)
            det = np.linalg.det(vec_to_matrix(xdot)).real
            assert_allclose(lagrangian(xdot, -1.0), -np.cbrt(det), rtol=1e-12)

    def test_rejects_zero_velocity(self):
        with pytest.raises(IsotropicVelocity):
            lagrangian(np.zeros(9))

    def test_rejects_isotropic_velocity(self):
        e0 = np.zeros(9)
        e0[0] = 1.0  # cubic form vanishes on a single slot-0 velocity
        with pytest.raises(IsotropicVelocity):
            lagrangian(e0)

    def test_rejects_kappa_zero(self):
        with pytest.raises(ValueError):
            lagrangian(DIAG, kappa=0.0)

    @pytest.mark.parametrize("func", [lagrangian, canonical_momenta, canonical_energy])
    def test_rejects_nan_velocity(self, func):
        xdot = np.stack([DIAG, DIAG])
        xdot[1, 4] = np.nan
        with pytest.raises(IsotropicVelocity):
            func(xdot[1])
        with pytest.raises(IsotropicVelocity):
            func(xdot)

    @pytest.mark.parametrize("func", [lagrangian, canonical_momenta, canonical_energy])
    @pytest.mark.parametrize("slot", [0, 4, 8])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])  # NaN: test_rejects_nan_velocity
    def test_infinite_velocity_raises_the_token_before_any_warning(self, func, slot, value):
        xdot = np.stack([DIAG, DIAG, DIAG])
        xdot[1, slot] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IsotropicVelocity, match=re.escape("(1 velocity sample(s))")):
                func(xdot[1])
            with pytest.raises(IsotropicVelocity, match=re.escape("(1 velocity sample(s))")):
                func(xdot)

    def test_non_finite_and_isotropic_rows_are_counted_together(self):
        xdot = np.stack([DIAG] * 4)
        xdot[0, 8] = np.inf
        xdot[2] = np.zeros(9)
        with pytest.raises(IsotropicVelocity, match=re.escape("(2 velocity sample(s))")):
            canonical_momenta(xdot)


class TestCanonicalMomenta:
    def test_diagonal_velocity(self):
        p = canonical_momenta(DIAG, kappa=-1.0)
        expected = np.zeros(9)
        expected[0] = -2.0 / 3.0
        expected[8] = -1.0 / 3.0
        assert_allclose(p, expected, atol=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(500):
            xdot = random_nonisotropic_velocity(rng)
            p = canonical_momenta(xdot, -1.0)
            h = 1e-6 * max(1.0, np.linalg.norm(xdot))
            for a in range(9):
                step = np.zeros(9)
                step[a] = h
                fd = (lagrangian(xdot + step) - lagrangian(xdot - step)) / (2 * h)
                worst = max(worst, abs(fd - p[a]) / (1 + abs(p[a])))
        assert worst < 1e-6

    @pytest.mark.parametrize("c", [0.5, 2.0, 7.0])
    def test_invariant_under_velocity_rescaling(self, c):
        rng = np.random.default_rng(107)
        for _ in range(100):
            xdot = random_nonisotropic_velocity(rng)
            p = canonical_momenta(xdot)
            assert_allclose(canonical_momenta(c * xdot), p,
                            rtol=0, atol=1e-12 * np.abs(p).max())

    def test_matches_hand_expanded_gradient(self):
        rng = np.random.default_rng(191)
        xdot = np.stack([random_nonisotropic_velocity(rng) for _ in range(1000)])
        kappa = -1.5
        f = cubic_form(xdot)
        expected = (kappa / 3.0) * cubic_form_gradient(xdot) / (np.cbrt(f) ** 2)[:, None]
        got = canonical_momenta(xdot, kappa)
        gap = np.abs(got - expected).max(axis=1) / np.abs(expected).max(axis=1)
        assert gap.max() <= 1e-14

    def test_negative_rescaling_also_invariant(self):
        rng = np.random.default_rng(109)
        xdot = random_nonisotropic_velocity(rng)
        assert_allclose(canonical_momenta(-3.0 * xdot), canonical_momenta(xdot),
                        rtol=1e-12)


class TestCanonicalEnergy:
    def test_diagonal_velocity(self):
        assert canonical_energy(DIAG) == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_on_random_velocities(self):
        rng = np.random.default_rng(113)
        for _ in range(500):
            xdot = random_nonisotropic_velocity(rng)
            assert abs(canonical_energy(xdot)) <= 1e-10 * abs(lagrangian(xdot))

    def test_vanishes_after_rescaling(self):
        rng = np.random.default_rng(127)
        xdot = 5.0 * random_nonisotropic_velocity(rng)
        assert abs(canonical_energy(xdot)) <= 1e-10 * abs(lagrangian(xdot))


class TestMomentaMatrix:
    def test_diagonal_momenta(self):
        kappa = -1.0
        p = np.zeros(9)
        p[0], p[8] = 2 * kappa / 3, kappa / 3
        assert_allclose(momenta_matrix(p), (2 * kappa / 3) * np.eye(3))

    def test_first_slot_layout(self):
        p = np.zeros(9)
        p[0] = 1.0
        assert_allclose(momenta_matrix(p), np.diag([1.0, 1.0, 0.0]))

    def test_ninth_slot_is_doubled(self):
        p = np.zeros(9)
        p[8] = 1.0
        assert_allclose(momenta_matrix(p), np.diag([0.0, 0.0, 2.0]))


class TestMatrixIdentity:
    def test_diagonal_velocity_residual_zero(self):
        assert matrix_identity_residual(DIAG) < 1e-15

    def test_residual_small_on_random_velocities(self):
        rng = np.random.default_rng(131)
        for _ in range(1000):
            xdot = random_nonisotropic_velocity(rng)
            p = canonical_momenta(xdot)
            scale = 1.0 + np.linalg.norm(xdot) ** 2 * np.linalg.norm(p)
            assert matrix_identity_residual(xdot) <= 1e-10 * scale

    def test_odd_under_velocity_sign_flip(self):
        rng = np.random.default_rng(137)
        xdot = random_nonisotropic_velocity(rng)
        p = canonical_momenta(xdot)
        scale = 1.0 + np.linalg.norm(xdot) ** 2 * np.linalg.norm(p)
        assert matrix_identity_residual(-xdot) <= 1e-10 * scale


class TestMomentumConstraint:
    def test_diagonal_momenta(self):
        kappa = -1.0
        p = np.zeros(9)
        p[0], p[8] = 2 * kappa / 3, kappa / 3
        assert momentum_constraint_residual(p, kappa) == pytest.approx(0.0, abs=1e-15)

    def test_zero_momenta(self):
        kappa = -1.0
        assert momentum_constraint_residual(np.zeros(9), kappa) == pytest.approx(
            -(2 * kappa / 3) ** 3
        )

    def test_vanishes_on_generated_momenta(self):
        rng = np.random.default_rng(139)
        c3 = abs(2.0 / 3.0) ** 3
        for _ in range(500):
            p = canonical_momenta(unit_speed_velocity(rng))
            assert abs(momentum_constraint_residual(p)) <= 1e-9 * c3


class TestInvertMomenta:
    def test_diagonal_inversion(self):
        kappa = -1.0
        p = np.zeros(9)
        p[0], p[8] = 2 * kappa / 3, kappa / 3
        assert_allclose(invert_momenta(p, kappa), DIAG, atol=1e-15)

    def test_round_trip_and_unit_determinant(self):
        rng = np.random.default_rng(149)
        for _ in range(500):
            v = unit_speed_velocity(rng)
            p = canonical_momenta(v)
            recovered = invert_momenta(p)
            assert np.abs(recovered - v).max() < 1e-9
            det = np.linalg.det(vec_to_matrix(recovered)).real
            assert abs(det - 1.0) < 1e-9
            assert np.abs(canonical_momenta(recovered) - p).max() < 1e-9

    def test_cofactor_path_matches_generic_inverse(self):
        rng = np.random.default_rng(151)
        for _ in range(500):
            p = canonical_momenta(unit_speed_velocity(rng))
            va = invert_momenta(p)
            vmat = (-2.0 / 3.0) * np.linalg.inv(momenta_matrix(p))
            vi = matrix_to_vec(0.5 * (vmat + vmat.conj().T))
            assert np.abs(va - vi).max() <= 1e-11 * np.abs(vi).max()

    def test_scaled_cofactor_matrix_is_hermitian(self):
        # the raw LU velocity matrix c N^-1, before symmetrisation, scaled by
        # its largest entry as the ``inverse_hermiticity`` check does
        rng = np.random.default_rng(157)
        for _ in range(100):
            p = canonical_momenta(unit_speed_velocity(rng))
            raw = (-2.0 / 3.0) * np.linalg.inv(momenta_matrix(p))
            assert np.abs(raw - raw.conj().T).max() <= 1e-12 * np.abs(raw).max()

    def test_rejects_inconsistent_momenta(self):
        with pytest.raises(InconsistentMomenta, match="residual"):
            invert_momenta(np.zeros(9))

    def test_rejects_ill_conditioned_momenta(self):
        # det sits exactly on the constraint (power-of-two scalings keep the
        # arithmetic exact), but the matrix is numerically singular relative
        # to its own norm
        kappa = -1.0
        c = 2 * kappa / 3
        k = 26
        p = np.zeros(9)
        p[4] = -c * 2.0**k                 # antidiagonal corner entries
        p[0] = -c * 4.0 ** (-k) / 2.0      # middle entry via p0 = -p3
        p[3] = -p[0]
        assert abs(momentum_constraint_residual(p, kappa)) < 1e-8 * abs(c) ** 3
        with pytest.raises(SingularMomentumMatrix):
            invert_momenta(p, kappa)

    def test_constraint_pins_each_momentum_direction(self):
        # one scalar relation removes exactly one degree of freedom: any
        # single-component bump off a valid point breaks it
        rng = np.random.default_rng(163)
        kappa = -1.0
        c3 = abs(2 * kappa / 3) ** 3
        p = canonical_momenta(unit_speed_velocity(rng), kappa)
        for a in range(9):
            worst = 0.0
            for sign in (1.0, -1.0):
                q = p.copy()
                q[a] += sign * 1e-3
                worst = max(worst, abs(momentum_constraint_residual(q, kappa)))
            assert worst > 1e-8 * c3
            with pytest.raises(InconsistentMomenta):
                bumped = p.copy()
                bumped[a] += 1e-3
                invert_momenta(bumped, kappa)


class TestStackedMomenta:
    @staticmethod
    def stack(seed, shape=(4, 16)):
        rng = np.random.default_rng(seed)
        v = np.stack([unit_speed_velocity(rng) for _ in range(np.prod(shape))])
        return canonical_momenta(v).reshape(*shape, 9)

    def test_stack_matches_per_row_calls(self):
        p = self.stack(193)
        rows = p.reshape(-1, 9)
        velocities = invert_momenta(p)
        residuals = momentum_constraint_residual(p)
        assert velocities.shape == p.shape and residuals.shape == p.shape[:-1]
        assert_allclose(velocities.reshape(-1, 9),
                        [invert_momenta(r) for r in rows],
                        rtol=1e-12, atol=0)
        assert_allclose(residuals.ravel(),
                        [momentum_constraint_residual(r) for r in rows],
                        rtol=1e-12, atol=0)

    def test_one_bumped_row_rejects_the_stack(self):
        p = self.stack(197, shape=(32,))
        p[11, 3] += 1e-3
        with pytest.raises(InconsistentMomenta) as single:
            invert_momenta(p[11])
        with pytest.raises(InconsistentMomenta) as stacked:
            invert_momenta(p)
        assert str(stacked.value) == str(single.value)

    def test_single_vector_results_keep_their_types_and_messages(self):
        p = self.stack(199, shape=(1,))[0]
        assert type(momentum_constraint_residual(p)) is float
        assert invert_momenta(p).shape == (9,)
        with pytest.raises(InconsistentMomenta) as zero:
            invert_momenta(np.zeros(9))
        assert str(zero.value) == "residual 2.962963e-01 exceeds 2.963e-09"


class TestMomentumCovariance:
    def test_inversion_commutes_with_the_group(self):
        rng = np.random.default_rng(167)
        for _ in range(200):
            p = canonical_momenta(unit_speed_velocity(rng))
            ell = group_action(random_unimodular(rng))
            direct = invert_momenta(transform_momenta(ell, p))
            carried = ell @ invert_momenta(p)
            assert np.abs(direct - carried).max() <= 1e-8 * np.abs(carried).max()

    def test_pairing_is_preserved(self):
        rng = np.random.default_rng(173)
        p = canonical_momenta(unit_speed_velocity(rng))
        x = rng.uniform(-1, 1, size=9)
        ell = group_action(random_unimodular(rng))
        assert transform_momenta(ell, p) @ (ell @ x) == pytest.approx(p @ x)


class TestGeneralSolution:
    def test_initial_point(self):
        x0 = np.arange(9.0)
        assert_allclose(general_solution(x0, DIAG, 0.0), x0)

    def test_straight_line_values(self):
        assert_allclose(general_solution(np.zeros(9), DIAG, 2.0), 2 * DIAG)

    def test_displacement_cubic_form_is_s_cubed(self):
        rng = np.random.default_rng(179)
        x0 = rng.uniform(-1, 1, size=9)
        v0 = unit_speed_velocity(rng)
        for s in (-1.5, 0.25, 3.0):
            assert cubic_form(general_solution(x0, v0, s) - x0) == pytest.approx(
                s**3, rel=1e-9, abs=1e-12
            )

    def test_rejects_non_unit_speed(self):
        with pytest.raises(NotUnitSpeed):
            general_solution(np.zeros(9), 2 * DIAG, 1.0)
        with pytest.raises(NotUnitSpeed):
            Trajectory(np.zeros(9), 2 * DIAG)

    @pytest.mark.parametrize("v0", [np.append(DIAG, 0.0), DIAG[:8], np.stack([DIAG, DIAG])],
                             ids=["ten", "eight", "stack"])
    def test_rejects_a_velocity_that_is_not_one_9_vector(self, v0):
        with pytest.raises(ValueError, match="9-vector"):
            Trajectory(np.zeros(9), v0)

    def test_trajectory_accepts_negative_final_arc_length(self):
        traj = Trajectory(np.zeros(9), DIAG, s_range=(0.0, -2.0))
        s, points = traj.sample(5)
        assert s[-1] == -2.0
        assert_allclose(points[-1], -2.0 * DIAG)

    @pytest.mark.parametrize("n", [-1, 2.5, np.float64(3.0), "3", None])
    def test_sample_refuses_an_n_that_is_not_a_non_negative_integer(self, n):
        traj = Trajectory(np.zeros(9), DIAG)
        message = f"n must be a non-negative integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            traj.sample(n)
        s, points = traj.sample(np.int64(0))
        assert s.shape == (0,) and points.shape == (0, 9)

    def test_trajectory_range_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(9), DIAG, s_range=(0.5, 1.0))

    @pytest.mark.parametrize("end", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_trajectory_range_must_end_at_a_finite_value(self, end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite value"):
                Trajectory(np.zeros(9), DIAG, s_range=(0.0, end))

    def test_unbroadcastable_arc_lengths_name_both_shapes(self):
        with pytest.raises(ValueError, match=r"shape \(5,\) and initial points of shape \(2, 9\)"):
            Trajectory(np.zeros((2, 9)), DIAG).sample(5)
        with pytest.raises(ValueError, match=r"shape \(4,\) and initial points of shape \(3, 9\)"):
            general_solution(np.zeros((3, 9)), DIAG, np.zeros(4))

    @pytest.mark.parametrize("x0, s", [
        (np.zeros(9), np.nan),
        (np.zeros(9), np.inf),  # inf times a zero component of the velocity is NaN
        (np.full(9, np.nan), 0.0),
        (np.full(9, 1e308), 1e308),
    ], ids=["nan_s", "inf_s", "nan_x0", "overflow"])
    def test_a_point_beyond_the_float_range_raises_non_real_entry(self, x0, s):
        message = "^the world line is beyond the float range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonRealEntry, match=message):
                general_solution(x0, DIAG, s)
            with pytest.raises(NonRealEntry, match=message):
                Trajectory(np.stack([np.zeros(9), x0]), DIAG).at(s)

    def test_equals_the_trajectory_evaluation_bit_for_bit_on_stacked_points(self):
        rng = np.random.default_rng(619)
        x0 = rng.uniform(-1, 1, size=(4, 3, 9))
        v0 = unit_speed_velocity(rng)
        for s in (-1.5, 0.0, -0.0, 2.75, 1e-300, rng.uniform(-2, 2, size=(4, 3))):
            assert same_bits(general_solution(x0, v0, s), Trajectory(x0, v0).at(s))


class TestArcLength:
    def test_unit_speed_line(self):
        tau = np.linspace(0.0, 2.0, 401)
        s = arc_length(tau, np.zeros(9) + tau[:, None] * DIAG)
        assert_allclose(s, tau, atol=1e-10)

    def test_speed_scales_linearly(self):
        tau = np.linspace(0.0, 1.0, 401)
        s = arc_length(tau, tau[:, None] * (2.0 * DIAG))
        assert_allclose(s, 2.0 * tau, atol=1e-10)

    def test_reparametrized_line_recovers_sigma(self):
        def sigma(t):
            return t**3 + t

        def worst_error(n):
            tau = np.linspace(0.0, 1.0, n)
            s = arc_length(tau, sigma(tau)[:, None] * DIAG)
            return np.abs(s - sigma(tau)).max()

        coarse, fine = worst_error(201), worst_error(401)
        assert fine < 1e-4
        assert coarse / fine > 3.0  # second-order convergence

    def test_too_few_samples(self):
        with pytest.raises(DegeneratePath):
            arc_length([0.0, 1.0], np.array([np.zeros(9), DIAG]))

    def test_isotropic_sample_rejected(self):
        tau = np.linspace(0.0, 1.0, 11)
        positions = tau[:, None] * np.concatenate([[1.0], np.zeros(8)])
        with pytest.raises(IsotropicVelocity):
            arc_length(tau, positions)

    def test_scalar_tau_is_degenerate(self):
        with pytest.raises(DegeneratePath):
            arc_length(0.5, DIAG)


class TestReparametrize:
    def test_identity_map(self):
        traj = Trajectory(np.zeros(9), DIAG)
        tau = np.linspace(0.0, 1.0, 11)
        _, points = reparametrize(traj, lambda t: t, tau)
        assert_allclose(points, tau[:, None] * DIAG)

    def test_momenta_constant_along_reparametrized_curve(self):
        rng = np.random.default_rng(181)
        traj = Trajectory(rng.uniform(-1, 1, size=9), unit_speed_velocity(rng),
                          s_range=(0.0, 2.0))
        tau = np.linspace(0.0, 1.0, 501)
        _, points = reparametrize(traj, lambda t: t**3 + t, tau)
        velocities = np.gradient(points, tau, axis=0)
        expected = canonical_momenta(traj.v0)
        momenta = canonical_momenta(velocities)
        assert np.abs(momenta - expected).max() < 1e-8

    def test_rejects_flat_segment(self):
        traj = Trajectory(np.zeros(9), DIAG)
        tau = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NonMonotone):
            reparametrize(traj, lambda t: np.minimum(t, 0.5), tau)

    def test_rejects_sign_change(self):
        traj = Trajectory(np.zeros(9), DIAG)
        tau = np.linspace(0.0, 1.0, 51)
        with pytest.raises(NonMonotone):
            reparametrize(traj, lambda t: np.sin(3.0 * t), tau)

    def test_must_start_at_zero(self):
        traj = Trajectory(np.zeros(9), DIAG)
        tau = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            reparametrize(traj, lambda t: t + 1.0, tau)

    def test_single_sample_is_degenerate(self):
        traj = Trajectory(np.zeros(9), DIAG)
        with pytest.raises(DegeneratePath):
            reparametrize(traj, lambda t: t, np.zeros(1))

    def test_samples_not_aligned_with_tau_are_refused(self):
        traj = Trajectory(np.zeros(9), DIAG)
        with pytest.raises(ValueError, match="s samples must align with tau samples"):
            reparametrize(traj, np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 11))


def interior_bump(slot, lo=0.3, hi=0.7):
    def eta(t):
        out = np.zeros(9)
        z = (t - lo) / (hi - lo)
        if 0.0 < z < 1.0:
            out[slot] = np.exp(-1.0 / (z * (1.0 - z)))
        return out

    return eta


class TestActionStationarity:
    def test_zero_perturbation_changes_nothing(self):
        traj = Trajectory(np.zeros(9), DIAG)
        tau = np.linspace(0.0, 1.0, 201)
        base = traj.at(tau)
        s0 = discrete_action(tau, base)
        for eps in (1e-2, 1e-3):
            assert discrete_action(tau, base + eps * np.zeros((201, 9))) == s0

    def test_stacked_curves_match_per_curve_calls(self):
        tau = np.linspace(0.0, 1.0, 201)
        bump = np.stack([interior_bump(4)(t) for t in tau])
        curves = (Trajectory(np.zeros(9), DIAG).at(tau)
                  + np.geomspace(1e-2, 1e-4, 6)[:, None, None, None] * bump
                  * np.array([1.0, -1.0])[:, None, None])
        actions = discrete_action(tau, curves)
        assert actions.shape == (6, 2)
        assert np.array_equal(actions.ravel(),
                              [discrete_action(tau, c) for c in curves.reshape(-1, 201, 9)])
        assert type(discrete_action(tau, curves[0, 0])) is float

    def test_slope_equals_the_per_amplitude_fit(self):
        traj = Trajectory(np.zeros(9), DIAG)
        amplitudes = np.geomspace(1e-2, 1e-4, 5)
        tau = np.linspace(0.0, 1.0, 201)
        base = traj.at(tau)
        bump = np.stack([interior_bump(6)(t) for t in tau])
        s0 = discrete_action(tau, base)
        gaps = [abs(discrete_action(tau, base + e * bump) - s0) for e in amplitudes]
        expected = np.polyfit(np.log(amplitudes), np.log(gaps), 1)[0]
        assert action_stationarity_check(traj, bump, amplitudes) == expected

    @pytest.mark.parametrize("slot", [0, 1, 4, 6, 8])
    def test_quadratic_scaling_in_every_slot(self, slot):
        traj = Trajectory(np.zeros(9), DIAG)
        slope = action_stationarity_check(
            traj, interior_bump(slot), np.geomspace(1e-2, 1e-4, 7)
        )
        assert abs(slope - 2.0) < 0.1

    def test_slope_unchanged_by_kappa_rescaling(self):
        traj = Trajectory(np.zeros(9), DIAG)
        amplitudes = np.geomspace(1e-2, 1e-4, 5)
        s1 = action_stationarity_check(traj, interior_bump(1), amplitudes, kappa=-1.0)
        s2 = action_stationarity_check(traj, interior_bump(1), amplitudes, kappa=-2.0)
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_huge_amplitude_crosses_the_cone(self):
        # a tent in slot 8 at unit amplitude cancels the velocity's ninth
        # component exactly on half the grid, parking the curve on the cone
        def tent(t):
            out = np.zeros(9)
            out[8] = min(t, 1.0 - t)
            return out

        traj = Trajectory(np.zeros(9), DIAG)
        with pytest.raises(IsotropicVelocity):
            action_stationarity_check(traj, tent, [1.0, 0.5])

    def test_rejects_non_vanishing_endpoints(self):
        traj = Trajectory(np.zeros(9), DIAG)
        with pytest.raises(ValueError):
            action_stationarity_check(traj, lambda t: np.ones(9), [1e-2, 1e-3])

    def test_rejects_coarse_grid(self):
        traj = Trajectory(np.zeros(9), DIAG)
        with pytest.raises(ValueError):
            action_stationarity_check(traj, interior_bump(1), [1e-2, 1e-3],
                                      samples=50)

    @pytest.mark.parametrize("amplitudes", [[1e-2], [1e-2, 0.0], [1e-2, -1e-3]])
    def test_needs_two_positive_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="at least two positive amplitudes"):
            action_stationarity_check(Trajectory(np.zeros(9), DIAG), interior_bump(1),
                                      amplitudes)

    def test_an_all_zero_bump_changes_no_action_and_is_refused(self):
        with pytest.raises(ValueError, match="produced no action change"):
            action_stationarity_check(Trajectory(np.zeros(9), DIAG), np.zeros((201, 9)),
                                      [1e-2, 1e-3])

    @staticmethod
    def bumps(slots, scales):
        tau = np.linspace(0.0, 1.0, 201)
        return np.stack([k * np.stack([interior_bump(slot)(t) for t in tau])
                         for slot, k in zip(slots, scales)])

    def test_a_stack_of_bumps_gives_the_per_bump_slopes_bit_for_bit(self):
        traj = Trajectory(np.zeros(9), DIAG)
        amplitudes = np.geomspace(1e-2, 1e-4, 5)
        bumps = self.bumps([0, 1, 4, 6, 8], [1.0] * 5)
        slopes = action_stationarity_check(traj, bumps, amplitudes)
        assert same_bits(slopes, [action_stationarity_check(traj, b, amplitudes) for b in bumps])

    def test_a_grid_of_bumps_gives_a_grid_of_slopes(self):
        traj = Trajectory(np.zeros(9), DIAG)
        amplitudes = np.geomspace(1e-2, 1e-4, 9)  # a 2-d polyfit moves bits from 8 up
        bumps = self.bumps([0, 3, 5, 7, 8, 2], [1.0, 0.5, 2.0, 1.0, 0.3, 1.5])
        bumps = bumps.reshape(2, 3, 201, 9)
        slopes = action_stationarity_check(traj, bumps, amplitudes)
        assert slopes.shape == (2, 3)
        assert same_bits(slopes.ravel(), [action_stationarity_check(traj, b, amplitudes)
                                          for b in bumps.reshape(-1, 201, 9)])
        assert np.all(np.abs(slopes - 2.0) < 0.1)

    def test_one_bump_or_a_callable_gives_a_float(self):
        traj = Trajectory(np.zeros(9), DIAG)
        amplitudes = np.geomspace(1e-2, 1e-4, 5)
        assert type(action_stationarity_check(traj, interior_bump(4), amplitudes)) is float
        bump = self.bumps([4], [1.0])[0]
        assert type(action_stationarity_check(traj, bump, amplitudes)) is float

    @pytest.mark.parametrize("end", [0, -1])
    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_the_endpoint_guard_fires_for_any_bump_in_a_stack(self, index, end):
        bumps = self.bumps([0, 1, 4, 6, 8], [1.0] * 5)
        bumps[index, end, 3] = 1e-6
        with pytest.raises(ValueError, match="vanish at both endpoints"):
            action_stationarity_check(Trajectory(np.zeros(9), DIAG), bumps, [1e-2, 1e-3])

    def test_a_stack_on_another_grid_is_refused(self):
        with pytest.raises(ValueError, match=re.escape("(..., samples, 9)")):
            action_stationarity_check(Trajectory(np.zeros(9), DIAG), np.zeros((5, 200, 9)),
                                      [1e-2, 1e-3])


def nonisotropic_loop(rng, margin=1e-3, scale=1.0):
    """The one-at-a-time rejection loop ``random_nonisotropic_velocity`` replaced."""
    while True:
        xdot = rng.uniform(-scale, scale, size=9)
        if abs(cubic_form(xdot)) >= margin * np.linalg.norm(xdot) ** 3:
            return xdot


def unit_speed_loop(rng, margin=1e-3):
    """The per-draw ``unit_speed_velocity`` the block sampler replaced."""
    xdot = nonisotropic_loop(rng, margin)
    return xdot / np.cbrt(cubic_form(xdot))


class TestVelocitySamplers:
    # a margin of 0.05 rejects about half of the draws, so redraws are exercised
    @pytest.mark.parametrize("margin", [1e-3, 0.05])
    def test_single_draws_match_the_loops_bit_for_bit(self, margin):
        rng, oracle = np.random.default_rng(401), np.random.default_rng(401)
        for _ in range(300):
            assert np.array_equal(random_nonisotropic_velocity(rng, margin, scale=3.0),
                                  nonisotropic_loop(oracle, margin, scale=3.0))
            assert np.array_equal(unit_speed_velocity(rng, margin),
                                  unit_speed_loop(oracle, margin))
        assert rng.random() == oracle.random()  # same generator state afterwards

    @pytest.mark.parametrize("margin", [1e-3, 0.05])
    def test_sized_draws_meet_the_margin(self, margin):
        x = random_nonisotropic_velocity(np.random.default_rng(409), margin, size=500)
        assert x.shape == (500, 9)
        assert np.all(np.abs(cubic_form(x)) >= margin * np.linalg.norm(x, axis=-1) ** 3)

    def test_sized_unit_speed_draws_have_unit_determinant(self):
        v = unit_speed_velocity(np.random.default_rng(419), size=(20, 25))
        assert v.shape == (20, 25, 9)
        assert np.abs(np.linalg.det(vec_to_matrix(v)).real - 1.0).max() < 1e-12

    def test_zero_size_draws_nothing(self):
        rng = np.random.default_rng(421)
        assert random_nonisotropic_velocity(rng, size=0).shape == (0, 9)
        assert rng.random() == np.random.default_rng(421).random()


class TestStackedMechanics:
    def test_matrix_identity_residual_matches_per_row_calls(self):
        xdot = random_nonisotropic_velocity(np.random.default_rng(431), size=(5, 12))
        residuals = matrix_identity_residual(xdot)
        assert residuals.shape == (5, 12)
        assert_allclose(residuals.ravel(),
                        [matrix_identity_residual(x) for x in xdot.reshape(-1, 9)],
                        rtol=1e-12, atol=1e-16)
        assert type(matrix_identity_residual(xdot[0, 0])) is float

    def test_transform_momenta_matches_per_row_calls(self):
        rng = np.random.default_rng(433)
        p = canonical_momenta(unit_speed_velocity(rng, size=30))
        ell = group_action(random_unimodular(rng, size=30))
        moved = transform_momenta(ell, p)
        assert moved.shape == (30, 9)
        assert_allclose(moved, [transform_momenta(e, q) for e, q in zip(ell, p)],
                        rtol=1e-12, atol=1e-15)
        # one transform broadcasts over a stack of momenta
        assert_allclose(transform_momenta(ell[0], p),
                        [transform_momenta(ell[0], q) for q in p], rtol=1e-12, atol=1e-15)

    def test_single_transform_is_unchanged(self):
        rng = np.random.default_rng(439)
        p = canonical_momenta(unit_speed_velocity(rng))
        ell = group_action(random_unimodular(rng))
        assert np.array_equal(transform_momenta(ell, p), np.linalg.solve(ell.T, p))

    def test_nan_row_raises_inconsistent_momenta(self):
        p = canonical_momenta(unit_speed_velocity(np.random.default_rng(443), size=3))
        p[1, 4] = np.nan
        with pytest.raises(InconsistentMomenta):
            invert_momenta(p)


def same_bits(a, b):
    """Equal shapes and equal bits, so that -0 differs from +0 and NaN equals NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.reshape(-1).view(np.int64),
                                                 b.reshape(-1).view(np.int64))


def exact_momentum_det(p):
    """``det N`` of one momentum row in exact rational arithmetic.

    The entries of ``N = sum_a p_a LAMBDA_DUAL[a]`` are formed as pairs of
    Fractions (real, imaginary), so no entry rounds, and the determinant is
    the Leibniz sum over the six permutations.
    """
    coeffs = [Fraction(x) for x in p]
    n = [[(sum(coeffs[a] * int(LAMBDA_DUAL[a, i, j].real) for a in range(9)),
           sum(coeffs[a] * int(LAMBDA_DUAL[a, i, j].imag) for a in range(9)))
          for j in range(3)] for i in range(3)]

    def times(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    total = Fraction(0)
    for perm in itertools.permutations(range(3)):
        sign = np.linalg.det(np.eye(3)[list(perm)])
        term = times(times(n[0][perm[0]], n[1][perm[1]]), n[2][perm[2]])
        total += int(round(sign)) * term[0]
    return total


def near_cone_velocities(rng, n, low=2e-9, high=1e-3):
    """Unit-speed velocities with ``|f| / |x|^3`` spread from ``low`` to ``high``.

    The cubic form is affine in ``x8``, so solving for ``x8`` places a draw at
    a chosen distance from the isotropic cone before it is rescaled.
    """
    x = rng.uniform(-1.0, 1.0, size=(n, 9))
    x[:, 8] = 0.0
    rest = cubic_form(x)
    slope = x[:, 0] ** 2 - x[:, 1] ** 2 - x[:, 2] ** 2 - x[:, 3] ** 2
    target = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(np.log10(low), np.log10(high), n)
    x[:, 8] = (target * np.linalg.norm(x, axis=1) ** 3 - rest) / slope
    ratio = np.abs(cubic_form(x)) / np.linalg.norm(x, axis=1) ** 3
    x = x[(ratio >= 1.1e-9) & (np.abs(slope) > 1e-2)]
    return x / np.cbrt(cubic_form(x))[:, None]


class TestConstraintInRealArithmetic:
    """``det N`` from ``G``'s 16 monomials, compensated where its bound asks."""

    KAPPA = -1.0
    C3 = (2.0 * KAPPA / 3.0) ** 3

    @staticmethod
    def sample(seed=601):
        """About 300 momenta: unit-speed, near the cone, and group-transformed."""
        rng = np.random.default_rng(seed)
        unit = canonical_momenta(unit_speed_velocity(rng, size=100))
        near = canonical_momenta(near_cone_velocities(rng, 110)[:100])
        ell = group_action(random_unimodular(rng, size=100))
        moved = transform_momenta(ell, canonical_momenta(unit_speed_velocity(rng, size=100)))
        return np.concatenate([unit, near, moved])

    @staticmethod
    def plain_bound(p):
        """``gamma_8 S``, the error bound of the plain sum."""
        a, b, c, w = (t[:, 0] for t in _DET_TERMS)
        size = np.abs(w[:, 0] * p[:, a] * p[:, b] * p[:, c]).sum(axis=1)
        assert size.shape == p.shape[:-1]  # an (n, 1) S would broadcast the bound to (n, n)
        return _GAMMA * size

    def test_sample_reaches_the_cone_and_both_sides_of_the_gate(self):
        rng = np.random.default_rng(601)
        v = near_cone_velocities(rng, 2000)
        ratio = np.abs(cubic_form(v)) / np.linalg.norm(v, axis=1) ** 3
        assert ratio.min() < 1e-8 and ratio.max() > 1e-4
        redo = self.plain_bound(self.sample()) > _PLAIN_DET_TOL * abs(self.C3)
        assert 20 <= np.count_nonzero(redo) <= 280

    def test_every_row_is_within_the_documented_bound_and_beats_lu(self):
        p = self.sample()
        exact = [exact_momentum_det(row) - Fraction(self.C3) for row in p]
        got = momentum_constraint_residual(p, self.KAPPA)
        lu = np.linalg.det(momenta_matrix(p)).real - self.C3
        err = np.array([abs(float(Fraction(r) - e)) for r, e in zip(got.tolist(), exact)])
        lu_err = np.array([abs(float(Fraction(r) - e)) for r, e in zip(lu.tolist(), exact)])
        u = 2.0**-53
        det = np.abs(got + self.C3)
        size = self.plain_bound(p) / _GAMMA
        # the plain rows are within tau, the others within u |det| + gamma^2 S;
        # u |residual| more covers the subtraction of c^3
        bound = (np.maximum(_PLAIN_DET_TOL * abs(self.C3), u * det + _GAMMA**2 * size)
                 + u * np.abs(got))
        assert np.all(err <= bound)
        assert err.max() <= lu_err.max()

    def test_calls_no_lapack_and_builds_no_complex_matrix(self, monkeypatch):
        p = self.sample()
        expected = momentum_constraint_residual(p)

        def refuse(*args, **kwargs):
            raise AssertionError("the constraint must not reach this routine")

        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(finsler9.dynamics, "momenta_matrix", refuse)
        monkeypatch.setattr(finsler9.dynamics, "_basis_matrix", refuse)
        assert same_bits(momentum_constraint_residual(p), expected)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n=st.sampled_from([1, 5, 511, 512, 513, 2500]),
           seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
    def test_stack_equals_per_row_calls(self, n, seed, share):
        rng = np.random.default_rng(seed)
        p = canonical_momenta(unit_speed_velocity(rng, size=n))
        near = rng.random(n) < share
        far = canonical_momenta(near_cone_velocities(rng, 3 * n + 10))
        p[near] = far[:np.count_nonzero(near)]
        got = momentum_constraint_residual(p)
        assert same_bits(got, [momentum_constraint_residual(row) for row in p])
        redo = self.plain_bound(p) > _PLAIN_DET_TOL * abs(self.C3)
        if n >= 511 and 0.01 < share < 0.99:  # both sides of the gate are exercised
            assert redo.any() and not redo.all()

    OVERFLOWING = {
        "1e110": lambda p: 1e110 * p,
        "1e300": lambda p: 1e300 * p,
        "nan": lambda p: np.where(np.arange(9) == 4, np.nan, p),
        "inf": lambda p: np.where(np.arange(9) == 0, np.inf, p),
    }

    @pytest.mark.parametrize("name", sorted(OVERFLOWING))
    def test_non_finite_determinants_raise_the_token_without_warnings(self, name):
        p = canonical_momenta(unit_speed_velocity(np.random.default_rng(607), size=5))
        p[2] = self.OVERFLOWING[name](p[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(momentum_constraint_residual(p[2]))
            for momenta in (p[2], p):
                with pytest.raises(InconsistentMomenta, match="residual nan exceeds"):
                    invert_momenta(momenta)
            residuals = momentum_constraint_residual(p)
        assert np.isnan(residuals[2]) and np.isfinite(np.delete(residuals, 2)).all()


class TestCanonicalMomentaBits:
    def test_stack_equals_per_row_calls_bit_for_bit(self):
        # cubic forms of both signs and away from 1, where a one-vector
        # ``cbrt(f) ** 2`` used to round apart from the stack's
        v = random_nonisotropic_velocity(np.random.default_rng(613), size=3000)
        stacked = canonical_momenta(v)
        assert same_bits(stacked, [canonical_momenta(row) for row in v])


class TestDiscreteActionSamples:
    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples_raise_degenerate_path(self, samples):
        tau = np.linspace(0.0, 1.0, samples)
        with pytest.raises(DegeneratePath, match="at least 2 samples"):
            discrete_action(tau, np.zeros((samples, 9)))

    def test_stacked_curve_of_one_sample_raises_degenerate_path(self):
        with pytest.raises(DegeneratePath, match=re.escape("got shape (1,)")):
            discrete_action(np.zeros(1), np.ones((3, 1, 9)))

    def test_two_samples_still_give_an_action(self):
        tau = np.array([0.0, 1.0])
        positions = np.stack([np.zeros(9), DIAG])
        assert discrete_action(tau, positions) == pytest.approx(-1.0)


def _rest_actions(tau, samples=None):
    """``reduced_action_check`` of a particle at rest, at ``samples`` samples (default: tau's)."""
    shape = np.shape(tau) if samples is None else (samples,)
    rest = np.broadcast_to([1.0, 0.0, 0.0, 0.0], shape + (4,))
    return reduced_action_check(tau, rest, np.zeros(shape + (4,)), 1.0, 1.0)


class TestGridGuard:
    """The functions of a sampled curve share one grid rule and one grid message."""

    CALLS = {
        "arc_length": (3, lambda tau: arc_length(tau, np.zeros(np.shape(tau) + (9,)))),
        "reparametrize": (2, lambda tau: reparametrize(Trajectory(np.zeros(9), DIAG),
                                                       np.zeros(np.shape(tau)), tau)),
        "discrete_action": (2, lambda tau: discrete_action(tau, np.zeros(np.shape(tau) + (9,)))),
        "reduced_action_check": (2, _rest_actions),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_a_non_finite_sample_raises_degenerate_path(self, name, bad):
        k, call = self.CALLS[name]
        tau = np.linspace(0.0, 1.0, k + 2)
        tau[1] = bad
        with pytest.raises(DegeneratePath, match=f"^need a finite grid, got {bad}$"):
            call(tau)

    @pytest.mark.parametrize("name, call", [
        ("arc_length", lambda tau, n: arc_length(tau, np.zeros((n, 9)) + DIAG)),
        ("discrete_action", lambda tau, n: discrete_action(tau, np.zeros((2, n, 9)) + DIAG)),
        ("reduced_action_check", lambda tau, n: _rest_actions(tau, n)),
    ])
    @pytest.mark.parametrize("samples", [4, 6])
    def test_a_grid_of_another_length_names_both_shapes(self, name, call, samples):
        curve = {"arc_length": (samples, 9), "discrete_action": (2, samples, 9),
                 "reduced_action_check": (samples, 4)}[name]
        with pytest.raises(ValueError, match=re.escape(
                f"a grid of shape (5,) does not align with the samples of a curve of shape "
                f"{curve}")):
            call(np.linspace(0.0, 1.0, 5), samples)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_short_scalar_and_2d_grids_raise_one_message(self, name):
        k, call = self.CALLS[name]
        for tau in (np.linspace(0.0, 1.0, k - 1), np.zeros(0), 0.5, np.zeros((k, 2))):
            shape = np.shape(tau)
            with pytest.raises(DegeneratePath, match=re.escape(
                    f"need a 1-d grid of at least {k} samples, got shape {shape}")):
                call(tau)


class TestSingularTransform:
    """A transform that cannot carry momenta raises a token, with no numpy warning."""

    BAD = {
        "zero": lambda t: np.zeros((9, 9)),
        "rank_8": lambda t: t @ np.diag([1.0] * 8 + [0.0]),
        "nan": lambda t: np.where(np.eye(9, dtype=bool), np.nan, t),
        "inf": lambda t: np.where(np.arange(81).reshape(9, 9) == 40, np.inf, t),
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_one_transform_or_a_stack_raises_the_token(self, name):
        rng = np.random.default_rng(613)
        p = canonical_momenta(unit_speed_velocity(rng, size=4))
        ell = group_action(random_unimodular(rng, size=4))
        ell[2] = self.BAD[name](ell[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for transform, momenta in ((ell[2], p[2]), (ell, p), (ell[2], p)):
                with pytest.raises(SingularMomentumMatrix, match="singular or not finite"):
                    transform_momenta(transform, momenta)
            moved = transform_momenta(np.delete(ell, 2, axis=0), np.delete(p, 2, axis=0))
        assert np.isfinite(moved).all()

    def test_a_tiny_pivot_that_overflows_the_momenta_raises_the_token(self):
        tiny = np.eye(9)
        tiny[0, 0] = 1e-310  # finite and nonsingular, but p[0] / 1e-310 overflows
        p = canonical_momenta(unit_speed_velocity(np.random.default_rng(617), size=3))
        assert np.all(np.abs(p[:, 0]) > 1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = np.stack([np.eye(9), tiny, np.eye(9)])
            for transform, momenta in ((tiny, p[1]), (stack, p), (tiny, p)):
                with pytest.raises(SingularMomentumMatrix, match="singular or not finite"):
                    transform_momenta(transform, momenta)
            assert np.array_equal(transform_momenta(np.eye(9), p), p)


class TestAdmissionCube:
    """The ``|x|^3`` of the admission verdicts has the same bits for one row and a stack."""

    def test_one_row_and_a_stack_compute_the_same_bits(self):
        rng = np.random.default_rng(1021)
        x = rng.uniform(-1, 1, size=(20_000, 9)) * 10.0 ** rng.uniform(-3, 3, size=(20_000, 1))
        stacked = _cubed_norm(x)
        assert same_bits(np.array([_cubed_norm(row) for row in x]), stacked)
        assert same_bits(np.concatenate([_cubed_norm(x[i:i + 1]) for i in range(len(x))]), stacked)
        assert same_bits(_cubed_norm(x.reshape(200, 100, 9)).ravel(), stacked)

    def test_every_admission_uses_it(self, monkeypatch):
        shapes = []

        def spy(x):
            shapes.append(np.shape(x))
            return _cubed_norm(x)

        monkeypatch.setattr(finsler9.dynamics, "_cubed_norm", spy)
        v = random_nonisotropic_velocity(np.random.default_rng(1022), size=3)
        invert_momenta(canonical_momenta(v / np.cbrt(cubic_form(v))[:, None]))
        assert shapes == [(3, 9), (3, 9), (3, 9)]  # sampler, forward map, inverse map


class TestKappaRange:
    """One rule for kappa: ``2^-300 <= |kappa| <= 2^300``, in every map that takes it."""

    LOW, HIGH = _KAPPA_RANGE
    OUTSIDE = [np.nextafter(LOW, 0.0), np.nextafter(HIGH, np.inf), 1e-120, 1e300,
               0.0, np.inf, np.nan]
    INSIDE = [LOW, HIGH]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kappa", OUTSIDE)
    @pytest.mark.parametrize("func", [lagrangian, canonical_momenta, canonical_energy,
                                      matrix_identity_residual])
    def test_forward_maps_refuse_kappa_outside(self, func, kappa, sign):
        with pytest.raises(ValueError, match="^kappa must be nonzero"):
            func(DIAG, sign * kappa)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kappa", OUTSIDE)
    @pytest.mark.parametrize("func", [momentum_constraint_residual, invert_momenta])
    def test_inverse_maps_refuse_kappa_outside(self, func, kappa, sign):
        p = np.array([-2 / 3, 0, 0, 0, 0, 0, 0, 0, -1 / 3])
        with pytest.raises(ValueError, match="^kappa must be nonzero"):
            func(p, sign * kappa)

    def test_overflowing_and_vacuous_examples_are_refused(self):
        # c^3 overflowed (a bare OverflowError) or underflowed to 0 (admitting anything)
        with pytest.raises(ValueError):
            momentum_constraint_residual(np.ones(9), kappa=1e300)
        with pytest.raises(ValueError):
            invert_momenta(np.random.default_rng(5).uniform(-1, 1, 9) * 1e-120, kappa=1e-120)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kappa", INSIDE)
    def test_round_trip_holds_just_inside_each_end(self, kappa, sign):
        # within the inversion_round_trip check's tolerance
        v = unit_speed_velocity(np.random.default_rng(1103), size=500)
        p = canonical_momenta(v, sign * kappa)
        assert np.abs(invert_momenta(p, sign * kappa) - v).max() <= 1e-9
        c3 = abs(2 * kappa / 3) ** 3
        assert np.abs(momentum_constraint_residual(p, sign * kappa)).max() <= 1e-9 * c3
