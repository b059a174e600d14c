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
    InconsistentMomenta,
    Trajectory,
    action_stationarity_check,
    arc_length,
    canonical_energy,
    canonical_momenta,
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
    reparametrize,
    transform_momenta,
    unit_speed_velocity,
    vec_to_matrix,
)
from finsler9.dynamics import _DET_TERMS, _GAMMA, _PLAIN_DET_TOL, _cubed_norm
from finsler9.geometry import G, _KAPPA_RANGE, _cubic_gradient, matrix_to_vec, metric_coefficients

from contract import same_bits

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

    def test_gradient_refuses_a_vector_that_is_not_9_long(self):
        with pytest.raises(ValueError, match=re.escape("expected shape (..., 9), got shape (3, 8)")):
            _cubic_gradient(np.ones((3, 8)))

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


class TestCanonicalMomenta:
    def test_diagonal_velocity(self):
        p = canonical_momenta(DIAG, kappa=-1.0)
        expected = np.zeros(9)
        expected[0] = -2.0 / 3.0
        expected[8] = -1.0 / 3.0
        assert_allclose(p, expected, atol=1e-15)

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

    def test_trajectory_accepts_negative_final_arc_length(self):
        traj = Trajectory(np.zeros(9), DIAG, s_range=(0.0, -2.0))
        s, points = traj.sample(5)
        assert s[-1] == -2.0
        assert_allclose(points[-1], -2.0 * DIAG)
        s, points = traj.sample(np.int64(0))  # a numpy count
        assert s.shape == (0,) and points.shape == (0, 9)

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

    @staticmethod
    def bumps(slots, scales):
        tau = np.linspace(0.0, 1.0, 201)
        return np.stack([k * np.stack([interior_bump(slot)(t) for t in tau])
                         for slot, k in zip(slots, scales)])

    def test_a_grid_of_bumps_gives_a_grid_of_slopes(self):
        traj = Trajectory(np.zeros(9), DIAG)
        bumps = self.bumps([0, 3, 5, 7, 8, 2], [1.0, 0.5, 2.0, 1.0, 0.3, 1.5])
        slopes = action_stationarity_check(traj, bumps.reshape(2, 3, 201, 9),
                                           np.geomspace(1e-2, 1e-4, 9))
        assert slopes.shape == (2, 3)
        assert np.all(np.abs(slopes - 2.0) < 0.1)

    def test_one_bump_or_a_callable_gives_a_float(self):
        traj = Trajectory(np.zeros(9), DIAG)
        amplitudes = np.geomspace(1e-2, 1e-4, 5)
        assert type(action_stationarity_check(traj, interior_bump(4), amplitudes)) is float
        bump = self.bumps([4], [1.0])[0]
        assert type(action_stationarity_check(traj, bump, amplitudes)) is float


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

    def test_the_largest_margin_draws_are_admitted(self):
        x = random_nonisotropic_velocity(np.random.default_rng(429), margin=0.5, size=3)
        assert np.all(np.abs(cubic_form(x)) >= 0.5 * np.linalg.norm(x, axis=-1) ** 3)


class TestStackedMechanics:
    def test_single_transform_is_unchanged(self):
        rng = np.random.default_rng(439)
        p = canonical_momenta(unit_speed_velocity(rng))
        ell = group_action(random_unimodular(rng))
        assert np.array_equal(transform_momenta(ell, p), np.linalg.solve(ell.T, p))
        assert np.array_equal(transform_momenta(np.eye(9), p), p)


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


class TestDiscreteActionSamples:
    def test_two_samples_still_give_an_action(self):
        tau = np.array([0.0, 1.0])
        positions = np.stack([np.zeros(9), DIAG])
        assert discrete_action(tau, positions) == pytest.approx(-1.0)





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
    """One rule for kappa: ``2^-300 <= |kappa| <= 2^300``, in every map that takes it.

    That every export taking ``kappa`` refuses one outside the range is a
    property of ``tests/test_contract.py``.
    """

    INSIDE = list(_KAPPA_RANGE)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kappa", INSIDE)
    def test_round_trip_holds_just_inside_each_end(self, kappa, sign):
        # within the inversion_round_trip check's tolerance
        v = unit_speed_velocity(np.random.default_rng(1103), size=500)
        p = canonical_momenta(v, sign * kappa)
        assert np.abs(invert_momenta(p, sign * kappa) - v).max() <= 1e-9
        c3 = abs(2 * kappa / 3) ** 3
        assert np.abs(momentum_constraint_residual(p, sign * kappa)).max() <= 1e-9 * c3
