"""Tests for the 4-dimensional relativistic limit."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from finsler9 import (
    BlockLeakage,
    IsotropicVelocity,
    MINKOWSKI_METRIC,
    NonRealEntry,
    NonTimelike,
    NotUnimodular,
    assemble_velocity,
    block_split_check,
    constraint_residual,
    cubic_form,
    embed_sl2,
    group_action,
    lorentz_residual,
    minkowski_norm_sq,
    random_unimodular,
    reduced_action_check,
    solve_x8dot,
)
from finsler9.minkowski import _split_blocks


def random_timelike(rng, spinor_cap=0.3):
    spatial = rng.uniform(-0.5, 0.5, size=3)
    q = rng.uniform(0.3, 2.0)
    x4 = np.concatenate([[np.sqrt(q + spatial @ spatial)], spatial])
    spinor = rng.uniform(-1.0, 1.0, size=4)
    spinor *= spinor_cap * np.sqrt(q) / np.linalg.norm(spinor)
    return x4, spinor


class TestEmbedding:
    def test_identity(self):
        assert_allclose(embed_sl2(np.eye(2)), np.eye(3))

    def test_diagonal_element(self):
        a = np.exp(0.5)
        d3 = embed_sl2(np.diag([a, 1 / a]))
        assert_allclose(d3, np.diag([a, 1 / a, 1.0]))

    def test_embedded_determinant_is_one(self):
        rng = np.random.default_rng(211)
        for _ in range(100):
            d3 = embed_sl2(random_unimodular(rng, n=2))
            assert abs(np.linalg.det(d3) - 1.0) < 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            embed_sl2(2.0 * np.eye(2))

    def test_subgroup_closure(self):
        rng = np.random.default_rng(223)
        for _ in range(100):
            a = random_unimodular(rng, n=2)
            b = random_unimodular(rng, n=2)
            gap = np.abs(embed_sl2(a) @ embed_sl2(b) - embed_sl2(a @ b)).max()
            assert gap <= 1e-13


class TestBlockSplit:
    def test_identity(self):
        vec, spin, scalar = block_split_check(np.eye(2))
        assert_allclose(vec, np.eye(4))
        assert_allclose(spin, np.eye(4))
        assert scalar == 1.0
        assert type(scalar) is float

    def test_boost_mixes_time_and_third_axis(self):
        eta = 0.3
        vec, spin, scalar = block_split_check(np.diag([np.exp(eta / 2),
                                                       np.exp(-eta / 2)]))
        ch, sh = np.cosh(eta), np.sinh(eta)
        expected = np.eye(4)
        expected[0, 0] = expected[3, 3] = ch
        expected[0, 3] = expected[3, 0] = sh
        assert_allclose(vec, expected, atol=1e-13)
        assert scalar == 1.0

    def test_scalar_slot_is_exactly_one(self):
        rng = np.random.default_rng(227)
        for _ in range(200):
            ell = group_action(embed_sl2(random_unimodular(rng, n=2)))
            assert abs(ell[8, 8] - 1.0) <= 1e-12
            assert np.abs(ell[8, :8]).max() <= 1e-12
            assert np.abs(ell[:8, 8]).max() <= 1e-12

    def test_no_cross_block_leakage(self):
        rng = np.random.default_rng(229)
        mask = np.zeros((9, 9), dtype=bool)
        mask[:4, :4] = mask[4:8, 4:8] = True
        mask[8, 8] = True
        for _ in range(200):
            ell = group_action(embed_sl2(random_unimodular(rng, n=2)))
            assert np.abs(np.where(mask, 0.0, ell)).max() <= 1e-12

    def test_generic_group_element_leaks(self):
        # a full 3x3 unimodular matrix mixes the blocks, so the splitter's
        # guard must fire on it
        rng = np.random.default_rng(233)
        with pytest.raises(BlockLeakage):
            _split_blocks(group_action(random_unimodular(rng)))

    def test_spinor_block_is_invertible_with_unit_structure(self):
        # the 4-7 block represents the same 2x2 element acting on a complex
        # 2-spinor; it must be invertible and leave the split exact
        rng = np.random.default_rng(239)
        for _ in range(50):
            _, spin, _ = block_split_check(random_unimodular(rng, n=2))
            assert abs(np.linalg.det(spin)) > 1e-6


class TestLorentzResidual:
    def test_identity_block(self):
        assert lorentz_residual(np.eye(4)) == 0.0

    def test_pure_boost_block(self):
        eta = 0.3
        block = np.eye(4)
        block[0, 0] = block[3, 3] = np.cosh(eta)
        block[0, 3] = block[3, 0] = np.sinh(eta)
        assert lorentz_residual(block) <= 1e-12

    def test_vector_blocks_preserve_the_metric(self):
        rng = np.random.default_rng(241)
        for _ in range(100):
            vec, _, _ = block_split_check(random_unimodular(rng, n=2))
            assert lorentz_residual(vec) <= 1e-10

    def test_metric_signature(self):
        assert_allclose(MINKOWSKI_METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))
        assert minkowski_norm_sq([2.0, 1.0, 1.0, 1.0]) == 1.0


class TestConstraint:
    def test_unit_rest_velocity(self):
        xdot = np.zeros(9)
        xdot[0] = xdot[8] = 1.0
        assert constraint_residual(xdot) == 0.0

    def test_doubled_ninth_component(self):
        xdot = np.zeros(9)
        xdot[0] = 1.0
        xdot[8] = 2.0
        assert constraint_residual(xdot) == pytest.approx(1.0)

    def test_lhs_equals_cubic_form(self):
        rng = np.random.default_rng(251)
        for _ in range(200):
            x4, spinor = random_timelike(rng)
            xdot = np.concatenate([x4, spinor, rng.uniform(-2, 2, size=1)])
            q = minkowski_norm_sq(x4)
            lhs = constraint_residual(xdot) + q**1.5
            assert lhs == pytest.approx(cubic_form(xdot), rel=1e-12, abs=1e-14)

    def test_rejects_spacelike_part(self):
        xdot = np.zeros(9)
        xdot[1] = 1.0
        xdot[8] = 1.0
        with pytest.raises(NonTimelike):
            constraint_residual(xdot)

    def test_rejects_nan_velocity(self):
        with pytest.raises(NonTimelike):
            constraint_residual(np.full(9, np.nan))

    def test_rejects_stack_with_one_nan_row(self):
        xdot = np.zeros((5, 9))
        xdot[:, 0] = xdot[:, 8] = 1.0
        assert np.array_equal(constraint_residual(xdot), np.zeros(5))
        xdot[3, 2] = np.nan
        with pytest.raises(NonTimelike):
            constraint_residual(xdot)


class TestSolveNinthVelocity:
    def test_rest_velocity(self):
        assert solve_x8dot([1.0, 0, 0, 0], np.zeros(4)) == 1.0

    def test_time_dilation(self):
        assert solve_x8dot([2.0, 0, 0, 0], np.zeros(4)) == pytest.approx(2.0)

    def test_closure(self):
        rng = np.random.default_rng(257)
        for _ in range(500):
            x4, spinor = random_timelike(rng)
            nine = assemble_velocity(x4, spinor)
            scale = max(1.0, minkowski_norm_sq(x4) ** 1.5)
            assert abs(constraint_residual(nine)) <= 1e-12 * scale

    def test_matches_hand_expanded_spinor_terms(self):
        # the part of the cubic form without the ninth velocity, written out
        def spinor_terms(x4, s4):
            x0, x1, x2, x3 = (x4[..., a] for a in range(4))
            s4_, s5, s6, s7 = (s4[..., a] for a in range(4))
            return (
                -x0 * (s4_**2 + s5**2 + s6**2 + s7**2)
                + 2.0 * x1 * (s4_ * s6 + s5 * s7)
                + 2.0 * x2 * (s5 * s6 - s4_ * s7)
                + x3 * (s4_**2 + s5**2 - s6**2 - s7**2)
            )

        rng = np.random.default_rng(269)
        x4, spinor = map(np.stack, zip(*(random_timelike(rng, 2.0) for _ in range(2000))))
        spinor[::7, 1] = 0.0
        q = minkowski_norm_sq(x4)
        expected = (q**1.5 - spinor_terms(x4, spinor)) / q
        assert np.array_equal(solve_x8dot(x4, spinor), expected)
        assert np.array_equal(solve_x8dot(x4[0], spinor[0]), expected[0])

    def test_rejects_null_part(self):
        with pytest.raises(NonTimelike):
            solve_x8dot([1.0, 1.0, 0.0, 0.0], np.zeros(4))

    def test_rejects_nan_four_velocity(self):
        with pytest.raises(NonTimelike):
            solve_x8dot(np.full(4, np.nan), np.zeros(4))

    def test_rejects_stack_with_one_nan_row(self):
        x4 = np.zeros((5, 4))
        x4[:, 0] = 1.0
        assert np.array_equal(solve_x8dot(x4, np.zeros(4)), np.ones(5))
        x4[1, 0] = np.nan
        with pytest.raises(NonTimelike):
            solve_x8dot(x4, np.zeros(4))

    def test_constraint_is_lorentz_invariant(self):
        rng = np.random.default_rng(263)
        for _ in range(200):
            x4, spinor = random_timelike(rng)
            nine = assemble_velocity(x4, spinor)
            ell = group_action(embed_sl2(random_unimodular(rng, n=2)))
            moved = ell @ nine
            scale = max(1.0, minkowski_norm_sq(moved[:4]) ** 1.5)
            assert abs(constraint_residual(moved)) <= 1e-10 * scale


def timelike_curve(rng, n=201):
    tau = np.linspace(0.0, 1.0, n)
    phase = rng.uniform(0.0, 2 * np.pi, size=3)
    spatial = 0.4 * np.sin(2 * np.pi * tau[:, None] + phase)
    q = 0.6 + 0.3 * np.sin(2 * np.pi * tau + rng.uniform(0, 2 * np.pi))
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=1))[:, None],
                         spatial], axis=1)
    spinor = 0.2 * np.sqrt(q)[:, None] * np.sin(
        2 * np.pi * tau[:, None] + rng.uniform(0, 2 * np.pi, size=4)
    )
    return tau, x4, spinor


class TestReducedAction:
    def test_rest_curve(self):
        tau = np.linspace(0.0, 1.0, 201)
        x4 = np.tile([1.0, 0, 0, 0], (201, 1))
        s9, s4 = reduced_action_check(tau, x4, np.zeros((201, 4)), 1.0, 1.0)
        assert s9 == pytest.approx(-1.0, abs=1e-12)
        assert s4 == pytest.approx(-1.0, abs=1e-12)

    def test_uniform_boost(self):
        eta = 0.7
        tau = np.linspace(0.0, 2.0, 201)
        x4 = np.tile([np.cosh(eta), 0, 0, np.sinh(eta)], (201, 1))
        mass, speed = 1.5, 2.0
        s9, s4 = reduced_action_check(tau, x4, np.zeros((201, 4)), mass, speed)
        assert s4 == pytest.approx(-mass * speed * 2.0, rel=1e-12)
        assert s9 == pytest.approx(s4, rel=1e-12)

    def test_actions_agree_on_random_curves(self):
        rng = np.random.default_rng(269)
        for _ in range(100):
            tau, x4, spinor = timelike_curve(rng)
            mass, speed = rng.uniform(0.5, 2.0, size=2)
            s9, s4 = reduced_action_check(tau, x4, spinor, mass, speed)
            assert abs(s9 - s4) <= 1e-10 * abs(s4)

    def test_equality_breaks_off_the_critical_coupling(self):
        rng = np.random.default_rng(271)
        tau, x4, spinor = timelike_curve(rng)
        mass, speed = 1.0, 1.0
        s9, s4 = reduced_action_check(tau, x4, spinor, mass, speed,
                                      kappa=-1.01 * mass * speed)
        assert abs(s9 - s4) >= 1e-3 * abs(s4)

    def test_rejects_nonpositive_parameters(self):
        tau = np.linspace(0.0, 1.0, 201)
        x4 = np.tile([1.0, 0, 0, 0], (201, 1))
        with pytest.raises(ValueError):
            reduced_action_check(tau, x4, np.zeros((201, 4)), -1.0, 1.0)

    @pytest.mark.parametrize("kappa", [0.0, np.nan, 1e300, 1e-120])
    def test_rejects_kappa_outside_the_range(self, kappa):
        tau = np.linspace(0.0, 1.0, 5)
        x4 = np.tile([1.0, 0, 0, 0], (5, 1))
        with pytest.raises(ValueError, match="^kappa must be nonzero"):
            reduced_action_check(tau, x4, np.zeros((5, 4)), 1.0, 1.0, kappa=kappa)

    def test_rejects_a_default_kappa_outside_the_range(self):
        tau = np.linspace(0.0, 1.0, 5)
        x4 = np.tile([1.0, 0, 0, 0], (5, 1))
        with pytest.raises(ValueError, match="^kappa must be nonzero"):
            reduced_action_check(tau, x4, np.zeros((5, 4)), 2.0**-301, 1.0)

    @pytest.mark.parametrize("size", [31.7, 1e8])
    def test_rejects_a_rest_curve_near_the_isotropic_cone(self, size):
        # at rest |f| / |x|^3 is about size^-6: the admission's 1e-9 from 31.6 on
        tau = np.linspace(0.0, 1.0, 5)
        x4 = np.tile([1.0, 0, 0, 0], (5, 1))
        spinor = np.zeros((5, 4))
        spinor[2, 1] = size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IsotropicVelocity, match=re.escape("(1 velocity sample(s))")):
                reduced_action_check(tau, x4, spinor, 1.0, 1.0)
        spinor[2, 1] = 31.5
        assert reduced_action_check(tau, x4, spinor, 1.0, 1.0)[0] < 0.0

    @pytest.mark.parametrize("x4, mass, kappa", [
        ([1e103, 0.0, 0.0, 0.0], 1.0, None),  # q ** 1.5 overflows the ninth velocity
        ([1.0, 0.0, 0.0, 0.0], 1e308, -1.0),  # mass * light_speed overflows
    ], ids=["velocity", "rest_energy"])
    def test_a_sample_beyond_the_float_range_raises_non_real_entry(self, x4, mass, kappa):
        tau = np.linspace(0.0, 1.0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonRealEntry, match="^the 4D-limit record is beyond the float"):
                reduced_action_check(tau, np.tile(x4, (3, 1)), np.zeros((3, 4)), mass, mass,
                                     kappa=kappa)

    def test_an_overflowing_default_kappa_is_refused_without_a_warning(self):
        tau = np.linspace(0.0, 1.0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^kappa must be nonzero.*got -inf$"):
                reduced_action_check(tau, np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros((3, 4)),
                                     1e308, 1e308)

    def test_rejects_spacelike_sample(self):
        tau = np.linspace(0.0, 1.0, 201)
        x4 = np.tile([1.0, 0, 0, 0], (201, 1))
        x4[100] = [0.5, 0.9, 0, 0]
        with pytest.raises(NonTimelike):
            reduced_action_check(tau, x4, np.zeros((201, 4)), 1.0, 1.0)


TIMELIKE = np.array([2.0, 1.0, 0.0, 0.0])
SPINOR = np.full(4, 0.5)


class TestVectorShape:
    CALLS = {
        "minkowski_norm_sq": minkowski_norm_sq,
        "solve_x8dot_xdot03": lambda v: solve_x8dot(v, SPINOR),
        "solve_x8dot_xdot47": lambda v: solve_x8dot(TIMELIKE, v),
        "assemble_velocity_xdot03": lambda v: assemble_velocity(v, SPINOR),
        "assemble_velocity_xdot47": lambda v: assemble_velocity(TIMELIKE, v),
        "reduced_action_check_xdot4":
            lambda v: reduced_action_check(np.linspace(0.0, 1.0, 3), v, SPINOR, 1.0, 1.0),
        "reduced_action_check_spinor":
            lambda v: reduced_action_check(np.linspace(0.0, 1.0, 3), TIMELIKE, v, 1.0, 1.0),
    }

    @pytest.mark.parametrize("length", [3, 5])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_wrong_length_raises_value_error_naming_the_shape(self, name, length):
        with pytest.raises(ValueError, match=rf"got shape \(3, {length}\)"):
            self.CALLS[name](np.full((3, length), 2.0))
        with pytest.raises(ValueError, match=rf"got shape \({length},\)"):
            self.CALLS[name](np.full(length, 2.0))

    @pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4, 5), (2, 4, 3), (4,)])
    def test_block_that_is_not_4x4_raises_value_error_naming_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            lorentz_residual(np.ones(shape))


class TestStackedSubgroup:
    def test_embedding_matches_per_matrix_calls(self):
        d2 = random_unimodular(np.random.default_rng(307), n=2, size=(3, 10))
        d3 = embed_sl2(d2)
        assert d3.shape == (3, 10, 3, 3)
        assert_allclose(d3.reshape(-1, 3, 3), [embed_sl2(d) for d in d2.reshape(-1, 2, 2)],
                        rtol=1e-12, atol=0)

    def test_block_split_matches_per_matrix_calls(self):
        d2 = random_unimodular(np.random.default_rng(311), n=2, size=40)
        vec, spin, scalar = block_split_check(d2)
        assert vec.shape == spin.shape == (40, 4, 4) and scalar.shape == (40,)
        rows = [block_split_check(d) for d in d2]
        assert_allclose(vec, [r[0] for r in rows], rtol=1e-12, atol=1e-15)
        assert_allclose(spin, [r[1] for r in rows], rtol=1e-12, atol=1e-15)
        assert_allclose(scalar, [r[2] for r in rows], rtol=1e-12, atol=0)

    def test_lorentz_residual_matches_per_block_calls(self):
        vec, _, _ = block_split_check(random_unimodular(np.random.default_rng(313), n=2,
                                                        size=40))
        residuals = lorentz_residual(vec)
        assert residuals.shape == (40,)
        assert_allclose(residuals, [lorentz_residual(b) for b in vec], rtol=1e-12, atol=1e-16)
        assert type(lorentz_residual(vec[0])) is float

    def test_one_non_unimodular_matrix_rejects_the_stack(self):
        d2 = random_unimodular(np.random.default_rng(317), n=2, size=6)
        d2[2] *= 1.5
        with pytest.raises(NotUnimodular):
            embed_sl2(d2)
        with pytest.raises(NotUnimodular):
            block_split_check(d2)

    def test_reduced_action_of_stacked_curves_matches_per_curve_calls(self):
        rng = np.random.default_rng(331)
        tau = np.linspace(0.0, 1.0, 201)
        pairs = [random_timelike(rng) for _ in range(12)]
        x4 = np.stack([np.tile(a, (201, 1)) * (1.0 + 0.2 * tau[:, None]) for a, _ in pairs])
        spinor = np.stack([np.tile(b, (201, 1)) for _, b in pairs])
        mass, speed = rng.uniform(0.5, 2.0, size=(2, 12))
        s_cubic, s_mink = reduced_action_check(tau, x4, spinor, mass, speed)
        rows = [reduced_action_check(tau, *args) for args in zip(x4, spinor, mass, speed)]
        assert_allclose(s_cubic, [r[0] for r in rows], rtol=1e-12, atol=0)
        assert_allclose(s_mink, [r[1] for r in rows], rtol=1e-12, atol=0)
        assert all(type(v) is float for v in rows[0])


def same_bits(a, b):
    """Equal shapes and equal bits, so that -0 differs from +0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.reshape(-1).view(np.int64),
                                                 b.reshape(-1).view(np.int64))


def concatenated_solve_x8dot(xdot03, xdot47):
    """``solve_x8dot`` as it was written before ``assemble_velocity`` owned the assembly."""
    x4, s4 = np.broadcast_arrays(np.asarray(xdot03, dtype=float),
                                 np.asarray(xdot47, dtype=float))
    q = minkowski_norm_sq(x4)
    resting = np.concatenate([x4, s4, np.zeros_like(x4[..., :1])], axis=-1)
    return (q**1.5 - cubic_form(resting)) / q


def concatenated_assemble_velocity(xdot03, xdot47):
    """``assemble_velocity`` as it was written: equal-rank parts and the solved slot."""
    x8 = concatenated_solve_x8dot(xdot03, xdot47)
    return np.concatenate([xdot03, xdot47, x8[..., None]], axis=-1)


@st.composite
def broadcastable_timelike_parts(draw):
    """A timelike ``(..., 4)`` velocity part and a spinor part that broadcast to a stack."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3)
                  .filter(lambda shapes: shapes.result_shape != ()))
    shape03, shape47 = shapes.input_shapes
    spatial = draw(hnp.arrays(float, shape03 + (3,), elements=st.floats(-2.0, 2.0)))
    q = draw(hnp.arrays(float, shape03, elements=st.floats(0.25, 4.0)))
    spinor = draw(hnp.arrays(float, shape47 + (4,), elements=st.floats(-1.0, 1.0)))
    x0 = np.sqrt(q + np.sum(spatial**2, axis=-1))
    return np.concatenate([x0[..., None], spatial], axis=-1), spinor


def residual_with_ninth_one(x4, s4):
    return constraint_residual(np.concatenate([x4, s4, [1.0]]))


def reduced_action_on_a_curve(x4, s4):
    xs, ss = np.tile(TIMELIKE, (3, 1)), np.tile(SPINOR, (3, 1))
    xs[1], ss[1] = x4, s4
    return reduced_action_check(np.linspace(0.0, 1.0, 3), xs, ss, 1.0, 1.0)


class TestOneAssembly:
    @pytest.mark.parametrize("shape03, shape47",
                             [((3, 4), (4,)), ((4,), (2, 1, 4)), ((2, 1, 4), (3, 4))])
    def test_parts_broadcast_like_per_pair_calls(self, shape03, shape47):
        rng = np.random.default_rng(347)
        count = int(np.prod(shape03[:-1]))
        x4 = np.stack([random_timelike(rng)[0] for _ in range(count)]).reshape(shape03)
        spinor = rng.uniform(-0.3, 0.3, size=shape47)
        nine, x8 = assemble_velocity(x4, spinor), solve_x8dot(x4, spinor)
        a, b = np.broadcast_arrays(x4, spinor)
        assert nine.shape == a.shape[:-1] + (9,) and x8.shape == a.shape[:-1]
        for idx in np.ndindex(a.shape[:-1]):
            pair = a[idx][None], b[idx][None]
            assert same_bits(nine[idx], assemble_velocity(*pair)[0])
            assert same_bits(x8[idx], solve_x8dot(*pair)[0])
            # an unstacked pair evaluates q**1.5 with numpy's scalar power,
            # which may round differently from the array power of a stack
            assert_allclose(assemble_velocity(a[idx], b[idx]), nine[idx], rtol=1e-15, atol=0)
            assert_allclose(solve_x8dot(a[idx], b[idx]), x8[idx], rtol=1e-15, atol=0)

    def test_matches_the_concatenated_oracle_bit_for_bit(self):
        # oracle: passes at the concatenating implementation by construction
        rng = np.random.default_rng(349)
        x4, spinor = map(np.stack, zip(*(random_timelike(rng, 2.0) for _ in range(600))))
        x4[::3, 1:] *= 1e-150
        x4[2::12] *= 1e-150
        spinor[::4] *= 1e150
        spinor[1::4] *= 1e-150
        spinor[::5, 2] = -0.0
        x4[::6, 3] = -0.0
        spinor[::7] = -0.0
        assert same_bits(assemble_velocity(x4, spinor),
                         concatenated_assemble_velocity(x4, spinor))
        assert same_bits(solve_x8dot(x4, spinor), concatenated_solve_x8dot(x4, spinor))
        for i in range(0, 600, 37):
            assert same_bits(solve_x8dot(x4[i], spinor[i]),
                             concatenated_solve_x8dot(x4[i], spinor[i]))

    def test_one_pair_gives_a_python_float(self):
        assert type(solve_x8dot(TIMELIKE, SPINOR)) is float

    @pytest.mark.parametrize("x4, s4", [
        (TIMELIKE, [0.5, np.nan, 0.5, 0.5]),
        (TIMELIKE, [0.5, 0.5, -np.inf, 0.5]),
        ([np.inf, 1.0, 0.0, 0.0], SPINOR),
    ], ids=["nan_spinor", "inf_spinor", "inf_four_velocity"])
    @pytest.mark.parametrize("call", [solve_x8dot, assemble_velocity,
                                      residual_with_ninth_one, reduced_action_on_a_curve],
                             ids=lambda call: call.__name__)
    def test_non_finite_parts_raise_non_timelike(self, call, x4, s4):
        with pytest.raises(NonTimelike, match="velocity parts must be finite"):
            call(np.asarray(x4, dtype=float), np.asarray(s4, dtype=float))

    @pytest.mark.parametrize("call", [
        assemble_velocity, solve_x8dot,
        lambda x4, s4: reduced_action_check(np.linspace(0.0, 1.0, 4), x4, s4, 1.0, 1.0),
    ], ids=["assemble_velocity", "solve_x8dot", "reduced_action_check"])
    def test_parts_that_do_not_broadcast_name_both_shapes(self, call):
        x4, spinor = np.tile(TIMELIKE, (3, 1)), np.tile(SPINOR, (2, 1))
        expected = "velocity parts of shapes (3, 4) and (2, 4) do not broadcast"
        with pytest.raises(ValueError, match=re.escape(expected)):
            call(x4, spinor)

    @settings(derandomize=True, deadline=None)
    @given(broadcastable_timelike_parts())
    def test_assembly_is_per_row_and_closes_the_constraint(self, parts):
        x4, spinor = parts
        nine = assemble_velocity(x4, spinor)
        a, b = np.broadcast_arrays(x4, spinor)
        for idx in np.ndindex(nine.shape[:-1]):
            assert same_bits(nine[idx], assemble_velocity(a[idx][None], b[idx][None])[0])
        scale = np.maximum(1.0, minkowski_norm_sq(a) ** 1.5)
        assert np.all(np.abs(constraint_residual(nine)) <= 1e-12 * scale)


class TestArrayPowerForOnePair:
    """``q**1.5`` goes through numpy's array power for one pair as for a stack."""

    def pairs(self, n=3000):
        rng = np.random.default_rng(353)
        spatial = rng.uniform(-0.5, 0.5, size=(n, 3))
        q = rng.uniform(0.2, 4.0, size=n)
        x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=-1))[:, None], spatial], axis=-1)
        return x4, rng.uniform(-0.5, 0.5, size=(n, 4))

    def test_one_pair_gives_the_bits_of_its_row_in_a_stack(self):
        x4, spinor = self.pairs()
        nine, x8 = assemble_velocity(x4, spinor), solve_x8dot(x4, spinor)
        for i in range(len(x4)):
            assert same_bits(assemble_velocity(x4[i], spinor[i]), nine[i])
            assert same_bits(solve_x8dot(x4[i], spinor[i]), x8[i])

    def test_one_velocity_gives_the_bits_of_its_row_in_a_stack(self):
        x4, spinor = self.pairs()
        nine = assemble_velocity(x4, spinor)
        nine[:, 8] += np.random.default_rng(359).uniform(-0.1, 0.1, size=len(nine))
        residuals = constraint_residual(nine)
        for row, expected in zip(nine, residuals):
            assert same_bits(constraint_residual(row), expected)
