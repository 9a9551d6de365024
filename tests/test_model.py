import math

import numpy as np
import pytest

from conftest import (
    accel_matrix,
    dynamics,
    euler_cols,
    random_state,
    turn_rate,
    turn_rate_raw,
    velocity,
    velocity_vec,
)
from fwrta import kernels
from fwrta.errors import NonFiniteValue, SingularPitch, SingularSpeed
from fwrta.model import AircraftState, ControlInput, GravityParam, TrackContext


def inverse_rows(st):
    """Rows ``(c0, -c2/V_T, c1/V_T)`` of the inverse acceleration map, from the context."""
    ctx = TrackContext(st, 0.0, GravityParam())
    c0, c1, c2 = (np.array(c) for c in (ctx.c0, ctx.c1, ctx.c2))
    return np.vstack([c0, -c2 / ctx.V_T, c1 / ctx.V_T])


def spelled_out_rhs(x, u, g_d):
    """Row-by-row transliteration of the kinematic equations (test oracle)."""
    n, e, d, phi, theta, psi, V_T = x
    A_T, P, Q = u
    R = g_d / V_T * math.sin(phi) * math.cos(theta)
    return np.array(
        [
            V_T * math.cos(psi) * math.cos(theta),
            V_T * math.sin(psi) * math.cos(theta),
            -V_T * math.sin(theta),
            P + math.sin(phi) * math.tan(theta) * Q + math.cos(phi) * math.tan(theta) * R,
            math.cos(phi) * Q - math.sin(phi) * R,
            math.sin(phi) / math.cos(theta) * Q + math.cos(phi) / math.cos(theta) * R,
            A_T,
        ]
    )


def explicit_accel_matrix(x):
    """Trig-explicit acceleration map (test oracle, independent assembly)."""
    _, _, _, phi, theta, psi, V = x
    sph, cph = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    return np.array(
        [
            [cth * cps, -V * (cph * sth * cps + sph * sps), V * (sph * sth * cps - cph * sps)],
            [cth * sps, V * (-cph * sth * sps + sph * cps), V * (sph * sth * sps + cph * cps)],
            [-sth, -V * cph * cth, V * sph * cth],
        ]
    )


class TestVelocity:
    def test_axis_aligned(self):
        st = AircraftState(0, 0, 0, 0, 0, 0, 100.0)
        np.testing.assert_allclose(velocity(st), [100.0, 0.0, 0.0], atol=1e-14)

    def test_due_east(self):
        st = AircraftState(0, 0, 0, 0, 0, math.pi / 2, 161.32)
        np.testing.assert_allclose(velocity(st), [0.0, 161.32, 0.0], atol=1e-13)

    def test_exact_trig(self):
        st = AircraftState(0, 0, 0, 0, math.pi / 6, 0, 2.0)
        np.testing.assert_allclose(velocity(st), [math.sqrt(3.0), 0.0, -1.0], atol=1e-15)

    def test_norm_equals_speed(self, rng):
        for _ in range(200):
            st = random_state(rng)
            assert np.linalg.norm(velocity(st)) == pytest.approx(st.V_T, rel=1e-12)


class TestTurnRate:
    def test_wings_level(self, gravity):
        st = AircraftState(0, 0, 0, 0.0, 0.3, 1.0, 120.0)
        assert turn_rate(st, gravity) == 0.0

    def test_unit_case(self, gravity):
        st = AircraftState(0, 0, 0, math.pi / 2, 0.0, 0.0, 9.81)
        assert turn_rate(st, gravity) == pytest.approx(1.0, rel=1e-15)

    def test_speed_floor(self, gravity):
        st = AircraftState(0, 0, 0, 0.1, 0.0, 0.0, 0.5)
        with pytest.raises(SingularSpeed):
            turn_rate(st, gravity)


class TestDynamics:
    def test_level_unforced(self, gravity):
        st = AircraftState(0, 0, 0, 0, 0, 0, 10.0)
        xd = dynamics(st, ControlInput(0, 0, 0), gravity)
        np.testing.assert_allclose(xd, [10, 0, 0, 0, 0, 0, 0], atol=1e-15)

    def test_yaw_rate_consistency(self, rng, gravity):
        for _ in range(50):
            st = random_state(rng)
            xd = dynamics(st, ControlInput(0, 0, 0), gravity)
            R = turn_rate(st, gravity)
            expected = math.cos(st.phi) / math.cos(st.theta) * R
            assert xd[5] == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_matches_spelled_out_equations(self, rng, gravity):
        for _ in range(1000):
            st = random_state(rng)
            u = ControlInput(*rng.uniform(-5, 5, size=3))
            got = dynamics(st, u, gravity)
            ref = spelled_out_rhs(st.as_array(), u.as_array(), gravity.g_d)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
            # the RHS is affine in the input: drift plus input columns
            x = st.as_array()
            f = np.array(kernels.dubins_rhs(x, (0.0, 0.0, 0.0), gravity.g_d))
            G = np.column_stack([np.array(kernels.dubins_rhs(x, e, gravity.g_d)) - f for e in np.eye(3)])
            np.testing.assert_allclose(f + G @ u.as_array(), got, rtol=1e-12, atol=1e-12)

    def test_pitch_guard(self, gravity):
        # the control step's frame refuses the pitch singularity
        st = AircraftState(0, 0, 0, 0, math.pi / 2 - 1e-4, 0, 100.0)
        with pytest.raises(SingularPitch):
            TrackContext(st, 0.0, gravity)


class TestAccelMatrix:
    def test_level_flight_closed_form(self):
        V = 137.0
        st = AircraftState(0, 0, 0, 0, 0, 0, V)
        np.testing.assert_allclose(
            accel_matrix(st), [[1, 0, 0], [0, 0, V], [0, -V, 0]], atol=1e-13
        )

    def test_matches_explicit_assembly(self, rng):
        for _ in range(300):
            st = random_state(rng)
            np.testing.assert_allclose(
                accel_matrix(st), explicit_accel_matrix(st.as_array()), rtol=1e-12, atol=1e-10
            )

    def test_first_column_is_velocity_direction(self, rng):
        for _ in range(100):
            st = random_state(rng)
            np.testing.assert_allclose(
                accel_matrix(st)[:, 0], velocity(st) / st.V_T, rtol=1e-12, atol=1e-14
            )

    def test_determinant_nonzero(self, rng):
        for _ in range(1000):
            st = random_state(rng)
            det = np.linalg.det(accel_matrix(st))
            assert abs(det) > 1e-6
            assert det == pytest.approx(st.V_T**2, rel=1e-9)

    def test_velocity_rate_finite_difference(self, rng, gravity):
        # central difference of v along a simulated trajectory vs M_a (A_T, Q, R)
        for _ in range(20):
            st = random_state(rng, theta_max=0.9, phi_max=1.0)
            u = ControlInput(*rng.uniform(-2, 2, size=3))
            dt = 1e-4
            x0 = st.as_array()
            xp = kernels.rk4_step(x0, u.as_array(), dt, gravity.g_d)
            xm = kernels.rk4_step(x0, u.as_array(), -dt, gravity.g_d)
            v_dot_fd = (velocity(AircraftState.from_array(xp)) - velocity(AircraftState.from_array(xm))) / (2 * dt)
            rates = np.array([u.A_T, u.Q, turn_rate(st, gravity)])
            v_dot = accel_matrix(st) @ rates
            np.testing.assert_allclose(v_dot_fd, v_dot, rtol=1e-6, atol=1e-6)


class TestAccelInverse:
    def test_level_flight_rows(self):
        V = 80.0
        st = AircraftState(0, 0, 0, 0, 0, 0, V)
        Mi = inverse_rows(st)
        np.testing.assert_allclose(Mi, [[1, 0, 0], [0, 0, -1 / V], [0, 1 / V, 0]], atol=1e-14)
        np.testing.assert_allclose(Mi[2], [0, 1 / V, 0], atol=1e-14)

    def test_identity_residuals(self, rng):
        for _ in range(1000):
            st = random_state(rng)
            M = accel_matrix(st)
            Mi = inverse_rows(st)
            assert np.abs(M @ Mi - np.eye(3)).max() <= 1e-10
            assert np.abs(Mi @ M - np.eye(3)).max() <= 1e-10

    def test_w_r_row_extracts_turn_rate(self, rng):
        for _ in range(200):
            st = random_state(rng)
            np.testing.assert_allclose(
                inverse_rows(st)[2] @ accel_matrix(st), [0.0, 0.0, 1.0], atol=1e-10
            )

    def test_singularity_guards(self):
        with pytest.raises(SingularSpeed):
            accel_matrix(AircraftState(0, 0, 0, 0, 0, 0, 0.5))
        with pytest.raises(SingularSpeed):
            inverse_rows(AircraftState(0, 0, 0, 0, 0, 0, 0.5))
        with pytest.raises(SingularPitch):
            inverse_rows(AircraftState(0, 0, 0, 0, math.pi / 2 - 5e-4, 0, 100.0))


class TestTrackContext:
    def test_matches_dual_capable_formulas_bit_for_bit(self, rng, gravity):
        # the dual-number oracles seed these formulas; equality to the
        # bit makes them differentiate exactly what the filters evaluate
        for i in range(2000):
            st = random_state(rng, v_range=(1.5, 400.0), theta_max=1.5, phi_max=3.1)
            if i % 4 == 0:
                st = AircraftState(*st.as_array()[:3], 0.0, 0.0, st.psi, st.V_T)
            ctx = TrackContext(st, 0.0, gravity)
            got = [ctx.c0, ctx.c1, ctx.c2, ctx.v, ctx.R]
            ref = [
                *euler_cols(st.phi, st.theta, st.psi),
                velocity_vec(st.theta, st.psi, st.V_T),
                turn_rate_raw(st.phi, st.theta, st.V_T, gravity.g_d),
            ]
            for a, b in zip(got, ref):
                # bytes, so that the sign of a zero counts too
                assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_state_requires_finite_fields():
    with pytest.raises(ValueError):
        AircraftState(0, 0, 0, 0, 0, 0, math.nan)
    # the error names the first non-finite input field, in field order
    fields = ("A_T", "P", "Q")
    for i, name in enumerate(fields):
        for bad in (math.nan, math.inf, -math.inf):
            x = [0.5, -0.25, 1.0]
            x[i] = bad
            with pytest.raises(NonFiniteValue, match=f"^ControlInput.{name} must be finite$"):
                ControlInput(*x)
            # a later non-finite field does not change the name
            x[i + 1:] = [math.nan] * (2 - i)
            with pytest.raises(NonFiniteValue, match=f"^ControlInput.{name} must be finite$"):
                ControlInput(*x)
    assert ControlInput(0.5, -0.25, 1.0).as_tuple() == (0.5, -0.25, 1.0)


def test_gravity_param_positive():
    with pytest.raises(ValueError):
        GravityParam(-1.0)
