import math

import numpy as np
import pytest

from conftest import random_constraint_set, random_state
from fwrta import dual as dm
from fwrta.backstepping import (
    BacksteppingParams,
    _pipeline,
    grad_h_b,
    h_b,
    rta_backstepping,
)
from fwrta.constraints import ConstraintSet, GeofencePlane
from fwrta.extended import compose_extended_terms, h_e_composed
from fwrta.filters import ClassKappaLinear, WeightFactor
from fwrta.model import AircraftState, ControlInput, TrackContext, velocity


def table_params(mu_e=1e-4):
    return BacksteppingParams(
        gamma_p=0.1,
        alpha_e=ClassKappaLinear(0.1),
        W_e=WeightFactor(np.eye(3)),
        nu_e=1.0,
        mu_e=mu_e,
        alpha=ClassKappaLinear(0.1),
        W=WeightFactor.diagonal([6.0, 0.6, 0.1]),
    )


def safe_pieces(st, t, cset, p, g):
    """``(a_s, R_s)``: the safe acceleration and turn rate of the barrier chain."""
    _, a_s, R_s, _, _ = _pipeline(st.r, st.phi, st.theta, st.psi, st.V_T, t, cset, p, g)
    return a_s, R_s


def turn_row(st, g):
    """Turn-rate row ``c1 / V_T`` of the inverse acceleration map."""
    ctx = TrackContext(st, 0.0, g)
    return ctx.c1 / ctx.V_T


def extended_view(p):
    from fwrta.extended import ExtendedParams

    return ExtendedParams(gamma_p=p.gamma_p, alpha=p.alpha, W=p.W)


def canceling_planes():
    """Two face-to-face planes; midway between them the composed gradient
    cancels exactly, so the acceleration filter has no authority."""
    a = GeofencePlane([2000.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 10.0)
    b = GeofencePlane([-2000.0, 0.0, 0.0], [1.0, 0.0, 0.0], 10.0)
    return ConstraintSet([a, b], kappa=0.007)


class TestSafeAccel:
    def test_zero_when_gradient_cancels(self, gravity):
        cset = canceling_planes()
        st = AircraftState(0.0, 0.0, 0.0, 0.2, 0.0, math.pi / 2, 150.0)
        a_s, _ = safe_pieces(st, 0.0, cset, table_params(), gravity)
        np.testing.assert_array_equal(a_s, np.zeros(3))

    def test_exponentially_small_far_away(self, rng, gravity):
        p = table_params()
        pe = extended_view(p)
        for _ in range(50):
            st = random_state(rng, pos_scale=200.0)
            cset = random_constraint_set(rng, st.r)
            out = h_e_composed(st.r, velocity(st), 0.0, cset, pe)
            v = velocity(st)
            a_e = float(out.grad_r @ v) + out.dt_partial + p.alpha_e(out.value)
            b_e = out.grad_v @ p.W_e.W
            b_norm = np.linalg.norm(b_e)
            if a_e <= 5.0 * b_norm or b_norm == 0.0:
                continue
            a_s, _ = safe_pieces(st, 0.0, cset, p, gravity)
            bound = math.exp(-p.nu_e * a_e / b_norm) / p.nu_e * np.linalg.norm(p.W_e.W @ b_e) / b_norm
            assert np.linalg.norm(a_s) <= bound * (1 + 1e-9)

    def test_satisfies_acceleration_constraint(self, rng, gravity):
        p = table_params()
        pe = extended_view(p)
        for _ in range(200):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            out = h_e_composed(st.r, velocity(st), 0.0, cset, pe)
            v = velocity(st)
            a_e = float(out.grad_r @ v) + out.dt_partial + p.alpha_e(out.value)
            a_s, _ = safe_pieces(st, 0.0, cset, p, gravity)
            achieved = a_e + float(out.grad_v @ a_s)
            assert achieved >= -1e-9 * max(1.0, abs(a_e))


class TestSafeTurnRate:
    def test_zero_for_zero_accel(self, gravity):
        st = AircraftState(0.0, 0.0, 0.0, 0.1, 0.05, math.pi / 2, 150.0)
        assert safe_pieces(st, 0.0, canceling_planes(), table_params(), gravity)[1] == 0.0

    def test_is_projection_of_safe_accel(self, rng, gravity):
        p = table_params()
        for _ in range(100):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            a_s, R_s = safe_pieces(st, 0.0, cset, p, gravity)
            assert R_s == pytest.approx(float(turn_row(st, gravity) @ a_s), rel=1e-12, abs=1e-14)

    def test_level_flight_lateral_component(self, gravity):
        # east flight: safe east-axis acceleration maps through the
        # level-flight inverse to a/V on the turn row
        p = table_params()
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 120.0)
        a = np.array([0.0, 7.3, 0.0])
        assert float(turn_row(st, gravity) @ a) == pytest.approx(7.3 / 120.0, rel=1e-14)

    def test_continuity_across_activation(self, gravity):
        # sweep the approach speed through the filter activation boundary:
        # the value and its sampled derivative both stay continuous
        p = table_params()
        plane = GeofencePlane([0.0, 3000.0, 0.0], [0.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([plane], kappa=0.007)
        grid = np.linspace(60.0, 280.0, 400)
        vals = np.array(
            [
                safe_pieces(AircraftState(0.0, 0.0, 0.0, 0.1, 0.0, math.pi / 2, float(V)), 0.0, cset, p, gravity)[1]
                for V in grid
            ]
        )
        assert np.abs(np.diff(vals)).max() < 5e-3
        deriv = np.diff(vals) / np.diff(grid)
        assert np.abs(np.diff(deriv)).max() < 5e-3


class TestPenalizedBarrier:
    def test_upper_bounded_by_extension(self, rng, gravity):
        p = table_params()
        pe = extended_view(p)
        for _ in range(2000):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            hb = h_b(st, 0.0, cset, p, gravity)
            he = h_e_composed(st.r, velocity(st), 0.0, cset, pe).value
            assert hb <= he + 1e-12

    def test_large_penalty_scale_limit(self, rng, gravity):
        pe = extended_view(table_params())
        for _ in range(30):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            hb = h_b(st, 0.0, cset, table_params(mu_e=1e12), gravity)
            he = h_e_composed(st.r, velocity(st), 0.0, cset, pe).value
            assert hb == pytest.approx(he, rel=1e-9, abs=1e-8)

    def test_equals_extension_when_gap_vanishes(self, gravity):
        # canceling geometry gives R_s = 0; wings level gives R = 0
        cset = canceling_planes()
        p = table_params()
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, math.pi / 2, 150.0)
        hb = h_b(st, 0.0, cset, p, gravity)
        he = h_e_composed(st.r, velocity(st), 0.0, cset, extended_view(p)).value
        assert hb == he


def _fd_grad_h_b(st, t, cset, p, g, h=1e-5):
    x0 = st.as_array()
    grad = np.zeros(7)
    for i in range(7):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (
            h_b(AircraftState.from_array(xp), t, cset, p, g)
            - h_b(AircraftState.from_array(xm), t, cset, p, g)
        ) / (2 * h)
    dt = (h_b(st, t + h, cset, p, g) - h_b(st, t - h, cset, p, g)) / (2 * h)
    return grad, dt


class TestGradient:
    def test_matches_finite_differences(self, rng, gravity):
        p = table_params()
        checked = 0
        for _ in range(60):
            st = random_state(rng, theta_max=1.0, phi_max=1.2)
            cset = random_constraint_set(rng, st.r)
            dhdx, dhdt = grad_h_b(st, 1.0, cset, p, gravity)
            fd_x, fd_t = _fd_grad_h_b(st, 1.0, cset, p, gravity)
            scale = max(np.linalg.norm(fd_x), 1e-6)
            assert np.linalg.norm(dhdx - fd_x) / scale < 1e-5
            assert dhdt == pytest.approx(fd_t, rel=1e-5, abs=1e-6 * scale)
            checked += 1
        assert checked == 60

    def test_roll_channel_sensitivity_near_activation(self, gravity):
        # approaching a fence with moderate margin: the turn-gap penalty
        # makes the barrier depend on bank angle
        p = table_params()
        plane = GeofencePlane([0.0, 2500.0, 0.0], [0.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([plane], kappa=0.007)
        st = AircraftState(0.0, 0.0, 0.0, 0.15, 0.0, math.pi / 2, 200.0)
        dhdx, _ = grad_h_b(st, 0.0, cset, p, gravity)
        assert abs(dhdx[3]) > 1e-6

    def test_gradient_reduces_to_extension_at_zero_gap(self, gravity):
        p = table_params()
        cset = canceling_planes()
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, math.pi / 2, 150.0)
        dhdx, dhdt = grad_h_b(st, 0.0, cset, p, gravity)
        r, phi, theta, psi, V_T, td = dm.seed_state_time(st.as_array(), 0.0)
        from fwrta.model import velocity_vec

        v = velocity_vec(theta, psi, V_T)
        he, *_ = compose_extended_terms(r, v, td, cset, p.gamma_p)
        np.testing.assert_allclose(dhdx, he.e[:7], atol=1e-12)
        assert dhdt == pytest.approx(float(he.e[7]), abs=1e-12)

    def test_first_order_pass_carries_no_curvature(self, rng, gravity):
        # the 8-seed gradient must stay first order: curvature would
        # double the cost of every dual operation in rta_backstepping
        st = random_state(rng, theta_max=1.0, phi_max=1.2)
        cset = random_constraint_set(rng, st.r)
        outs = _pipeline(*dm.seed_state_time(st.as_array(), 1.0), cset, table_params(), gravity)
        assert all(isinstance(x, dm.Dual) and x.h is None for x in outs)


class TestRta:
    def test_inactive_far_from_constraints(self, gravity):
        p = table_params()
        plane = GeofencePlane([0.0, 50000.0, 0.0], [0.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([plane], kappa=0.007)
        st = AircraftState(0.0, 0.0, 0.0, 0.05, 0.02, math.pi / 2, 160.0)
        u_d = ControlInput(0.4, -0.02, 0.01)
        res = rta_backstepping(st, 0.0, u_d, cset, p, gravity)
        assert res.u == u_d
        assert res.h_b <= res.h_e

    def test_all_channels_respond_when_active(self, rng, gravity):
        p = table_params()
        plane = GeofencePlane([0.0, 1500.0, 0.0], [0.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([plane], kappa=0.007)
        st = AircraftState(0.0, 0.0, 0.0, 0.2, 0.05, math.pi / 2, 250.0)
        u_d = ControlInput(0.0, 0.0, 0.0)
        res = rta_backstepping(st, 0.0, u_d, cset, p, gravity)
        u = res.u.as_array()
        assert res.residual >= -1e-6
        assert np.all(u != 0.0)
