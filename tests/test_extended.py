import dataclasses
import math

import numpy as np
import pytest

import dual_formulas as df
import dualnum as dm
from conftest import (
    AcceleratingObstacle,
    composed,
    jets_at,
    random_constraint_set,
    random_state,
    state_from_array,
    velocity,
)
from fwrta.constraints import ZERO3, ConstraintSet, GeofencePlane, MovingObstacle, h_geofence, member_jet1
from fwrta.extended import (
    ExtendedParams,
    _affine_terms,
    compose_extended_terms,
    member_extended_terms,
    member_frame_rates,
    rta_extended,
)
from fwrta.filters import WeightFactor
from fwrta.model import AircraftState, ControlInput, TrackContext
from fwrta import kernels

TABLE_PLANE_2 = GeofencePlane([0.0, 11901.0, 0.0], [-4.0, -1.0, 0.0], 15.0)
TABLE_OBSTACLE = MovingObstacle([-3048.0, 0.0, 0.0], [121.92, 161.32, 0.0], 30.0)


def extended_value(r, v, t, member, gamma_p):
    return member_extended_terms(member_jet1(r, t, v, member), v, gamma_p)[0]


def table_params():
    return ExtendedParams(gamma_p=0.1, gamma=0.1, W=WeightFactor.diagonal([6.0, 0.6, 0.1]))


class TestMember:
    def test_geofence_orthogonal_velocity(self, rng):
        n = np.asarray(TABLE_PLANE_2.normal)
        v = rng.normal(size=3)
        v -= n * (n @ v)
        r = rng.uniform(-100, 100, size=3)
        assert extended_value(r, v, 0.0, TABLE_PLANE_2, 0.1) == pytest.approx(
            h_geofence(r, TABLE_PLANE_2), abs=1e-10
        )

    def test_collision_zero_relative_velocity(self):
        v_i = np.array([121.92, 161.32, 0.0])
        r = np.array([100.0, 50.0, -20.0])
        assert extended_value(r, v_i, 0.0, TABLE_OBSTACLE, 0.1) == pytest.approx(
            member_jet1(r, 0.0, ZERO3, TABLE_OBSTACLE)[0][0], abs=1e-10
        )

    def test_table_plane_arithmetic(self):
        v = np.array([0.0, 161.32, 0.0])
        expected = (11901.0 / math.sqrt(17.0) - 15.0) + 10.0 * (-161.32 / math.sqrt(17.0))
        got = extended_value(np.zeros(3), v, 0.0, TABLE_PLANE_2, 0.1)
        assert got == pytest.approx(expected, rel=1e-14)


def generic_extended_terms(jet1, v, gamma_p):
    """:func:`member_extended_terms`' general (obstacle) formula, run on any member's jet."""
    g = 1.0 / gamma_p
    (h0, h1), (n0, n1), (d0, d1), _ = jet1
    nx, ny, nz = n0
    gx, gy, gz = nx + n1[0] * g, ny + n1[1] * g, nz + n1[2] * g
    return [h0 + h1 * g, (gx * v[0] + gy * v[1] + gz * v[2]) + (d0 + d1 * g), nx * g, ny * g, nz * g]


def generic_plane_frame_rates(jet1, gamma_p, ctx):
    """:func:`member_frame_rates`' general formulas run on a plane's jet, with the plane's
    second order ``(n . 0, ZERO3, 0.0)`` and no separation term."""
    g = 1.0 / gamma_p
    (_, h1), (n0, n1), (_, d1), _ = jet1
    v = ctx.v
    (ax, ay, az), (fx, fy, fz), (qx, qy, qz) = ctx.c0, ctx.c1, ctx.c2
    (nx, ny, nz), (mx, my, mz) = n0, n1
    gx, gy, gz = nx + mx * g, ny + my * g, nz + mz * g
    n_a, n_f, n_q = (nx * ax + ny * ay + nz * az), (nx * fx + ny * fy + nz * fz), (nx * qx + ny * qy + nz * qz)
    r_a, r_f, r_q = (gx * ax + gy * ay + gz * az), (gx * fx + gy * fy + gz * fz), (gx * qx + gy * qy + gz * qz)
    h2, n2, d2 = (nx * 0.0 + ny * 0.0 + nz * 0.0), ZERO3, 0.0
    V, VR = ctx.V_T, ctx.V_T * ctx.R
    e_d = ((mx + n2[0] * g) * v[0] + (my + n2[1] * g) * v[1] + (mz + n2[2] * g) * v[2]) + d1 + d2 * g
    return (h1 + h2 * g + VR * n_f * g, e_d + VR * r_f), (n_a * g, r_a), (-V * n_q * g, -V * r_q)


def test_plane_closed_forms_match_generic_formulas(rng, gravity):
    # a plane's gradient is constant and its time-partial zero: its closed-form terms and
    # frame rates equal the obstacle formulas run with n' = 0, d = (0, 0) and a zero
    # second order
    planes = [TABLE_PLANE_2, GeofencePlane([0.0, 0.0, -50.0], [0.0, 0.0, 1.0], 0.0)]
    for _ in range(20):
        normal = rng.normal(size=3)
        planes.append(GeofencePlane(rng.uniform(-3000, 3000, size=3), normal / np.linalg.norm(normal),
                                    rng.uniform(0.0, 30.0)))
    for plane in planes:
        for _ in range(10):
            ctx = TrackContext(random_state(rng), float(rng.uniform(0.0, 60.0)), gravity)
            gamma_p = float(rng.uniform(0.05, 2.0))
            jet = member_jet1(ctx.r, ctx.t, ctx.v, plane)
            assert jet[1][1] == ZERO3 and jet[2] == (0.0, 0.0) and jet[3] is None
            assert member_extended_terms(jet, ctx.v, gamma_p) == generic_extended_terms(jet, ctx.v, gamma_p)
            assert member_frame_rates(jet, gamma_p, ctx) == generic_plane_frame_rates(jet, gamma_p, ctx)


class TestComposed:
    def test_single_member_identity(self):
        cset = ConstraintSet([TABLE_PLANE_2], kappa=0.007)
        p = table_params()
        v = np.array([10.0, -5.0, 2.0])
        h, _, gv, _, w, _ = compose_extended_terms(jets_at(np.zeros(3), 0.0, v, cset), v, cset.kappa, p.gamma_p)
        assert h == extended_value(np.zeros(3), v, 0.0, TABLE_PLANE_2, 0.1)
        np.testing.assert_allclose(gv, np.asarray(TABLE_PLANE_2.normal) / 0.1, atol=1e-15)
        assert w == [1.0]

    def test_weights_sum(self, rng):
        p = table_params()
        for _ in range(50):
            r = rng.uniform(-500, 500, size=3)
            cset = random_constraint_set(rng, r)
            v = rng.uniform(-100, 100, size=3)
            w = compose_extended_terms(jets_at(r, 1.0, v, cset), v, cset.kappa, p.gamma_p)[4]
            assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        p = table_params()
        for _ in range(40):
            r = rng.uniform(-500, 500, size=3)
            v = rng.uniform(-150, 150, size=3)
            t = float(rng.uniform(0, 20))
            cset = random_constraint_set(rng, r)

            def val(rr, vv, tt):
                return compose_extended_terms(jets_at(rr, tt, vv, cset), vv, cset.kappa, p.gamma_p)[0]

            _, D, gv, _, _, _ = compose_extended_terms(jets_at(r, t, v, cset), v, cset.kappa, p.gamma_p)
            h = 1e-4
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (val(r, v + e, t) - val(r, v - e, t)) / (2 * h)
                assert gv[i] == pytest.approx(fd, rel=1e-6, abs=1e-7)
            # the rate at fixed velocity, along (r + tau v, t + tau)
            fd = (val(r + h * v, v, t + h) - val(r - h * v, v, t - h)) / (2 * h)
            assert D == pytest.approx(fd, rel=1e-6, abs=1e-7)


class TestAffine:
    def test_roll_entry_is_structurally_zero(self, rng, gravity):
        p = table_params()
        for _ in range(100):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            _, _, row = _affine_terms(*composed(st, 0.5, cset, gravity), p)
            assert row[1] == 0.0

    def test_rate_matches_trajectory_finite_difference(self, rng, gravity):
        p = table_params()
        for _ in range(30):
            st = random_state(rng, theta_max=0.9, phi_max=1.0)
            cset = random_constraint_set(rng, st.r)
            u = rng.uniform(-2, 2, size=3)
            t0 = float(rng.uniform(0, 5))
            _, drift, row = _affine_terms(*composed(st, t0, cset, gravity), p)
            rate = drift + row @ u

            def h_at(x_arr, t):
                s = state_from_array(x_arr)
                v = velocity(s)
                return compose_extended_terms(jets_at(s.r, t, v, cset), v, cset.kappa, p.gamma_p)[0]

            dt = 1e-4
            xp = kernels.rk4_step(st.as_array(), u, dt, gravity.g_d)
            xm = kernels.rk4_step(st.as_array(), u, -dt, gravity.g_d)
            fd = (h_at(xp, t0 + dt) - h_at(xm, t0 - dt)) / (2 * dt)
            assert rate == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_wings_level_thrust_row_is_projected_normal(self, rng, gravity):
        # A_T entry equals (1/gamma_p) (weighted normal) . (unit velocity),
        # cross-checked through a dual-number chain-rule oracle
        p = table_params()
        for _ in range(20):
            st = AircraftState(
                n=float(rng.uniform(-500, 500)),
                e=float(rng.uniform(-500, 500)),
                d=float(rng.uniform(-500, 500)),
                phi=0.0,
                theta=0.0,
                psi=float(rng.uniform(-np.pi, np.pi)),
                V_T=float(rng.uniform(80, 250)),
            )
            cset = random_constraint_set(rng, st.r)
            _, _, row = _affine_terms(*composed(st, 0.0, cset, gravity), p)
            v = velocity(st)
            gv = compose_extended_terms(jets_at(st.r, 0.0, v, cset), v, cset.kappa, p.gamma_p)[2]
            v_hat = velocity(st) / st.V_T
            assert row[0] == pytest.approx(float(gv @ v_hat), rel=1e-10, abs=1e-12)
            # dual oracle: d h_e / d V_T along the speed channel
            E = np.eye(1)
            V_dual = dm.Dual(st.V_T, E[0])
            v_dual = dm.stack(
                [
                    V_dual * math.cos(st.theta) * math.cos(st.psi),
                    V_dual * math.cos(st.theta) * math.sin(st.psi),
                    -V_dual * math.sin(st.theta),
                ]
            )
            h_dual, *_ = df.compose_extended_terms(st.r, v_dual, 0.0, cset, p.gamma_p)
            assert row[0] == pytest.approx(float(h_dual.e[0]), rel=1e-9, abs=1e-12)


class TestRta:
    def test_inactive_far_from_constraints(self, rng, gravity):
        p = table_params()
        st = AircraftState(0, 0, 0, 0.05, 0.02, 1.2, 160.0)
        cset = ConstraintSet([TABLE_PLANE_2], kappa=0.007)
        u_d = ControlInput(0.5, -0.01, 0.02)
        ctx, pos = composed(st, 0.0, cset, gravity)
        _, res = rta_extended(ctx, u_d, pos, p)
        assert res.u == u_d
        assert not res.infeasible

    def test_roll_transparency_bit_exact(self, rng, gravity):
        p = table_params()
        active = 0
        for _ in range(200):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            u_d = ControlInput(*rng.uniform(-5, 5, size=3))
            ctx, pos = composed(st, float(rng.uniform(0, 10)), cset, gravity)
            # signed zeros too: where the filter acts, P_d + lam * 0.0 would turn -0.0 into +0.0
            for P_d in (u_d.P, -0.0, 0.0):
                _, res = rta_extended(ctx, ControlInput(u_d.A_T, P_d, u_d.Q), pos, p)
                assert res.u.P == P_d
                assert math.copysign(1.0, res.u.P) == math.copysign(1.0, P_d)
            active += res.lam > 0
        assert active > 0

    def test_residual_nonnegative_when_feasible(self, rng, gravity):
        # hard filter: achieved rate + decay is max(a, 0) >= 0
        p = table_params()
        count_active = 0
        for _ in range(200):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            u_d = ControlInput(*rng.uniform(-5, 5, size=3))
            ctx, pos = composed(st, 0.0, cset, gravity)
            _, res = rta_extended(ctx, u_d, pos, p)
            if not res.infeasible:
                assert res.slack >= -1e-6
            if res.lam > 0:
                count_active += 1
        assert count_active > 0


def oracle_members(rng, r):
    """An obstacle with nonzero acceleration, a constant-velocity obstacle and a plane near ``r``."""
    c, v0, a = r + rng.uniform(300.0, 900.0, 3), rng.uniform(-100.0, 100.0, 3), rng.uniform(-8.0, 8.0, 3)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return [
        AcceleratingObstacle(c, 0.0, v0, a, 30.0),
        MovingObstacle(r - rng.uniform(300.0, 900.0, 3), rng.uniform(-100.0, 100.0, 3), 40.0),
        GeofencePlane(r + n * rng.uniform(200.0, 900.0), -n, 10.0),
    ]


def seed_rate(x):
    """Derivative along the one dual seed, zeros for a constant."""
    return x.e[..., 0] if isinstance(x, dm.Dual) else np.zeros(np.shape(x))


def extended_entries(r, v, t, member, gamma_p):
    """``(E, D, gv)`` of the oracle's extended member: ``D = grad_r . v + dt``."""
    h, grad_r, gv, dt = df.member_extended_terms(r, v, t, member, gamma_p)
    return h, dm.dot(grad_r, v) + dt, gv


@pytest.mark.parametrize("phi", [0.0, 1.0, 0.5])
def test_member_tangents_match_dual_oracle(rng, gravity, phi):
    # the frame's drift (V R c1, 1) and input columns (c0, 0), (-V c2, 0), each a
    # pair (dv, tau) moving (r, v, t) by (tau v, dv, tau); wings level, the drift is (0, 1)
    gamma_p = 0.1
    for _ in range(20):
        st = dataclasses.replace(random_state(rng, pos_scale=500.0), phi=phi)
        t = float(rng.uniform(0.0, 10.0))
        ctx = TrackContext(st, t, gravity)
        r, v = np.array(ctx.r), np.array(ctx.v)
        V = ctx.V_T
        dirs = [([V * ctx.R * x for x in ctx.c1], 1.0), (ctx.c0, 0.0), ([-V * x for x in ctx.c2], 0.0)]
        for m in oracle_members(rng, r):
            jet1 = member_jet1(ctx.r, t, ctx.v, m)
            terms = member_extended_terms(jet1, ctx.v, gamma_p)
            want = np.concatenate([np.atleast_1d(x) for x in extended_entries(r, v, t, m, gamma_p)])
            np.testing.assert_allclose(terms, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            rates = member_frame_rates(jet1, gamma_p, ctx)
            assert len(rates) == len(dirs)
            for (dv, tau), got in zip(dirs, rates):
                out = extended_entries(
                    dm.Dual(r.copy(), (tau * v)[:, None]),
                    dm.Dual(v.copy(), np.array(dv)[:, None]),
                    dm.Dual(t, np.array([tau])),
                    m,
                    gamma_p,
                )
                want = np.concatenate([np.atleast_1d(seed_rate(x)) for x in out])
                # (E', D') and the velocity gradient's rate tau n' / gamma_p
                got = np.append(got, [tau * x / gamma_p for x in jet1[1][1]])
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
