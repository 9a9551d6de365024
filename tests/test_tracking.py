import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    AcceleratingGoal,
    AcceleratingObstacle,
    SafeCommand,
    accel_matrix,
    certificate_duals,
    desired_velocity,
    dubins_rhs,
    dynamics,
    random_state,
    safe_velocity,
    safe_velocity_seeded,
    state_from_array,
    tracking_params,
    turn_rate,
    velocity,
)
from fwrta import kernels
from fwrta.constraints import ConstraintSet, GeofencePlane, MovingObstacle, compose_h_p
from fwrta.errors import CoincidentPosition, ZeroDesiredVelocity
from fwrta.model import AircraftState, ControlInput, GravityParam, TrackContext
from fwrta.modelfree import ModelFreeParams, safe_velocity_from_terms
from fwrta.tracking import (
    GoalCommand,
    GoalTrajectory,
    SafeVelocityCommand,
    TrackingParams,
    solve_roll_qp,
    track,
)

TABLE = tracking_params(0.05, 0.3, 1e-5, 0.2)
EAST_GOAL = GoalTrajectory([0.0, 161.32, 0.0])
NORTH_GOAL = GoalTrajectory([120.0, 0.0, 0.0])


def goal_through(st, a):
    """Goal at ``st``'s position and velocity at t = 0 with constant acceleration ``a``.

    Tracking it leaves no velocity error at t = 0, so the tracker's
    desired acceleration is exactly ``a``.
    """
    return AcceleratingGoal(st.r, velocity(st), a)


def tracked_accel(st, t, cmd, g):
    """The tracker's desired acceleration, ``M_a (A_T, Q, R_d)``."""
    res = track(st, t, cmd, TABLE, g)
    return accel_matrix(st) @ np.array([res.u.A_T, res.u.Q, res.R_d])


def command_at(cmd, st, t, g):
    """``(v_c, a_c)`` of a command at ``(st, t)``."""
    return tuple(np.array(x) for x in cmd.command_jet(TrackContext(st, t, g))[:2])


def roll_qp_oracle(a, b, grid=2_000_001):
    """Independent scalar solver: feasibility reasoning, no closed form."""
    if b == 0.0:
        return 0.0
    # the feasible set {p : a + b p <= 0} is a half-line; the minimum
    # magnitude point is 0 if feasible at 0, else the boundary
    if a <= 0.0:
        return 0.0
    return -a / b


class TestDesiredVelocity:
    def test_zero_position_error(self):
        r = EAST_GOAL.eval(7.0)[0]
        np.testing.assert_allclose(desired_velocity(r, 7.0, EAST_GOAL, TABLE), [0, 161.32, 0], atol=1e-12)

    def test_table_numbers_at_origin(self):
        np.testing.assert_allclose(desired_velocity(np.zeros(3), 0.0, EAST_GOAL, TABLE), [0, 161.32, 0])

    def test_offset_linearity(self, rng):
        delta = rng.normal(size=3) * 40
        t = 3.0
        r_g, v_g, _ = EAST_GOAL.eval(t)
        v = desired_velocity(np.subtract(r_g, delta), t, EAST_GOAL, TABLE)
        np.testing.assert_allclose(v, np.asarray(v_g) + np.asarray(TABLE.K_r) @ delta, rtol=1e-13)


class TestDesiredAccel:
    def test_converged(self, gravity):
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 120.0)
        cmd = GoalCommand(GoalTrajectory([120.0, 0.0, 0.0]), TABLE)
        np.testing.assert_allclose(tracked_accel(st, 0.0, cmd, gravity), np.zeros(3), atol=1e-13)

    def test_half_gain_on_error(self, gravity):
        # unit velocity error through K_v = 0.3 I gives 0.15
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 119.0)
        cmd = GoalCommand(GoalTrajectory([120.0, 0.0, 0.0]), TABLE)
        a_d = tracked_accel(st, 0.0, cmd, gravity)
        # a_c = K_r (v_g - v) contributes too; subtract it for the check
        a_c = TABLE.K_r @ (np.array([120.0, 0, 0]) - velocity(st))
        np.testing.assert_allclose(a_d - a_c, [0.15, 0.0, 0.0], atol=1e-12)

    def test_error_energy_decays_under_virtual_accel(self, rng, gravity):
        # flying the designed acceleration while the command moves at its
        # own rate drives the error energy down at least at the certified rate
        cmd = GoalCommand(EAST_GOAL, TABLE)
        for _ in range(50):
            st = random_state(rng)
            res = track(st, 1.0, cmd, TABLE, gravity)
            a_d = tracked_accel(st, 1.0, cmd, gravity)
            v_c, a_c, v = np.array(res.jet[0]), np.array(res.jet[1]), velocity(st)
            V0 = 0.5 * float((v_c - v) @ (v_c - v))
            h = 1e-6
            e1 = (v_c + h * a_c) - (v + h * a_d)
            dV = (0.5 * float(e1 @ e1) - V0) / h
            assert dV <= -TABLE.lam * V0 + 1e-6


def converted(st, a, g):
    """``(A_T, Q, R_d)`` the tracker converts the desired acceleration ``a`` to."""
    res = track(st, 0.0, GoalCommand(goal_through(st, a), TABLE), TABLE, g)
    return res.u.A_T, res.u.Q, res.R_d


class TestAccelConversion:
    def test_zero(self, gravity):
        st = AircraftState(0, 0, 0, 0.3, 0.2, 1.0, 150.0)
        assert converted(st, np.zeros(3), gravity) == (0.0, 0.0, 0.0)

    def test_level_east_deceleration_sign(self, gravity):
        V = 161.32
        st = AircraftState(0, 0, 0, 0.0, 0.0, math.pi / 2, V)
        A_T, Q, R_d = converted(st, [-2.5, 0.0, 0.0], gravity)
        assert A_T == pytest.approx(0.0, abs=1e-13)
        assert Q == pytest.approx(0.0, abs=1e-13)
        assert R_d == pytest.approx(2.5 / V, rel=1e-12)

    def test_roundtrip_residual(self, rng, gravity):
        for _ in range(200):
            st = random_state(rng)
            a_d = rng.normal(size=3) * 10
            A_T, Q, R_d = converted(st, a_d, gravity)
            recon = accel_matrix(st) @ np.array([A_T, Q, R_d])
            assert np.abs(recon - a_d).max() <= 1e-10 * max(1.0, np.abs(a_d).max())


class TestClfValue:
    def test_zero_at_equilibrium(self, gravity):
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 120.0)
        cmd = GoalCommand(NORTH_GOAL, TABLE)
        assert track(st, 0.0, cmd, TABLE, gravity).V == 0.0

    def test_lower_bound_by_error_energy(self, rng, gravity):
        cmd = GoalCommand(EAST_GOAL, TABLE)
        for _ in range(100):
            st = random_state(rng)
            v_c, _ = command_at(cmd, st, 1.0, gravity)
            V = track(st, 1.0, cmd, TABLE, gravity).V
            assert V >= 0.5 * float((v_c - velocity(st)) @ (v_c - velocity(st))) - 1e-12


class TestRollRate:
    def test_closed_form_against_oracle(self, rng):
        for _ in range(5000):
            a = float(rng.uniform(-20, 20))
            b = float(rng.uniform(-5, 5)) * rng.choice([0.0, 1.0])
            assert abs(solve_roll_qp(a, b) - roll_qp_oracle(a, b)) <= 1e-12

    def test_example_values(self):
        assert solve_roll_qp(1.0, 2.0) == pytest.approx(-0.5, abs=1e-15)
        assert solve_roll_qp(-3.0, 2.0) == 0.0
        assert solve_roll_qp(5.0, 0.0) == 0.0

    def test_converged_state_needs_no_roll(self, gravity):
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 120.0)
        assert track(st, 0.0, GoalCommand(NORTH_GOAL, TABLE), TABLE, gravity).u.P == 0.0


class TestTrack:
    def test_equilibrium_inputs_are_zero(self, gravity):
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 120.0)
        res = track(st, 0.0, GoalCommand(NORTH_GOAL, TABLE), TABLE, gravity)
        assert res.u == ControlInput(0.0, 0.0, 0.0)
        assert res.V == 0.0

    def test_decay_constraint_satisfied_pointwise(self, rng, gravity):
        cmd = GoalCommand(EAST_GOAL, TABLE)
        for _ in range(200):
            st = random_state(rng)
            res = track(st, float(rng.uniform(0, 10)), cmd, TABLE, gravity)
            assert res.residual <= 1e-8 * max(1.0, abs(res.a_P))

    def test_matches_clf_value(self, rng, gravity):
        cmd = GoalCommand(EAST_GOAL, TABLE)
        for _ in range(50):
            st = random_state(rng)
            res = track(st, 2.0, cmd, TABLE, gravity)
            e_v, _, _, R_d, R = certificate_duals(cmd, st, 2.0, TABLE, gravity)
            V = 0.5 * float(e_v.v @ e_v.v) + (R_d.v - R.v) * (R_d.v - R.v) / (2.0 * TABLE.mu)
            assert res.V == pytest.approx(V, rel=1e-12)


def planar_cset():
    obs = MovingObstacle([-3048.0, 0.0, 0.0], [121.92, 161.32, 0.0], 30.0)
    p2 = GeofencePlane([0.0, 11901.0, 0.0], [-4.0, -1.0, 0.0], 15.0)
    p3 = GeofencePlane([0.0, 11901.0, 0.0], [-2.0, -1.0, 0.0], 15.0)
    return ConstraintSet([obs, p2, p3], kappa=0.007)


def safe_cmd():
    return SafeCommand(EAST_GOAL, TABLE, planar_cset(), ModelFreeParams(0.1, 3.0, 4.0, 0.007))


def fd_command_rate(cmd, st, t, g, h=1e-4):
    """Finite-difference rate of the command along the actual flow."""
    u = track(st, t, cmd, TABLE, g).u.as_array()
    xp = kernels.rk4_step(st.as_array(), u, h, g.g_d)
    xm = kernels.rk4_step(st.as_array(), u, -h, g.g_d)
    vp, _ = command_at(cmd, state_from_array(xp), t + h, g)
    vm, _ = command_at(cmd, state_from_array(xm), t - h, g)
    return (vp - vm) / (2 * h)


class TestCommandRates:
    @pytest.mark.parametrize("make_cmd", [lambda: GoalCommand(EAST_GOAL, TABLE), safe_cmd])
    def test_a_c_matches_flow_derivative(self, make_cmd, rng, gravity):
        cmd = make_cmd()
        for _ in range(15):
            st = AircraftState(
                n=float(rng.uniform(-500, 500)),
                e=float(rng.uniform(-500, 3000)),
                d=float(rng.uniform(-200, 200)),
                phi=float(rng.uniform(-0.4, 0.4)),
                theta=float(rng.uniform(-0.3, 0.3)),
                psi=float(rng.uniform(0.5, 2.5)),
                V_T=float(rng.uniform(100, 220)),
            )
            t = float(rng.uniform(0, 10))
            _, a_c = command_at(cmd, st, t, gravity)
            fd = fd_command_rate(cmd, st, t, gravity)
            assert np.linalg.norm(a_c - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))

    @pytest.mark.parametrize("make_cmd", [lambda: GoalCommand(EAST_GOAL, TABLE), safe_cmd])
    def test_command_jet_matches_finite_differences(self, make_cmd, rng, gravity):
        # certifies the second-order bridge used for the safe command: the
        # jet's rate of a_c along the flown loop, J v_dot + j0
        cmd = make_cmd()
        for _ in range(8):
            st = AircraftState(
                n=float(rng.uniform(-500, 500)),
                e=float(rng.uniform(-500, 3000)),
                d=float(rng.uniform(-200, 200)),
                phi=float(rng.uniform(-0.4, 0.4)),
                theta=float(rng.uniform(-0.3, 0.3)),
                psi=float(rng.uniform(0.5, 2.5)),
                V_T=float(rng.uniform(100, 220)),
            )
            t = 1.5
            u = track(st, t, cmd, TABLE, gravity).u
            _, a_c, rate = cmd.command_jet(TrackContext(st, t, gravity))
            v_dot = accel_matrix(st) @ np.array([u.A_T, u.Q, turn_rate(st, gravity)])
            h = 1e-5
            x0 = st.as_array()
            x_dot = dynamics(st, u, gravity)
            vp, ap = command_at(cmd, state_from_array(x0 + h * x_dot), t + h, gravity)
            vm, am = command_at(cmd, state_from_array(x0 - h * x_dot), t - h, gravity)
            np.testing.assert_allclose(a_c, (vp - vm) / (2 * h), rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(rate(v_dot), (ap - am) / (2 * h), rtol=1e-4, atol=5e-5)


def dual_track_oracle(cmd, st, t, g):
    """``(u, a_P, b_P)`` with the rate coefficients read off 8-seed duals."""
    e_v_dual, A_T_dual, Q_dual, R_d_dual, R_dual = certificate_duals(cmd, st, t, TABLE, g)
    A_T, Q, R_d, R = A_T_dual.v, Q_dual.v, R_d_dual.v, R_dual.v
    e_v = e_v_dual.v
    gap = R_d - R
    xdot0 = dubins_rhs(st.as_array(), (A_T, 0.0, Q), g.g_d)
    f_R = float(R_dual.e[:7] @ xdot0) + float(R_dual.e[7])
    f_Rd = float(R_d_dual.e[:7] @ xdot0) + float(R_d_dual.e[7])
    g_R, g_Rd = float(R_dual.e[3]), float(R_d_dual.e[3])
    M_R = st.V_T * np.array(TrackContext(st, t, g).c1)
    a_P = (
        -0.5 * float(e_v @ (TABLE.K_v @ e_v))
        + float(e_v @ M_R) * gap
        + gap * (f_Rd - f_R) / TABLE.mu
        + 0.5 * TABLE.lam * (float(e_v @ e_v) + gap * gap / TABLE.mu)
    )
    b_P = gap * (g_Rd - g_R) / TABLE.mu
    return np.array([A_T, solve_roll_qp(a_P, b_P), Q]), a_P, b_P


@pytest.mark.parametrize("make_cmd", [lambda: GoalCommand(EAST_GOAL, TABLE), safe_cmd])
def test_closed_form_track_matches_dual_oracle(make_cmd, rng, gravity):
    cmd = make_cmd()
    for _ in range(200):
        st = random_state(rng, v_range=(80.0, 250.0), theta_max=0.6, pos_scale=3000.0)
        t = float(rng.uniform(0.0, 10.0))
        res = track(st, t, cmd, TABLE, gravity)
        u, a_P, b_P = dual_track_oracle(cmd, st, t, gravity)
        np.testing.assert_allclose(res.u.as_array(), u, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose([res.a_P, res.b_P], [a_P, b_P], rtol=1e-9, atol=0.0)


def _unit(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def _member_near(rng, kind, r, t, v_d):
    """An obstacle or plane a short gap from ``r`` at time ``t``, mostly ahead along ``v_d``.

    The obstacle accelerates, so its ``a_i`` terms count.
    """
    ahead = v_d / np.linalg.norm(v_d)
    direction = ahead if rng.uniform() < 0.5 else _unit(rng)
    gap = rng.uniform(1.0, 400.0)
    if kind == "obstacle":
        rho = rng.uniform(10.0, 80.0)
        c, v, a = r + direction * (rho + gap), rng.uniform(-100, 100, 3), rng.normal(size=3) * 5.0
        return AcceleratingObstacle(c, t, v, a, rho)
    margin = rng.uniform(0.0, 30.0)
    return GeofencePlane(r + direction * (gap + margin), -direction, margin)


def _jet_and_oracle(cmd, st, t, v_dot):
    """``(v_s, D_w v_s, D_ww v_s, J_r v_dot)`` from the jet and from the curvature ``Dual``."""
    ctx = TrackContext(st, t, GravityParam())
    v_s, a_c, rate = cmd.command_jet(ctx)
    d_ww = rate(np.zeros(3))
    ref = safe_velocity_seeded(cmd, st.r, t, ctx.v)
    got = (v_s, a_c, d_ww, np.subtract(rate(v_dot), d_ww))
    return tuple(np.array(x) for x in got), (ref.v, ref.e[:, 0], ref.h[:, 0], ref.e[:, 1:] @ v_dot)


def _assert_rel(got, ref, rtol=1e-9):
    for name, x, y in zip(("v_s", "D_w v_s", "D_ww v_s", "J_r v_dot"), got, ref):
        assert np.linalg.norm(x - y) <= rtol * np.linalg.norm(y), name


def test_safe_command_jet_matches_curvature_oracle(rng):
    # the plain-float Taylor jets against the curvature-Dual pass they
    # replace, on states where the filter acts: 1-member sets of each
    # kind and 3-member sets with one or two obstacles (two compose two
    # obstacle tangents), in both branches of softplus
    mf = ModelFreeParams(0.1, 3.0, 4.0, 0.007)
    kinds = {
        "obstacle": ("obstacle",),
        "plane": ("plane",),
        "mixed": ("obstacle", "plane", "plane"),
        "obstacles": ("obstacle", "obstacle", "plane"),
    }
    seen = {(k, b): 0 for k in kinds for b in (True, False)}
    while min(seen.values()) < 35:
        st = random_state(rng, v_range=(80.0, 250.0), theta_max=0.6, pos_scale=3000.0)
        t = float(rng.uniform(0.0, 10.0))
        a_g = rng.normal(size=3) * 2.0
        v0 = _unit(rng) * rng.uniform(60.0, 250.0)
        r0 = st.r + rng.normal(size=3) * 100.0 - v0 * t - 0.5 * a_g * t * t
        goal = AcceleratingGoal(r0, v0, a_g)
        v_d = desired_velocity(st.r, t, goal, TABLE)
        kind = list(kinds)[int(rng.integers(len(kinds)))]
        members = [_member_near(rng, m, st.r, t, v_d) for m in kinds[kind]]
        cmd = SafeCommand(goal, TABLE, ConstraintSet(members, float(rng.uniform(0.004, 0.05))), mf)
        plain = safe_velocity(st.r, t, v_d, cmd.cset, mf)
        if np.linalg.norm(plain.u - v_d) < 1e-3 * np.linalg.norm(v_d):
            continue  # the filter barely acts here
        seen[(kind, plain.a < 0.0)] += 1  # a_v < 0: softplus argument positive
        _assert_rel(*_jet_and_oracle(cmd, st, t, rng.normal(size=3) * 10.0))
    assert sum(seen.values()) >= 200


def test_safe_command_jet_zero_row_matches_oracle(rng):
    # opposite planes at equal distance cancel the composed gradient
    # exactly; both paths then return the desired velocity's jet
    for _ in range(20):
        n = _unit(rng)
        D = rng.uniform(50.0, 500.0)
        planes = [GeofencePlane(-n * D, n, 10.0), GeofencePlane(n * D, -n, 10.0)]
        st = dataclasses.replace(random_state(rng, v_range=(80.0, 250.0), theta_max=0.6), n=0.0, e=0.0, d=0.0)
        mf = ModelFreeParams(0.1, 3.0, 4.0, 0.007)
        cmd = SafeCommand(NORTH_GOAL, TABLE, ConstraintSet(planes, 0.01), mf)
        got, ref = _jet_and_oracle(cmd, st, 2.0, rng.normal(size=3))
        np.testing.assert_array_equal(got[0], desired_velocity(st.r, 2.0, NORTH_GOAL, TABLE))
        _assert_rel(got, ref)


def test_safe_command_jet_raises_like_the_oracle(gravity):
    st = AircraftState(100.0, 200.0, -50.0, 0.1, 0.05, 0.3, 150.0)
    mf = ModelFreeParams(0.1, 3.0, 4.0, 0.007)
    far = GeofencePlane([0.0, 5000.0, 0.0], [0.0, -1.0, 0.0], 10.0)
    # 1e-10 m off the center: inside the guard
    on_top = MovingObstacle(np.add(st.r, [1e-10, 0.0, 0.0]), [10.0, 0.0, 0.0], 30.0)
    parked = GoalTrajectory([0.0, 0.0, 0.0], r0=st.r)
    cases = [
        (EAST_GOAL, [on_top, far], 0.0, CoincidentPosition, "within 1e-09 m of obstacle center"),
        (parked, [far], 3.0, ZeroDesiredVelocity, "desired velocity too small for the direction projector"),
    ]
    for goal, members, t, exc, message in cases:
        cmd = SafeCommand(goal, TABLE, ConstraintSet(members, 0.01), mf)
        with pytest.raises(exc, match=message):
            cmd.command_jet(TrackContext(st, t, gravity))
        with pytest.raises(exc, match=message):
            safe_velocity_seeded(cmd, st.r, t, velocity(st))


def test_commands_sharing_a_frame_match_fresh_frames(rng, gravity):
    # a model-free step tracks two commands in one frame: the goal command, then the
    # safe command of the goal track's jet, the composition and the filter's zeroth
    # order, all at that frame.  Each track on the shared frame equals the same
    # track on a fresh frame of the same (x, t), on other goals, gains and sets too
    mf = ModelFreeParams(0.1, 3.0, 4.0, 0.007)
    cset = ConstraintSet([GeofencePlane([0.0, 5000.0, 0.0], [0.0, -1.0, 0.0], 10.0)], 0.01)
    other_cset = ConstraintSet([GeofencePlane([0.0, 4000.0, 0.0], [0.0, -1.0, 0.0], 10.0)], 0.01)
    other_gains = tracking_params(0.08, 0.3, 1e-5, 0.2)
    goal_cmd = GoalCommand(EAST_GOAL, TABLE)
    cmds = [goal_cmd, SafeCommand(EAST_GOAL, TABLE, cset, mf), SafeCommand(EAST_GOAL, TABLE, other_cset, mf),
            GoalCommand(NORTH_GOAL, TABLE), GoalCommand(NORTH_GOAL, other_gains)]
    for _ in range(20):
        st = random_state(rng, v_range=(80.0, 250.0), theta_max=0.6, pos_scale=3000.0)
        t = float(rng.uniform(0.0, 10.0))
        shared = TrackContext(st, t, gravity)
        for cmd in cmds:
            got, want = track(st, t, cmd, TABLE, gravity, ctx=shared), track(st, t, cmd, TABLE, gravity)
            assert (got.u, got.jet[:2]) == (want.u, want.jet[:2])
        # the step's chain on the shared frame: the safe track reads the zeroth order passed in
        tr_d = track(st, t, goal_cmd, TABLE, gravity, ctx=shared)
        pos = compose_h_p(shared, cset)
        zeroth = safe_velocity_from_terms(pos, tr_d.jet[0], mf)
        got = track(st, t, SafeVelocityCommand(tr_d.jet, pos, zeroth, mf), TABLE, gravity, ctx=shared)
        want = track(st, t, SafeCommand(EAST_GOAL, TABLE, cset, mf), TABLE, gravity)
        assert (got.u, got.jet[:2]) == (want.u, want.jet[:2]) and got.jet[0] is zeroth[0].u


def test_tracking_params_validation():
    with pytest.raises(ValueError):
        tracking_params(0.05, 0.3, -1.0, 0.2)
    with pytest.raises(ValueError):
        tracking_params(0.05, 0.3, 1e-5, 0.4)  # lam > min eig K_v
    with pytest.raises(ValueError):
        TrackingParams(np.eye(3) * 0.05, -0.3 * np.eye(3), 1e-5, 0.2)
