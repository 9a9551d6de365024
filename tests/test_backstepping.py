import dataclasses
import itertools
import math

import numpy as np
import pytest

import dual_formulas as df
from conftest import (
    AcceleratingObstacle,
    apply_filter,
    dubins_rhs,
    grad_h_b,
    jets_at,
    penalized_barrier,
    random_constraint_set,
    random_state,
    SafeCommand,
    safe_velocity_seeded,
    seed_state_time,
    state_from_array,
    velocity,
    velocity_vec,
)
from fwrta.backstepping import (
    BacksteppingParams,
    _affine_terms,
    h_b,
    rta_backstepping,
)
from fwrta.constraints import ConstraintSet, GeofencePlane, compose_h_p, member_jet1
from fwrta.errors import CoincidentPosition
from fwrta.extended import ExtendedParams, compose_extended_terms, member_extended_terms
from fwrta.filters import WeightFactor
from fwrta.model import AircraftState, ControlInput, TrackContext
from fwrta.modelfree import ModelFreeParams
from fwrta.scenario import load_scenario


def table_params(mu_e=1e-4):
    return BacksteppingParams(
        ext=ExtendedParams(gamma_p=0.1, gamma=0.1, W=WeightFactor.diagonal([6.0, 0.6, 0.1])),
        gamma_e=0.1,
        W_e=WeightFactor(np.eye(3)),
        nu_e=1.0,
        mu_e=mu_e,
    )


def safe_pieces(st, t, cset, p, g):
    """``(a_s, R_s)``: the safe acceleration and turn rate of the barrier chain."""
    ctx = TrackContext(st, t, g)
    _, a_s, R_s, _ = _affine_terms(ctx, compose_h_p(ctx, cset), p)[0]
    return a_s, R_s


def turn_row(st, g):
    """Turn-rate row ``c1 / V_T`` of the inverse acceleration map."""
    ctx = TrackContext(st, 0.0, g)
    return np.array(ctx.c1) / ctx.V_T


def h_e_at(st, cset, p):
    """Composed extension of ``st`` at ``t = 0``."""
    v = velocity(st)
    return compose_extended_terms(jets_at(st.r, 0.0, v, cset), v, cset.kappa, p.ext.gamma_p)[0]


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
        for _ in range(50):
            st = random_state(rng, pos_scale=200.0)
            cset = random_constraint_set(rng, st.r)
            v = velocity(st)
            h_e, D, gv, _, _, _ = compose_extended_terms(jets_at(st.r, 0.0, v, cset), v, cset.kappa, p.ext.gamma_p)
            a_e = D + p.gamma_e * h_e
            b_e = gv @ np.asarray(p.W_e.W)
            b_norm = np.linalg.norm(b_e)
            if a_e <= 5.0 * b_norm or b_norm == 0.0:
                continue
            a_s, _ = safe_pieces(st, 0.0, cset, p, gravity)
            bound = math.exp(-p.nu_e * a_e / b_norm) / p.nu_e * np.linalg.norm(np.asarray(p.W_e.W) @ b_e) / b_norm
            assert np.linalg.norm(a_s) <= bound * (1 + 1e-9)

    def test_satisfies_acceleration_constraint(self, rng, gravity):
        p = table_params()
        for _ in range(200):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            v = velocity(st)
            h_e, D, gv, _, _, _ = compose_extended_terms(jets_at(st.r, 0.0, v, cset), v, cset.kappa, p.ext.gamma_p)
            a_e = D + p.gamma_e * h_e
            a_s, _ = safe_pieces(st, 0.0, cset, p, gravity)
            achieved = a_e + float(np.dot(gv, a_s))
            assert achieved >= -1e-9 * max(1.0, abs(a_e))


    @pytest.mark.parametrize("W_e", [np.ones(3), np.array([2.0, 0.5, 1.5])])
    def test_is_the_input_filter_on_floats(self, rng, gravity, W_e):
        # the acceleration filter is the input filter's step from zero, smooth at nu_e
        p = dataclasses.replace(table_params(), W_e=WeightFactor.diagonal(W_e))
        active = 0
        for _ in range(100):
            st = random_state(rng, pos_scale=200.0)
            t = float(rng.uniform(0.0, 10.0))
            cset = random_constraint_set(rng, st.r)
            ctx = TrackContext(st, t, gravity)
            jets = jets_at(ctx.r, t, ctx.v, cset)
            h_e, D, gv, _, _, _ = compose_extended_terms(jets, ctx.v, cset.kappa, p.ext.gamma_p)
            a_e = D + p.gamma_e * h_e
            a_s, _ = safe_pieces(st, t, cset, p, gravity)
            np.testing.assert_array_equal(a_s, apply_filter(np.zeros(3), a_e, gv, p.W_e, p.nu_e).u)
            active += bool(np.linalg.norm(a_s) > 1e-3)
        assert active > 0


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
        for _ in range(2000):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            hb = penalized_barrier(st, 0.0, cset, p, gravity)
            he = h_e_at(st, cset, p)
            assert hb <= he + 1e-12

    def test_large_penalty_scale_limit(self, rng, gravity):
        for _ in range(30):
            st = random_state(rng)
            cset = random_constraint_set(rng, st.r)
            hb = penalized_barrier(st, 0.0, cset, table_params(mu_e=1e12), gravity)
            he = h_e_at(st, cset, table_params())
            assert hb == pytest.approx(he, rel=1e-9, abs=1e-8)

    def test_equals_extension_when_gap_vanishes(self, gravity):
        # canceling geometry gives R_s = 0; wings level gives R = 0
        cset = canceling_planes()
        p = table_params()
        st = AircraftState(0.0, 0.0, 0.0, 0.0, 0.0, math.pi / 2, 150.0)
        hb = penalized_barrier(st, 0.0, cset, p, gravity)
        he = h_e_at(st, cset, p)
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
            penalized_barrier(state_from_array(xp), t, cset, p, g)
            - penalized_barrier(state_from_array(xm), t, cset, p, g)
        ) / (2 * h)
    dt = (penalized_barrier(st, t + h, cset, p, g) - penalized_barrier(st, t - h, cset, p, g)) / (2 * h)
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
        r, phi, theta, psi, V_T, td = seed_state_time(st.as_array(), 0.0)
        v = velocity_vec(theta, psi, V_T)
        he, *_ = df.compose_extended_terms(r, v, td, cset, p.ext.gamma_p)
        np.testing.assert_allclose(dhdx, he.e[:7], atol=1e-12)
        assert dhdt == pytest.approx(float(he.e[7]), abs=1e-12)


def oracle_rate(st, t, cset, p, g):
    """``(drift, row)`` as the 8-seed gradient contracted with ``f`` and the input columns ``G``."""
    dhdx, dhdt = grad_h_b(st, t, cset, p, g)
    x = st.as_array()
    f = np.array(dubins_rhs(x, (0.0, 0.0, 0.0), g.g_d))
    G = np.column_stack([np.array(dubins_rhs(x, e, g.g_d)) - f for e in np.eye(3)])
    return dhdt + float(dhdx @ f), dhdx @ G


# neither diagonal nor symmetric: scenarios build only diagonal W_e,
# which would hide a transpose in the filter's tangent
SKEW_W_E = WeightFactor(np.array([[1.3, 0.4, -0.2], [-0.1, 0.9, 0.5], [0.3, -0.6, 1.1]]))


def near_constraint_set(rng, st, t, kind):
    """A plane, an accelerating obstacle, both plus a second plane, or two
    accelerating obstacles plus a plane, a few hundred to a few thousand
    metres roughly ahead of the aircraft."""
    ahead = velocity(st) / st.V_T

    def toward():
        d = ahead + 0.5 * rng.normal(size=3)
        return d / np.linalg.norm(d)

    def plane():
        n = toward()
        return GeofencePlane(st.r + n * rng.uniform(200.0, 3000.0), -n, rng.uniform(0.0, 30.0))

    def obstacle():
        at = st.r + toward() * rng.uniform(200.0, 2500.0)
        v, a = rng.uniform(-150.0, 150.0, 3), rng.uniform(-8.0, 8.0, 3)
        return AcceleratingObstacle(at, t, v, a, rng.uniform(20.0, 80.0))

    def neighbour(obs):
        # tens of metres and a few m/s from obs, so that both carry softmin weight
        at, v, _ = obs.trajectory(t)
        at, v, a = at + rng.normal(size=3) * 30.0, v + rng.normal(size=3), rng.uniform(-8.0, 8.0, 3)
        return AcceleratingObstacle(at, t, v, a, rng.uniform(20.0, 80.0))

    if kind == "obstacles":
        first = obstacle()
        members = [first, neighbour(first), plane()]
    else:
        members = [m() for m in {"plane": [plane], "obstacle": [obstacle], "mixed": [obstacle, plane, plane]}[kind]]
    return ConstraintSet(members, kappa=float(rng.uniform(0.004, 0.05)))


def softplus_arg(st, t, cset, p, g):
    """``x = -nu_e a_e / |b_e|`` of the acceleration filter's multiplier."""
    ctx = TrackContext(st, t, g)
    h, D, gv, _, _, _ = compose_extended_terms(jets_at(ctx.r, t, ctx.v, cset), ctx.v, cset.kappa, p.ext.gamma_p)
    return -p.nu_e * (D + p.gamma_e * h) / np.linalg.norm(gv @ np.asarray(p.W_e.W))


def acting_states(rng, g, per_branch, make_cset):
    """``(st, t, cset, p)`` where the acceleration filter acts, ``per_branch`` in each
    softplus branch, alternating the diagonal and the skew ``W_e``; ``make_cset(st, t)``
    builds each set."""
    p = table_params()
    skew = dataclasses.replace(p, W_e=SKEW_W_E)
    branches, cases = {True: 0, False: 0}, []
    for i in range(3000):
        if min(branches.values()) >= per_branch:
            break
        st = random_state(rng, v_range=(80.0, 250.0), theta_max=1.0, phi_max=1.2, pos_scale=200.0)
        t = float(rng.uniform(0.0, 10.0))
        cset = make_cset(st, t)
        q = (p, skew)[i % 2]
        x = softplus_arg(st, t, cset, q, g)
        if abs(x) <= 8.0 and branches[x > 0.0] < per_branch:
            branches[x > 0.0] += 1
            cases.append((st, t, cset, q))
    assert min(branches.values()) >= per_branch, branches
    return cases


def assert_rate_matches_oracle(st, t, cset, q, g):
    """The closed-form rate of ``h_b`` against the gradient oracle, and ``h_b`` itself."""
    ctx = TrackContext(st, t, g)
    pos = compose_h_p(ctx, cset)
    (_, _, _, hb), drift, row = _affine_terms(ctx, pos, q)
    ref_drift, ref_row = oracle_rate(st, t, cset, q, g)
    got, ref = np.append(drift, row), np.append(ref_drift, ref_row)
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
    assert hb == h_b(ctx, pos, q)


class TestRta:
    def test_rate_matches_gradient_oracle(self, rng, gravity):
        # the closed-form 3-direction chain plus the frame's closed-form
        # rates against the full-state forward-mode gradient
        p = table_params()
        skew = dataclasses.replace(p, W_e=SKEW_W_E)
        cases = [(AircraftState(0.0, 0.0, 0.0, 0.2, 0.1, math.pi / 2, 150.0), 0.0, canceling_planes(), p)]
        cases.append(cases[0][:3] + (skew,))
        for i in range(240):
            st = random_state(rng, theta_max=1.0, phi_max=1.2)
            cases.append((st, float(rng.uniform(0.0, 10.0)), random_constraint_set(rng, st.r), (p, skew)[i % 2]))

        kinds = itertools.cycle(("plane", "obstacle", "mixed"))
        cases += acting_states(rng, gravity, 36, lambda st, t: near_constraint_set(rng, st, t, next(kinds)))
        # two obstacles compose two obstacle tangents: the softmin's cross-weight terms
        cases += acting_states(rng, gravity, 24, lambda st, t: near_constraint_set(rng, st, t, "obstacles"))
        for case in cases:
            assert_rate_matches_oracle(*case, gravity)

    def test_rate_single_member_matches_gradient_oracle(self, rng, gravity):
        # one member: its weight is exactly 1, so every w_i' term of the walk's sums vanishes
        kinds = itertools.cycle(("plane", "obstacle"))
        single = acting_states(rng, gravity, 16, lambda st, t: near_constraint_set(rng, st, t, next(kinds)))
        for st, t, cset, q in single:
            v = velocity(st)
            assert compose_extended_terms(jets_at(st.r, t, v, cset), v, cset.kappa, q.ext.gamma_p)[4] == [1.0]
            assert_rate_matches_oracle(st, t, cset, q, gravity)

    def test_rate_with_a_dominant_member_matches_gradient_oracle(self, rng, gravity):
        # an obstacle and a plane whose extension lies 28/kappa to 31/kappa above the
        # obstacle's: the obstacle's weight is within 1e-12 of 1 and the plane's is not
        # zero, where the walk's h_o sum w z - sum w e z cancels
        gamma_p = table_params().ext.gamma_p

        def dominated(st, t):
            obstacle = near_constraint_set(rng, st, t, "obstacle").members[0]
            kappa = float(rng.uniform(0.004, 0.05))
            v = velocity(st)
            E = member_extended_terms(member_jet1(st.r, t, v, obstacle), v, gamma_p)[0]
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            rho = float(rng.uniform(0.0, 30.0))
            # the plane's extension n . (r - point) - rho + n . v / gamma_p is E + 28..31 / kappa
            level = E + rng.uniform(28.0, 31.0) / kappa
            plane = GeofencePlane(st.r - n * (level + rho - float(n @ v) / gamma_p), n, rho)
            return ConstraintSet([obstacle, plane][:: int(rng.choice([-1, 1]))], kappa)

        for st, t, cset, q in acting_states(rng, gravity, 16, dominated):
            v = velocity(st)
            w = compose_extended_terms(jets_at(st.r, t, v, cset), v, cset.kappa, q.ext.gamma_p)[4]
            assert 0.0 < 1.0 - max(w) <= 1e-12 and min(w) > 0.0
            assert_rate_matches_oracle(st, t, cset, q, gravity)

    def test_sign_of_a_zero_composed_gradient_does_not_reach_the_rate(self, rng, gravity):
        # compose_extended_terms starts each sum with the first member's term, so
        # normals holding -0.0 give gv a -0.0 component: its sign must reach neither
        # the barrier nor its rate
        p = table_params()

        def fences(z):
            return ConstraintSet([GeofencePlane([0.0, 3000.0, 0.0], [z, -1.0, z], 15.0),
                                  GeofencePlane([0.0, -3000.0, 0.0], [z, 1.0, z], 15.0)], kappa=0.007)

        for _ in range(50):
            st = AircraftState(rng.normal(0.0, 500.0), rng.normal(0.0, 1500.0), -1000.0, rng.normal(0.0, 0.3),
                               rng.normal(0.0, 0.2), rng.uniform(-3.0, 3.0), 160.0)
            ctx = TrackContext(st, 0.0, gravity)
            pos = [compose_h_p(ctx, fences(z)) for z in (0.0, -0.0)]
            gv = compose_extended_terms(pos[1].jets, ctx.v, pos[1].kappa, p.ext.gamma_p)[2]
            assert math.copysign(1.0, gv[0]) == -1.0 and gv[0] == 0.0
            # (h_e, a_s, R_s, h_b), drift and row, compared with the sign of zero
            assert repr(_affine_terms(ctx, pos[0], p)) == repr(_affine_terms(ctx, pos[1], p))

    def test_raises_at_obstacle_center(self, gravity):
        # fig5's start moved onto its obstacle's center: the closed-form
        # chain (the composition rta_backstepping reads) and the dual oracles
        # stop before dividing by the distance
        scn = load_scenario("fig5")
        center = scn.cset.members[0].trajectory(0.0)[0]
        st = dataclasses.replace(scn.x0, n=float(center[0]), e=float(center[1]), d=float(center[2]))
        ctx = TrackContext(st, 0.0, scn.gravity)
        with pytest.raises(CoincidentPosition) as expected:
            rta_backstepping(ctx, ControlInput(0.0, 0.0, 0.0), compose_h_p(ctx, scn.cset), scn.backstep)
        with pytest.raises(CoincidentPosition, match=str(expected.value)):
            grad_h_b(st, 0.0, scn.cset, scn.backstep, scn.gravity)
        cmd = SafeCommand(scn.goal, scn.tracking, scn.cset, ModelFreeParams(0.1, 3.0, 4.0, 0.007))
        with pytest.raises(CoincidentPosition, match=str(expected.value)):
            safe_velocity_seeded(cmd, st.r, 0.0, velocity(st))

    def test_inactive_far_from_constraints(self, gravity):
        p = table_params()
        plane = GeofencePlane([0.0, 50000.0, 0.0], [0.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([plane], kappa=0.007)
        st = AircraftState(0.0, 0.0, 0.0, 0.05, 0.02, math.pi / 2, 160.0)
        u_d = ControlInput(0.4, -0.02, 0.01)
        ctx = TrackContext(st, 0.0, gravity)
        pos = compose_h_p(ctx, cset)
        hb, res = rta_backstepping(ctx, u_d, pos, p)
        assert res.u == u_d
        assert hb <= _affine_terms(ctx, pos, p)[0][0]

    def test_all_channels_respond_when_active(self, rng, gravity):
        p = table_params()
        plane = GeofencePlane([0.0, 1500.0, 0.0], [0.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([plane], kappa=0.007)
        st = AircraftState(0.0, 0.0, 0.0, 0.2, 0.05, math.pi / 2, 250.0)
        u_d = ControlInput(0.0, 0.0, 0.0)
        ctx = TrackContext(st, 0.0, gravity)
        _, res = rta_backstepping(ctx, u_d, compose_h_p(ctx, cset), p)
        u = res.u.as_array()
        assert res.slack >= -1e-6
        assert np.all(u != 0.0)
