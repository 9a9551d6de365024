from dataclasses import dataclass

import numpy as np
import pytest

import dualnum as dm
from dual_formulas import compose_terms, filter_core, pipeline
from fwrta import kernels
from fwrta.backstepping import BacksteppingParams, h_b
from fwrta.constraints import ConstraintSet, GeofencePlane, MovingObstacle, compose_h_p, member_jet1
from fwrta.filters import filter_step
from fwrta.model import AircraftState, GravityParam, TrackContext
from fwrta.modelfree import ModelFreeParams, safe_velocity_from_terms
from fwrta.simulate import make_controller, row_columns
from fwrta.tracking import GoalCommand, SafeVelocityCommand, TrackingParams


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def gravity():
    return GravityParam()


class AcceleratingObstacle:
    """Obstacle of radius ``rho`` at ``at`` at time ``t0``, moving there at ``velocity`` with the
    constant acceleration ``accel``: :class:`fwrta.constraints.MovingObstacle`'s ``trajectory``
    with a nonzero acceleration, for the oracle checks of the acceleration terms."""

    def __init__(self, at, t0, velocity, accel, rho):
        self.at, self.v0, self.a = (np.asarray(x, dtype=float) for x in (at, velocity, accel))
        self.t0, self.rho = float(t0), float(rho)

    def trajectory(self, s):
        tau = s - self.t0
        at = self.at + self.v0 * tau + (0.5 * tau * tau) * self.a
        return at.tolist(), (self.v0 + self.a * tau).tolist(), self.a.tolist()


class AcceleratingGoal:
    """Goal at ``r0`` moving at ``v0`` at time 0 with the constant acceleration ``a``:
    :class:`fwrta.tracking.GoalTrajectory`'s ``eval`` with a nonzero acceleration."""

    def __init__(self, r0, v0, a):
        self.r0, self.v0, self.a = (np.asarray(x, dtype=float) for x in (r0, v0, a))

    def eval(self, t):
        return self.r0 + self.v0 * t + 0.5 * self.a * t * t, self.v0 + self.a * t, self.a


def state_from_array(x) -> AircraftState:
    """The :class:`AircraftState` of a 7-sequence of its fields."""
    return AircraftState(*(float(v) for v in x))


def dubins_rhs(x, u, g_d):
    """State derivative of the seven-state model at the 7-sequence ``x`` and the input
    sequence ``u``: :func:`fwrta.kernels.rk4_step`'s one RHS formula."""
    return kernels._rhs(x[3], x[4], x[5], x[6], u[0], u[1], u[2], g_d)


@dataclass(frozen=True)
class SafeCommand:
    """The model-free safe velocity command of a goal, gains, constraint set and filter
    parameters at any frame: the values a control step passes on (the goal command's
    jet, the composition and the filter's zeroth order), then
    :class:`fwrta.tracking.SafeVelocityCommand`'s jet of them."""

    goal: object
    params: TrackingParams
    cset: ConstraintSet
    mf: ModelFreeParams

    def command_jet(self, ctx):
        v_d = GoalCommand(self.goal, self.params).command_jet(ctx)
        pos = compose_h_p(ctx, self.cset)
        return SafeVelocityCommand(v_d, pos, safe_velocity_from_terms(pos, v_d[0], self.mf), self.mf).command_jet(ctx)


def composed(st, t, cset, g):
    """The frame of ``(st, t)`` and the composition of ``cset`` there, as a control step
    passes them on."""
    ctx = TrackContext(st, t, g)
    return ctx, compose_h_p(ctx, cset)


def penalized_barrier(st, t, cset, p: BacksteppingParams, g):
    """:func:`fwrta.backstepping.h_b` at the frame of ``(st, t)``, on the composition there."""
    return h_b(*composed(st, t, cset, g), p)


def frame_at(r, t):
    """The :class:`TrackContext` of level flight north at 100 m/s through position ``r`` at time ``t``,
    for the formulas that read a frame at a free position."""
    n, e, d = (float(x) for x in r)
    return TrackContext(AircraftState(n, e, d, 0.0, 0.0, 0.0, 100.0), float(t), GravityParam())


def jets_at(r, t, v, cset):
    """Each member's :func:`fwrta.constraints.member_jet1` at ``(r, t)`` along ``(v, 1)``."""
    return [member_jet1(r, t, v, m) for m in cset.members]


def velocity(st):
    """Inertial velocity of a state, read from its :class:`TrackContext`, as an array."""
    return np.array(TrackContext(st, 0.0, GravityParam()).v)


def turn_rate(st, g):
    """Coordinated turn rate of a state, read from its :class:`TrackContext`."""
    return TrackContext(st, 0.0, g).R


def dynamics(st, u, g):
    """State derivative ``f(x) + g(x) u``: the one RHS, :func:`dubins_rhs`."""
    return np.array(dubins_rhs(st.as_array(), u.as_array(), g.g_d))


def tracking_params(k_r, k_v, mu, lam):
    """Tracking gains with isotropic ``K_r = k_r I`` and ``K_v = k_v I``."""
    return TrackingParams(k_r * np.eye(3), k_v * np.eye(3), mu, lam)


def desired_velocity(r, t, goal, params):
    """Goal velocity plus proportional position-error correction, ``v_g + K_r (r_g - r)``."""
    r_g, v_g, _ = goal.eval(float(t))
    return v_g + np.asarray(params.K_r) @ (r_g - np.asarray(r, dtype=float))


def apply_filter(u_d, a, b_raw, weight, nu=None):
    """:func:`fwrta.filters.filter_step` of ``u_d`` against the raw row ``b_raw``, weighted by ``weight``."""
    return filter_step(u_d, a, weight.apply_t(b_raw), weight.apply, nu)


def safe_velocity(r, t, v_d, cset, p):
    """The model-free filter of ``v_d`` against the composed position barrier at ``(r, t)``."""
    return safe_velocity_from_terms(compose_h_p(frame_at(r, t), cset), v_d, p)[0]


def integrate_stage_controlled(scn, dt, t_final):
    """Final state with the controller re-evaluated at every RK4 stage.

    Unlike :func:`fwrta.simulate.integrate`, the feedback is treated as
    part of the vector field, making the closed loop a smooth ODE; used by
    the integrator-order study.
    """
    control = make_controller(scn)
    g_d = scn.gravity.g_d
    u_at = row_columns(len(scn.cset.members))[0]["u"]

    def f(x, t):
        return np.array(dubins_rhs(x, control(x, t)[u_at], g_d))

    x = scn.x0.as_array()
    for k in range(int(round(t_final / dt))):
        t = k * dt
        k1 = f(x, t)
        k2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def accel_matrix(st):
    """3x3 map from ``(A_T, Q, R)`` to inertial acceleration, from the context's columns."""
    ctx = TrackContext(st, 0.0, GravityParam())
    c0, c1, c2 = (np.array(c) for c in (ctx.c0, ctx.c1, ctx.c2))
    return np.column_stack([c0, -ctx.V_T * c2, ctx.V_T * c1])


# dual-capable frame: the formulas TrackContext spells out on floats,
# written over the dual helpers so that oracles can seed the state


def velocity_vec(theta, psi, V_T):
    """Inertial velocity from the velocity-related states."""
    c_th = dm.cos(theta)
    return dm.stack([V_T * c_th * dm.cos(psi), V_T * c_th * dm.sin(psi), -V_T * dm.sin(theta)])


def turn_rate_raw(phi, theta, V_T, g_d):
    """Coordinated yaw rate ``(g_D / V_T) sin(phi) cos(theta)``."""
    return g_d / V_T * dm.sin(phi) * dm.cos(theta)


def euler_cols(phi, theta, psi):
    """Columns of the body-to-earth rotation (3-2-1 Euler)."""
    s_ph, c_ph = dm.sin(phi), dm.cos(phi)
    s_th, c_th = dm.sin(theta), dm.cos(theta)
    s_ps, c_ps = dm.sin(psi), dm.cos(psi)
    c0 = dm.stack([c_ps * c_th, s_ps * c_th, -s_th])
    c1 = dm.stack([c_ps * s_th * s_ph - s_ps * c_ph, s_ps * s_th * s_ph + c_ps * c_ph, c_th * s_ph])
    c2 = dm.stack([c_ps * s_th * c_ph + s_ps * s_ph, s_ps * s_th * c_ph - c_ps * s_ph, c_th * c_ph])
    return c0, c1, c2


def seed_state_time(x, t):
    """Dual pieces ``(r, phi, theta, psi, V_T, t)`` against the 8 ``(x, t)`` unit seeds.

    ``r`` is a dual 3-vector and the rest are dual scalars; seed
    ordering is the state components followed by time.
    """
    E = np.eye(8)
    x = np.asarray(x, dtype=float)
    r = dm.Dual(x[:3].copy(), E[:3].copy())
    phi, theta, psi, V_T = (dm.Dual(float(x[i]), E[i]) for i in range(3, 7))
    return r, phi, theta, psi, V_T, dm.Dual(float(t), E[7])


def seed_pos_time(r, t):
    """First-order seeds over position and time (4 directions)."""
    E = np.eye(4)
    return dm.Dual(np.asarray(r, dtype=float).copy(), E[:3].copy()), dm.Dual(float(t), E[3])


def grad_h_b(st, t, cset, p, g):
    """Gradient ``(dh_b/dx, dh_b/dt)`` of the penalized barrier, by 8-seed forward mode."""
    r, phi, theta, psi, V_T, td = seed_state_time(st.as_array(), t)
    v = velocity_vec(theta, psi, V_T)
    c1 = euler_cols(phi, theta, psi)[1]
    hb = pipeline(r, v, td, c1, turn_rate_raw(phi, theta, V_T, g.g_d), V_T, cset, p)[3]
    return hb.e[:7].copy(), float(hb.e[7])


def random_state(rng, v_range=(50.0, 300.0), theta_max=1.2, phi_max=1.4, pos_scale=4000.0):
    return AircraftState(
        n=float(rng.uniform(-pos_scale, pos_scale)),
        e=float(rng.uniform(-pos_scale, pos_scale)),
        d=float(rng.uniform(-pos_scale, pos_scale)),
        phi=float(rng.uniform(-phi_max, phi_max)),
        theta=float(rng.uniform(-theta_max, theta_max)),
        psi=float(rng.uniform(-np.pi, np.pi)),
        V_T=float(rng.uniform(*v_range)),
    )


def random_constraint_set(rng, r_ref, kappa=None):
    """One moving obstacle plus two planes, all well clear of ``r_ref``."""
    r_ref = np.asarray(r_ref, dtype=float)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    center = r_ref + direction * rng.uniform(800.0, 4000.0)
    obs = MovingObstacle(
        center, rng.uniform(-150.0, 150.0, size=3), rho=rng.uniform(20.0, 80.0)
    )
    planes = []
    for _ in range(2):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        point = r_ref + n * rng.uniform(1000.0, 6000.0)
        # normal points from the plane back toward the reference point
        planes.append(GeofencePlane(point, -n, rng.uniform(0.0, 30.0)))
    if kappa is None:
        kappa = float(rng.uniform(0.004, 0.05))
    return ConstraintSet([obs] + planes, kappa=kappa)


def seed_line(r, t, v):
    """Curvature seeds ``(w, r_n, r_e, r_d)`` over position and time.

    Seed 0 is the line ``w = (v, 1)`` through ``(r, t)``, so ``h`` of a
    result is its derivative along ``w`` of the Jacobian: ``h[..., 0]``
    is the second derivative along the line and ``h[..., 1:]`` the mixed
    ``d_w d_r`` row.
    """
    e = np.zeros((3, 4))
    e[:, 0] = v
    e[:, 1:] = np.eye(3)
    rd = dm.Dual(np.asarray(r, dtype=float).copy(), e, np.zeros((3, 4)))
    td = dm.Dual(float(t), np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))
    return rd, td


def safe_velocity_terms(r, t, v_d, cset, p):
    """Dual-generic safe-velocity chain; returns (v_s, a_v, h_p, grad)."""
    h, grad, dtp, _, _ = compose_terms(r, t, cset)
    v_s, a_v, _, _ = filter_core(h, grad, dtp, v_d, p)
    return v_s, a_v, h, grad


def safe_velocity_seeded(cmd, r, t, v):
    """Curvature-``Dual`` oracle of the safe velocity command, seeded by :func:`seed_line`."""
    r2, t2 = seed_line(r, t, v)
    r_g, v_g, a_g = cmd.goal.eval(t)
    r_g2 = dm.lift_path(r_g, v_g, a_g, t2)
    v_g2 = dm.lift_path(v_g, a_g, np.zeros(3), t2)
    v_d = v_g2 + dm.matvec(np.asarray(cmd.params.K_r), r_g2 - r2)
    return safe_velocity_terms(r2, t2, v_d, cmd.cset, cmd.mf)[0]


def command_duals(cmd, st, t):
    """Forward-mode reference of a velocity command over the 8 ``(x, t)`` seeds.

    Returns the seeded pieces ``(r, phi, theta, psi, V_T, t)``, the dual
    velocity and the dual ``(v_c, a_c)``.  The safe velocity command's
    curvature pass along ``w = (v, 1)`` is mapped to ``(r, t)``
    coordinates (``J_t = e[:, 0] - e[:, 1:] v`` and
    ``(H w)_t = h[:, 0] - h[:, 1:] v``) and onto the state seeds; the
    goal is lifted along its path.
    """
    parts = seed_state_time(st.as_array(), t)
    r, _, theta, psi, V_T, td = parts
    v = velocity_vec(theta, psi, V_T)
    if isinstance(cmd, SafeCommand):
        to_state = np.zeros((4, 8))
        to_state[0, 0] = to_state[1, 1] = to_state[2, 2] = to_state[3, 7] = 1.0
        v_s = safe_velocity_seeded(cmd, st.r, t, v.v)
        J_r, Hw_r = v_s.e[:, 1:], v_s.h[:, 1:]
        J = np.column_stack([J_r, v_s.e[:, 0] - J_r @ v.v])
        Hw = np.column_stack([Hw_r, v_s.h[:, 0] - Hw_r @ v.v])
        v_c = dm.Dual(v_s.v.copy(), J @ to_state)
        a_c = dm.Dual(v_s.e[:, 0].copy(), Hw @ to_state + J_r @ v.e)
        return parts, v, v_c, a_c
    r_g, v_g, a_g = cmd.goal.eval(t)
    zero = np.zeros(3)
    K_r = np.asarray(cmd.params.K_r)
    v_c = dm.lift_path(v_g, a_g, zero, td) + dm.matvec(K_r, dm.lift_path(r_g, v_g, a_g, td) - r)
    a_c = dm.lift_path(a_g, zero, zero, td) + dm.matvec(K_r, dm.lift_path(v_g, a_g, zero, td) - v)
    return parts, v, v_c, a_c


def certificate_duals(cmd, st, t, params, g):
    """``(e_v, A_T, Q, R_d, R)`` of the tracking controller as 8-seed duals."""
    parts, v, v_c, a_c = command_duals(cmd, st, t)
    _, phi, theta, psi, V_T, _ = parts
    c0, c1, c2 = euler_cols(phi, theta, psi)
    e_v = v_c - v
    a_d = a_c + dm.matvec(0.5 * np.asarray(params.K_v), e_v)
    A_T = dm.dot(c0, a_d)
    Q = -dm.dot(c2, a_d) / V_T
    R_d = dm.dot(c1, a_d) / V_T
    R = turn_rate_raw(phi, theta, V_T, g.g_d)
    return e_v, A_T, Q, R_d, R
