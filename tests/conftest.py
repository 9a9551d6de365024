import numpy as np
import pytest

from fwrta import dual as dm
from fwrta.constraints import ConstraintSet, GeofencePlane, MovingObstacle
from fwrta.model import AircraftState, GravityParam, euler_cols, turn_rate_raw, velocity_vec
from fwrta.tracking import SafeVelocityCommand


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def gravity():
    return GravityParam()


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
    obs = MovingObstacle.constant_velocity(
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


def command_duals(cmd, st, t):
    """Forward-mode reference of a velocity command over the 8 ``(x, t)`` seeds.

    Returns the seeded pieces ``(r, phi, theta, psi, V_T, t)``, the dual
    velocity and the dual ``(v_c, a_c)``.  The safe velocity command's
    curvature pass along ``w = (v, 1)`` is mapped to ``(r, t)``
    coordinates (``J_t = e[:, 0] - e[:, 1:] v`` and
    ``(H w)_t = h[:, 0] - h[:, 1:] v``) and onto the state seeds; the
    goal is lifted along its path.
    """
    parts = dm.seed_state_time(st.as_array(), t)
    r, _, theta, psi, V_T, td = parts
    v = velocity_vec(theta, psi, V_T)
    if isinstance(cmd, SafeVelocityCommand):
        to_state = np.zeros((4, 8))
        to_state[0, 0] = to_state[1, 1] = to_state[2, 2] = to_state[3, 7] = 1.0
        v_s = cmd.seeded(st.r, t, v.v)
        J_r, Hw_r = v_s.e[:, 1:], v_s.h[:, 1:]
        J = np.column_stack([J_r, v_s.e[:, 0] - J_r @ v.v])
        Hw = np.column_stack([Hw_r, v_s.h[:, 0] - Hw_r @ v.v])
        v_c = dm.Dual(v_s.v.copy(), J @ to_state)
        a_c = dm.Dual(v_s.e[:, 0].copy(), Hw @ to_state + J_r @ v.e)
        return parts, v, v_c, a_c
    r_g, v_g, a_g = cmd.goal.eval(t)
    zero = np.zeros(3)
    K_r = cmd.params.K_r
    v_c = dm.lift_path(v_g, a_g, zero, td) + dm.matvec(K_r, dm.lift_path(r_g, v_g, a_g, td) - r)
    a_c = dm.lift_path(a_g, zero, zero, td) + dm.matvec(K_r, dm.lift_path(v_g, a_g, zero, td) - v)
    return parts, v, v_c, a_c


def certificate_duals(cmd, st, t, params, g):
    """``(e_v, A_T, Q, R_d, R)`` of the tracking controller as 8-seed duals."""
    parts, v, v_c, a_c = command_duals(cmd, st, t)
    _, phi, theta, psi, V_T, _ = parts
    c0, c1, c2 = euler_cols(phi, theta, psi)
    e_v = v_c - v
    a_d = a_c + dm.matvec(0.5 * params.K_v, e_v)
    A_T = dm.dot(c0, a_d)
    Q = -dm.dot(c2, a_d) / V_T
    R_d = dm.dot(c1, a_d) / V_T
    R = turn_rate_raw(phi, theta, V_T, g.g_d)
    return e_v, A_T, Q, R_d, R
