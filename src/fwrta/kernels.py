"""Plain-float dynamics RHS and RK4 step of the seven-state model.

``dubins_rhs`` is the one implementation of the state derivative: the
integrator and the stage-controlled integrator both evaluate it.  Both
functions run over Python floats: the state and the input are float
sequences and the results are 7-tuples, computed in the operation order
of the classic array tableau, so they equal it bit for bit.  The control
laws read the same kinematics from the plain-float frame of
:class:`fwrta.model.TrackContext` and write its rates in closed form.
"""

from __future__ import annotations

import math


def dubins_rhs(x, u, g_d):
    """State derivative of the seven-state kinematic fixed-wing model."""
    phi, theta, psi, V_T = x[3], x[4], x[5], x[6]
    s_phi, c_phi = math.sin(phi), math.cos(phi)
    s_th, c_th = math.sin(theta), math.cos(theta)
    s_psi, c_psi = math.sin(psi), math.cos(psi)
    R = g_d / V_T * s_phi * c_th
    t_th = s_th / c_th
    return (
        V_T * c_th * c_psi,
        V_T * c_th * s_psi,
        -V_T * s_th,
        u[1] + s_phi * t_th * u[2] + c_phi * t_th * R,
        c_phi * u[2] - s_phi * R,
        (s_phi * u[2] + c_phi * R) / c_th,
        u[0],
    )


def rk4_step(x, u, dt, g_d):
    """Classic fourth-order step with the input held constant."""
    h = 0.5 * dt
    k1 = dubins_rhs(x, u, g_d)
    k2 = dubins_rhs([a + h * b for a, b in zip(x, k1)], u, g_d)
    k3 = dubins_rhs([a + h * b for a, b in zip(x, k2)], u, g_d)
    k4 = dubins_rhs([a + dt * b for a, b in zip(x, k3)], u, g_d)
    s = dt / 6.0
    return tuple([a + s * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)])
