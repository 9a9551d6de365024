"""Plain-float dynamics RHS and RK4 step of the seven-state model.

``dubins_rhs`` is the one implementation of the state derivative: the
integrator and the stage-controlled integrator both evaluate it.  The
control laws read the same kinematics from the plain-float frame of
:class:`fwrta.model.TrackContext` and write its rates in closed form.
"""

from __future__ import annotations

import math

import numpy as np


def dubins_rhs(x, u, g_d):
    """State derivative of the seven-state kinematic fixed-wing model."""
    phi, theta, psi, V_T = x[3], x[4], x[5], x[6]
    s_phi, c_phi = math.sin(phi), math.cos(phi)
    s_th, c_th = math.sin(theta), math.cos(theta)
    s_psi, c_psi = math.sin(psi), math.cos(psi)
    R = g_d / V_T * s_phi * c_th
    t_th = s_th / c_th
    out = np.empty(7)
    out[0] = V_T * c_th * c_psi
    out[1] = V_T * c_th * s_psi
    out[2] = -V_T * s_th
    out[3] = u[1] + s_phi * t_th * u[2] + c_phi * t_th * R
    out[4] = c_phi * u[2] - s_phi * R
    out[5] = (s_phi * u[2] + c_phi * R) / c_th
    out[6] = u[0]
    return out


def rk4_step(x, u, dt, g_d):
    """Classic fourth-order step with the input held constant."""
    k1 = dubins_rhs(x, u, g_d)
    k2 = dubins_rhs(x + 0.5 * dt * k1, u, g_d)
    k3 = dubins_rhs(x + 0.5 * dt * k2, u, g_d)
    k4 = dubins_rhs(x + dt * k3, u, g_d)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
