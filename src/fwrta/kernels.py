"""Plain-float dynamics RHS and RK4 step of the seven-state model.

``dubins_rhs`` is the one implementation of the state derivative: the
integrator and the stage-controlled integrator both evaluate it.  Both
functions run over Python floats: the state and the input are float
sequences and the results are 7-tuples.  The RK4 stage states and the
final combination are written out component by component, with no
per-element comprehension, in the operation order of the classic array
tableau, so they equal it bit for bit.  ``dubins_rhs`` reads only the
attitude and speed, so the stage states carry the start position
unchanged instead of advancing entries nothing reads.  The control laws
read the same kinematics from the plain-float frame of
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
    x0, x1, x2, x3, x4, x5, x6 = x
    a = dubins_rhs(x, u, g_d)
    # dubins_rhs never reads the position, so the stages carry x0, x1, x2 as they are
    b = dubins_rhs((x0, x1, x2, x3 + h * a[3], x4 + h * a[4], x5 + h * a[5], x6 + h * a[6]), u, g_d)
    c = dubins_rhs((x0, x1, x2, x3 + h * b[3], x4 + h * b[4], x5 + h * b[5], x6 + h * b[6]), u, g_d)
    d = dubins_rhs((x0, x1, x2, x3 + dt * c[3], x4 + dt * c[4], x5 + dt * c[5], x6 + dt * c[6]), u, g_d)
    s = dt / 6.0
    return (
        x0 + s * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0]),
        x1 + s * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1]),
        x2 + s * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2]),
        x3 + s * (a[3] + 2.0 * b[3] + 2.0 * c[3] + d[3]),
        x4 + s * (a[4] + 2.0 * b[4] + 2.0 * c[4] + d[4]),
        x5 + s * (a[5] + 2.0 * b[5] + 2.0 * c[5] + d[5]),
        x6 + s * (a[6] + 2.0 * b[6] + 2.0 * c[6] + d[6]),
    )
