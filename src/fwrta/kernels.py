"""Plain-float dynamics RHS and RK4 step of the seven-state model.

The state derivative is written once, in :func:`_rhs`, over scalars: the
attitude, the speed and the input as floats.  ``rk4_step`` evaluates its
four stages through ``_rhs`` directly, so no stage state is built or
indexed; both run over Python floats and return 7-tuples.  The RK4 stage
states and the final combination are written out component by
component, with no per-element comprehension, in the operation order of
the classic array tableau, so they equal it bit for bit.  The derivative
reads only the attitude and speed, so the stages carry the start
position unchanged instead of advancing entries nothing reads.  The
control laws read the same kinematics from the plain-float frame of
:class:`fwrta.model.TrackContext` and write its rates in closed form.
"""

from __future__ import annotations

import math


def _rhs(phi, theta, psi, V_T, A_T, P, Q, g_d):
    """State derivative at the attitude, speed and input ``(A_T, P, Q)``, all floats."""
    s_phi, c_phi = math.sin(phi), math.cos(phi)
    s_th, c_th = math.sin(theta), math.cos(theta)
    s_psi, c_psi = math.sin(psi), math.cos(psi)
    R = g_d / V_T * s_phi * c_th
    t_th = s_th / c_th
    return (
        V_T * c_th * c_psi,
        V_T * c_th * s_psi,
        -V_T * s_th,
        P + s_phi * t_th * Q + c_phi * t_th * R,
        c_phi * Q - s_phi * R,
        (s_phi * Q + c_phi * R) / c_th,
        A_T,
    )


def rk4_step(x, u, dt, g_d):
    """Classic fourth-order step with the input held constant."""
    h = 0.5 * dt
    x0, x1, x2, x3, x4, x5, x6 = x
    A_T, P, Q = u
    a0, a1, a2, a3, a4, a5, a6 = _rhs(x3, x4, x5, x6, A_T, P, Q, g_d)
    # the derivative never reads the position, so the stages carry x0, x1, x2 as they are
    b0, b1, b2, b3, b4, b5, b6 = _rhs(x3 + h * a3, x4 + h * a4, x5 + h * a5, x6 + h * a6, A_T, P, Q, g_d)
    c0, c1, c2, c3, c4, c5, c6 = _rhs(x3 + h * b3, x4 + h * b4, x5 + h * b5, x6 + h * b6, A_T, P, Q, g_d)
    d0, d1, d2, d3, d4, d5, d6 = _rhs(x3 + dt * c3, x4 + dt * c4, x5 + dt * c5, x6 + dt * c6, A_T, P, Q, g_d)
    s = dt / 6.0
    return (
        x0 + s * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
        x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        x2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
        x3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
        x4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
        x5 + s * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
        x6 + s * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
    )
