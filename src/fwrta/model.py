"""Kinematic fixed-wing aircraft: state/input types, control-affine
dynamics, the coordinated-turn rate and the acceleration map.

The seven states are north/east/down position, roll/pitch/yaw Euler
angles and speed; inputs are longitudinal acceleration plus roll and
pitch rates, ``u = (A_T, P, Q)``.  Turning requires rolling: the yaw
rate ``R = (g_D / V_T) sin(phi) cos(theta)`` is a state function, not an
input.

The map from ``(A_T, Q, R)`` to inertial acceleration factors as
``M_a = R_eb(phi, theta, psi) @ C(V_T)`` with
``C = [[1, 0, 0], [0, 0, V_T], [0, -V_T, 0]]``, which gives closed-form
columns, inverse and determinant (``det M_a = V_T^2``).  All core
formulas are written over the generic dual-capable helpers so they can
be differentiated by evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .errors import SingularPitch, SingularSpeed
from .kernels import dubins_rhs

V_T_FLOOR = 1.0  # m/s, speed below which the model is treated as invalid
PITCH_GUARD = 1e-3  # rad short of +-pi/2
_ZERO_INPUT = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class GravityParam:
    """Gravitational acceleration along the down axis (m/s^2)."""

    g_d: float = 9.81

    def __post_init__(self):
        if not (self.g_d > 0.0 and math.isfinite(self.g_d)):
            raise ValueError("g_d must be positive and finite")


@dataclass(frozen=True)
class AircraftState:
    """North/east/down position (m), roll/pitch/yaw (rad), speed (m/s).

    Validity (V_T above the speed floor, |theta| clear of +-pi/2) is
    enforced by the operations that would become singular, not here;
    construction only requires finite fields.
    """

    n: float
    e: float
    d: float
    phi: float
    theta: float
    psi: float
    V_T: float

    def __post_init__(self):
        for name in ("n", "e", "d", "phi", "theta", "psi", "V_T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"AircraftState.{name} must be finite")

    @classmethod
    def from_array(cls, x) -> "AircraftState":
        return cls(*(float(v) for v in x))

    def as_array(self) -> np.ndarray:
        return np.array([self.n, self.e, self.d, self.phi, self.theta, self.psi, self.V_T])

    @property
    def r(self) -> np.ndarray:
        return np.array([self.n, self.e, self.d])


@dataclass(frozen=True)
class ControlInput:
    """Longitudinal acceleration (m/s^2), roll rate and pitch rate (rad/s)."""

    A_T: float
    P: float
    Q: float

    def __post_init__(self):
        for name in ("A_T", "P", "Q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ControlInput.{name} must be finite")

    @classmethod
    def from_array(cls, u) -> "ControlInput":
        return cls(float(u[0]), float(u[1]), float(u[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.A_T, self.P, self.Q])


def check_speed(V_T, floor: float = V_T_FLOOR) -> None:
    if float(dm.value(V_T)) <= floor:
        raise SingularSpeed(f"V_T = {float(dm.value(V_T)):.6g} m/s at or below floor {floor} m/s")


def check_pitch(theta) -> None:
    if abs(float(dm.value(theta))) >= math.pi / 2 - PITCH_GUARD:
        raise SingularPitch(f"|theta| = {abs(float(dm.value(theta))):.6g} rad too close to pi/2")


def velocity_vec(theta, psi, V_T):
    """Inertial velocity from the velocity-related states (dual-capable)."""
    c_th = dm.cos(theta)
    return dm.stack(
        [
            V_T * c_th * dm.cos(psi),
            V_T * c_th * dm.sin(psi),
            -V_T * dm.sin(theta),
        ]
    )


def velocity(state: AircraftState) -> np.ndarray:
    """Inertial velocity vector; its norm equals V_T."""
    return velocity_vec(state.theta, state.psi, state.V_T)


def turn_rate_raw(phi, theta, V_T, g_d, v_min: float = V_T_FLOOR):
    check_speed(V_T, v_min)
    return g_d / V_T * dm.sin(phi) * dm.cos(theta)


def turn_rate(state: AircraftState, g: GravityParam, v_min: float = V_T_FLOOR) -> float:
    """Coordinated yaw rate implied by bank angle and speed."""
    return turn_rate_raw(state.phi, state.theta, state.V_T, g.g_d, v_min)


def euler_cols(phi, theta, psi):
    """Columns of the body-to-earth rotation (3-2-1 Euler), dual-capable.

    Column 0 is the unit velocity direction; columns 1 and 2 are the
    body right and down axes expressed in the earth frame.
    """
    s_ph, c_ph = dm.sin(phi), dm.cos(phi)
    s_th, c_th = dm.sin(theta), dm.cos(theta)
    s_ps, c_ps = dm.sin(psi), dm.cos(psi)
    c0 = dm.stack([c_ps * c_th, s_ps * c_th, -s_th])
    c1 = dm.stack([c_ps * s_th * s_ph - s_ps * c_ph, s_ps * s_th * s_ph + c_ps * c_ph, c_th * s_ph])
    c2 = dm.stack([c_ps * s_th * c_ph + s_ps * s_ph, s_ps * s_th * c_ph - c_ps * s_ph, c_th * c_ph])
    return c0, c1, c2


def accel_matrix(state: AircraftState) -> np.ndarray:
    """3x3 map from (A_T, Q, R) to inertial acceleration."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    c0, c1, c2 = euler_cols(state.phi, state.theta, state.psi)
    V = state.V_T
    return np.column_stack([c0, -V * c2, V * c1])


def accel_matrix_inverse(state: AircraftState) -> np.ndarray:
    """Closed-form inverse of the acceleration map."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    c0, c1, c2 = euler_cols(state.phi, state.theta, state.psi)
    V = state.V_T
    return np.vstack([c0, -c2 / V, c1 / V])


def w_r_row_raw(phi, theta, psi, V_T):
    _, c1, _ = euler_cols(phi, theta, psi)
    return c1 * (1.0 / V_T)


def w_R_row(state: AircraftState) -> np.ndarray:
    """Third row of the inverse acceleration map (turn-rate extractor)."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    return w_r_row_raw(state.phi, state.theta, state.psi, state.V_T)


def accel_to_rates_raw(phi, theta, psi, V_T, a):
    """Solve ``M_a (A_T, Q, R) = a`` in closed form (dual-capable)."""
    c0, c1, c2 = euler_cols(phi, theta, psi)
    A_T = dm.dot(c0, a)
    Q = -dm.dot(c2, a) / V_T
    R = dm.dot(c1, a) / V_T
    return A_T, Q, R


def f_vec(state: AircraftState, g: GravityParam) -> np.ndarray:
    """Drift term of the control-affine dynamics: the RHS at zero input."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    return dubins_rhs(state.as_array(), _ZERO_INPUT, g.g_d)


def g_mat(state: AircraftState) -> np.ndarray:
    """Input matrix of the control-affine dynamics (columns A_T, P, Q)."""
    check_pitch(state.theta)
    s_ph, c_ph = math.sin(state.phi), math.cos(state.phi)
    c_th = math.cos(state.theta)
    t_th = math.tan(state.theta)
    G = np.zeros((7, 3))
    G[3, 1] = 1.0
    G[3, 2] = s_ph * t_th
    G[4, 2] = c_ph
    G[5, 2] = s_ph / c_th
    G[6, 0] = 1.0
    return G


def dynamics(state: AircraftState, u: ControlInput, g: GravityParam) -> np.ndarray:
    """State derivative ``f(x) + g(x) u`` of the seven-state model."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    return dubins_rhs(state.as_array(), u.as_array(), g.g_d)
