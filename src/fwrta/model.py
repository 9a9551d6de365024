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
columns and determinant (``det M_a = V_T^2``); its inverse has the rows
``c0``, ``-c2 / V_T`` and ``c1 / V_T`` of the rotation columns.  The
core formulas are written over the generic dual-capable helpers so they
can be differentiated by evaluation; :class:`TrackContext` spells the
same formulas out once per step on plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .errors import NonFiniteValue, SingularPitch, SingularSpeed
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
                raise NonFiniteValue(f"AircraftState.{name} must be finite")

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
                raise NonFiniteValue(f"ControlInput.{name} must be finite")

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


class TrackContext:
    """Plain-float frame of one ``(x, t)``, shared by the per-step formulas.

    Holds the sines and cosines of the Euler angles, the body-to-earth
    rotation columns, the inertial velocity and the coordinated turn
    rate.  The columns, the velocity and the turn rate are the formulas
    of :func:`euler_cols`, :func:`velocity_vec` and :func:`turn_rate_raw`,
    spelled out on sines computed once here (the dual-capable versions
    cost several times as much on floats); the results are the same bit
    for bit.
    """

    __slots__ = (
        "t", "r", "V_T", "g_over_V",
        "s_ph", "c_ph", "s_th", "c_th", "t_th",
        "c0", "c1", "c2", "v", "R",
    )

    def __init__(self, state: AircraftState, t: float, g: GravityParam):
        check_pitch(state.theta)
        check_speed(state.V_T)
        self.t = t
        self.r = state.r
        V_T = state.V_T
        s_ph, c_ph = math.sin(state.phi), math.cos(state.phi)
        s_th, c_th = math.sin(state.theta), math.cos(state.theta)
        s_ps, c_ps = math.sin(state.psi), math.cos(state.psi)
        self.V_T = V_T
        self.g_over_V = g.g_d / V_T
        self.s_ph, self.c_ph = s_ph, c_ph
        self.s_th, self.c_th = s_th, c_th
        self.t_th = s_th / c_th
        self.c0 = np.array([c_ps * c_th, s_ps * c_th, -s_th])
        self.c1 = np.array([c_ps * s_th * s_ph - s_ps * c_ph, s_ps * s_th * s_ph + c_ps * c_ph, c_th * s_ph])
        self.c2 = np.array([c_ps * s_th * c_ph + s_ps * s_ph, s_ps * s_th * c_ph - c_ps * s_ph, c_th * c_ph])
        self.v = np.array([V_T * c_th * c_ps, V_T * c_th * s_ps, -V_T * s_th])
        self.R = self.g_over_V * s_ph * c_th


def accel_matrix(state: AircraftState) -> np.ndarray:
    """3x3 map from (A_T, Q, R) to inertial acceleration."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    c0, c1, c2 = euler_cols(state.phi, state.theta, state.psi)
    V = state.V_T
    return np.column_stack([c0, -V * c2, V * c1])


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
