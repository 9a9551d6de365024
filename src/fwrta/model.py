"""Kinematic fixed-wing aircraft: state/input types and the per-step frame.

The seven states are north/east/down position, roll/pitch/yaw Euler
angles and speed; inputs are longitudinal acceleration plus roll and
pitch rates, ``u = (A_T, P, Q)``.  Turning requires rolling: the yaw
rate ``R = (g_D / V_T) sin(phi) cos(theta)`` is a state function, not an
input.  The state derivative has one implementation,
:func:`fwrta.kernels.dubins_rhs`.

The map from ``(A_T, Q, R)`` to inertial acceleration factors as
``M_a = R_eb(phi, theta, psi) @ C(V_T)`` with
``C = [[1, 0, 0], [0, 0, V_T], [0, -V_T, 0]]``, which gives closed-form
columns and determinant (``det M_a = V_T^2``); its inverse has the rows
``c0``, ``-c2 / V_T`` and ``c1 / V_T`` of the rotation columns.
:class:`TrackContext` is the one spelling of that frame (rotation
columns, velocity and turn rate) on plain floats, its vectors held as
float 3-lists; the whole control step reads it, and the filters and the
tracking controller write its rates in closed form.  A control step
reads the state as the integrator's float 7-tuple and the input
dataclass field by field; their ``as_array`` spellings serve the edges
(tests and analysis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, SingularPitch, SingularSpeed

V_T_FLOOR = 1.0  # m/s, speed below which the model is treated as invalid
PITCH_GUARD = 1e-3  # rad short of +-pi/2


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

    def __iter__(self):
        return iter((self.n, self.e, self.d, self.phi, self.theta, self.psi, self.V_T))

    def as_array(self) -> np.ndarray:
        return np.array([self.n, self.e, self.d, self.phi, self.theta, self.psi, self.V_T])

    @property
    def r(self) -> list:
        return [self.n, self.e, self.d]


@dataclass(frozen=True)
class ControlInput:
    """Longitudinal acceleration (m/s^2), roll rate and pitch rate (rad/s)."""

    A_T: float
    P: float
    Q: float

    def __post_init__(self):
        if math.isfinite(self.A_T) and math.isfinite(self.P) and math.isfinite(self.Q):
            return
        for name in ("A_T", "P", "Q"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteValue(f"ControlInput.{name} must be finite")

    def as_tuple(self) -> tuple:
        return (self.A_T, self.P, self.Q)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())


def check_speed(V_T: float) -> None:
    if V_T <= V_T_FLOOR:
        raise SingularSpeed(f"V_T = {V_T:.6g} m/s at or below floor {V_T_FLOOR} m/s")


def check_pitch(theta: float) -> None:
    if abs(theta) >= math.pi / 2 - PITCH_GUARD:
        raise SingularPitch(f"|theta| = {abs(theta):.6g} rad too close to pi/2")


class TrackContext:
    """Plain-float frame of one ``(x, t)``, ``x`` any 7-sequence of the state
    fields, shared by the per-step formulas.

    Holds the sines and cosines of the Euler angles, the body-to-earth
    rotation columns (3-2-1 Euler; ``c0`` is the unit velocity
    direction, ``c1`` and ``c2`` the body right and down axes in the
    earth frame), the inertial velocity and the coordinated turn rate,
    all from sines computed once here; the vectors ``r``, ``v``, ``c0``,
    ``c1`` and ``c2`` are float 3-lists.  Construction enforces the pitch
    guard and the speed floor.  ``goal_jet`` and ``members`` start empty.
    ``goal_jet`` keeps the step's goal jet once a command has built it;
    ``members`` keeps the constraint members' jets and their one
    composition once :func:`~fwrta.constraints.frame_jets` has built them.
    """

    __slots__ = (
        "t", "r", "V_T", "g_over_V",
        "s_ph", "c_ph", "s_th", "c_th", "t_th",
        "c0", "c1", "c2", "v", "R", "goal_jet", "members",
    )

    def __init__(self, state, t: float, g: GravityParam):
        n, e, d, phi, theta, psi, V_T = map(float, state)
        check_pitch(theta)
        check_speed(V_T)
        self.t = t
        self.r = [n, e, d]
        s_ph, c_ph = math.sin(phi), math.cos(phi)
        s_th, c_th = math.sin(theta), math.cos(theta)
        s_ps, c_ps = math.sin(psi), math.cos(psi)
        self.V_T = V_T
        self.g_over_V = g.g_d / V_T
        self.s_ph, self.c_ph = s_ph, c_ph
        self.s_th, self.c_th = s_th, c_th
        self.t_th = s_th / c_th
        self.c0 = [c_ps * c_th, s_ps * c_th, -s_th]
        self.c1 = [c_ps * s_th * s_ph - s_ps * c_ph, s_ps * s_th * s_ph + c_ps * c_ph, c_th * s_ph]
        self.c2 = [c_ps * s_th * c_ph + s_ps * s_ph, s_ps * s_th * c_ph - c_ps * s_ph, c_th * c_ph]
        self.v = [V_T * c_th * c_ps, V_T * c_th * s_ps, -V_T * s_th]
        self.R = self.g_over_V * s_ph * c_th
        self.goal_jet = None
        self.members = None
