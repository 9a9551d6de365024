"""Position-level safety constraints and their smooth composition.

Two member kinds are supported: a moving spherical obstacle (keep the
distance to its center above a radius) and a planar geofence (stay on
the positive side of a plane with margin).  Multiple members are merged
into a single barrier value by a stabilized log-sum-exp smooth minimum
(every member must hold, so there is no union-style smooth maximum).

Each member's value, gradient and explicit time-partial come from
:func:`member_terms`, written over the dual-capable helpers so every
downstream construction can be differentiated by evaluation.  The
member's rate along a velocity ``v`` is ``gradient . v + time-partial``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import dual as dm
from .errors import CoincidentPosition

COINCIDENT_TOL = 1e-9  # m


@dataclass(frozen=True)
class MovingObstacle:
    """Spherical keep-out region around a moving point.

    ``trajectory`` maps time to (position, velocity, acceleration); it
    must be re-entrant.  Derivative-based filters assume the returned
    acceleration is the exact derivative of the velocity (jerk is taken
    as zero), which holds for the constant-velocity default.
    """

    trajectory: Callable[[float], tuple]
    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("obstacle radius must be positive")

    @classmethod
    def constant_velocity(cls, center, velocity, rho: float) -> "MovingObstacle":
        c = np.asarray(center, dtype=float)
        v = np.asarray(velocity, dtype=float)
        zero = np.zeros(3)

        def traj(t: float):
            return c + v * t, v, zero

        return cls(trajectory=traj, rho=float(rho))


@dataclass(frozen=True)
class GeofencePlane:
    """Keep-out half-space boundary: stay where ``n . (r - point) >= rho``.

    The stored normal is unit length; any nonzero normal is accepted and
    normalized on construction.
    """

    point: np.ndarray
    normal: np.ndarray
    rho: float

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        n = np.asarray(self.normal, dtype=float)
        nn = np.linalg.norm(n)
        if not nn > 0.0:
            raise ValueError("geofence normal must be nonzero")
        if self.rho < 0.0:
            raise ValueError("geofence margin must be nonnegative")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "normal", n / nn)
        object.__setattr__(self, "rho", float(self.rho))


Constraint = MovingObstacle | GeofencePlane


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered constraint members with the composition sharpness ``kappa``."""

    members: Sequence[Constraint]
    kappa: float

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("constraint set must be non-empty")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "members", tuple(self.members))


@dataclass
class BarrierEval:
    """Composed barrier value with gradient, time-partial and weights."""

    value: float
    gradient_r: np.ndarray
    dt_partial: float
    per_constraint: list = field(default_factory=list)
    weights: list = field(default_factory=list)


def obstacle_at(obs: MovingObstacle, t):
    """Obstacle position/velocity/acceleration, lifted to match dual ``t``."""
    p, v, a = obs.trajectory(float(dm.value(t)))
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if isinstance(t, (dm.Dual, dm.Dual2)):
        zero = np.zeros(3)
        return dm.lift_path(p, v, a, t), dm.lift_path(v, a, zero, t), dm.lift_path(a, zero, zero, t)
    return p, v, a


def _separation(r, t, obs: MovingObstacle):
    r_i, v_i, a_i = obstacle_at(obs, t)
    diff = r - r_i
    q = dm.norm(diff)
    if float(dm.value(q)) < COINCIDENT_TOL:
        raise CoincidentPosition(f"position within {COINCIDENT_TOL} m of obstacle center")
    return diff, q, v_i, a_i


def h_geofence(r, plane: GeofencePlane):
    """Signed distance to the geofence plane, less the margin."""
    return dm.dot(plane.normal, r - plane.point) - plane.rho


def member_terms(r, t, member: Constraint):
    """(value, gradient wrt position, explicit time-partial) of one member."""
    if isinstance(member, GeofencePlane):
        return h_geofence(r, member), member.normal, 0.0
    diff, q, v_i, _ = _separation(r, t, member)
    n = diff / q
    return q - member.rho, n, -dm.dot(n, v_i)


def softmin_weights(values, kappa: float):
    """Smooth minimum ``-(1/kappa) ln sum(exp(-kappa h_i))`` plus the convex
    weights ``exp(-kappa (h_i - h))``, stabilized and dual-capable.

    Under-approximates the true minimum by at most ``ln(N)/kappa``.
    """
    vals = list(values)
    if not vals:
        raise ValueError("softmin of empty list")
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    floats = [float(dm.value(v)) for v in vals]
    m = vals[floats.index(min(floats))]
    acc = 0.0
    for v in vals:
        acc = acc + dm.exp((m - v) * kappa)
    h = m - dm.log(acc) / kappa
    return h, [dm.exp((h - v) * kappa) for v in vals]


def softmin(values, kappa: float):
    """Smooth minimum of ``values`` (see :func:`softmin_weights`)."""
    return softmin_weights(values, kappa)[0]


def compose_terms(r, t, cset: ConstraintSet):
    """Generic composed barrier: (value, grad_r, dt_partial, per, weights)."""
    per = []
    grads = []
    dts = []
    for m in cset.members:
        h_i, g_i, dt_i = member_terms(r, t, m)
        per.append(h_i)
        grads.append(g_i)
        dts.append(dt_i)
    if len(per) == 1:
        return per[0], grads[0], dts[0], per, [1.0]
    h, w = softmin_weights(per, cset.kappa)
    grad = w[0] * grads[0]
    dtp = w[0] * dts[0]
    for i in range(1, len(per)):
        grad = grad + w[i] * grads[i]
        dtp = dtp + w[i] * dts[i]
    return h, grad, dtp, per, w


def compose_h_p(r, t, cset: ConstraintSet) -> BarrierEval:
    """Composed position barrier with weight-averaged derivatives."""
    h, grad, dtp, per, w = compose_terms(np.asarray(r, dtype=float), float(t), cset)
    return BarrierEval(
        value=float(h),
        gradient_r=np.asarray(grad, dtype=float),
        dt_partial=float(dtp),
        per_constraint=[float(v) for v in per],
        weights=[float(x) for x in w],
    )
