"""Position-level safety constraints and their smooth composition.

Two member kinds are supported: a moving spherical obstacle (keep the
distance to its center above a radius) and a planar geofence (stay on
the positive side of a plane with margin).  Multiple members are merged
into a single barrier value by a stabilized log-sum-exp smooth minimum
(every member must hold, so there is no union-style smooth maximum).

Each member is evaluated and the members composed once per control
step: :func:`frame_jets` keeps each member's first-order Taylor jet
along ``(v, 1)`` (:func:`member_jet1`) on the step's frame, next to
the one composition of their zeroth orders, which :func:`compose_h_p`
returns.  The extended member is their first order, and
:func:`member_jet` adds the second order along the curve
``(r + tau v + tau^2 r2 / 2, t + tau)``.  :func:`compose_jets` extends
the composition: it sums the weighted member jets' first orders in
place, and their second orders once ``r2`` is known.  Vectors are float
3-sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dual import ZERO3, dot3
from .errors import CoincidentPosition

COINCIDENT_TOL = 1e-9  # m


def finite_vec3(x, name: str) -> list:
    """``x`` as a float 3-list; raises ``ValueError`` unless it holds exactly three finite numbers."""
    a = np.asarray(x, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be 3 finite numbers")
    return a.tolist()


@dataclass(frozen=True)
class MovingObstacle:
    """Spherical keep-out region around a moving point.

    ``trajectory`` maps time to (position, velocity, acceleration), float
    3-sequences; it must be re-entrant.  Derivative-based filters assume
    the returned acceleration is the exact derivative of the velocity
    (jerk is taken as zero), which holds for the constant-velocity default.
    """

    trajectory: Callable[[float], tuple]
    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("obstacle radius must be positive")
        if not math.isfinite(self.rho):
            raise ValueError("obstacle radius must be finite")

    @classmethod
    def constant_velocity(cls, center, velocity, rho: float) -> "MovingObstacle":
        c = finite_vec3(center, "obstacle center")
        v = tuple(finite_vec3(velocity, "obstacle velocity"))

        def traj(t: float):
            return [c[0] + v[0] * t, c[1] + v[1] * t, c[2] + v[2] * t], v, ZERO3

        return cls(trajectory=traj, rho=float(rho))


@dataclass(frozen=True)
class GeofencePlane:
    """Keep-out half-space boundary: stay where ``n . (r - point) >= rho``.

    The stored normal is unit length; any nonzero normal is accepted and
    normalized on construction.  ``n3`` and ``p3`` hold the normal and
    the point as float 3-tuples, for the per-step formulas.
    """

    point: np.ndarray
    normal: np.ndarray
    rho: float
    n3: tuple = field(init=False, repr=False, compare=False)
    p3: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.array(finite_vec3(self.point, "geofence point"))
        n = np.array(finite_vec3(self.normal, "geofence normal"))
        nn = np.linalg.norm(n)
        if not nn > 0.0:
            raise ValueError("geofence normal must be nonzero")
        if not math.isfinite(self.rho):
            raise ValueError("geofence margin must be finite")
        if self.rho < 0.0:
            raise ValueError("geofence margin must be nonnegative")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "normal", n / nn)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "n3", tuple(self.normal.tolist()))
        object.__setattr__(self, "p3", tuple(p.tolist()))


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
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")
        object.__setattr__(self, "members", tuple(self.members))


@dataclass
class BarrierEval:
    """Composed barrier value with gradient, time-partial and weights."""

    value: float
    gradient_r: list
    dt_partial: float
    per_constraint: list = field(default_factory=list)
    weights: list = field(default_factory=list)


def _separation(r, t, obs: MovingObstacle):
    """``(r - r_i, |r - r_i|, v_i, a_i)``; raises before anything divides by the distance."""
    r_i, v_i, a_i = obs.trajectory(float(t))
    diff = [r[0] - r_i[0], r[1] - r_i[1], r[2] - r_i[2]]
    q = math.sqrt(dot3(diff, diff))
    if q < COINCIDENT_TOL:
        raise CoincidentPosition(f"position within {COINCIDENT_TOL} m of obstacle center")
    return diff, q, v_i, a_i


def h_geofence(r, plane: GeofencePlane):
    """Signed distance to the geofence plane, less the margin."""
    p = plane.p3
    return dot3(plane.n3, (r[0] - p[0], r[1] - p[1], r[2] - p[2])) - plane.rho


def _unit_along(n, q, d):
    """Rates ``(q', n')`` of the distance ``q`` and unit vector ``n`` of a
    separation moving by the 3-list ``d``: ``q' = n . d``, ``n' = (d - n q') / q``."""
    q1 = dot3(n, d)
    return q1, [(d[0] - n[0] * q1) / q, (d[1] - n[1] * q1) / q, (d[2] - n[2] * q1) / q]


def member_jet1(r, t, v, member: Constraint):
    """One member's jets along ``(r + tau v, t + tau)`` (``v`` a 3-list), truncated after
    their first derivative.

    Returns ``(h, n, d, sep)``: the value's, the gradient's and the
    time-partial's jets, and an obstacle's ``(q, delta, v_i, a_i)``, which
    :func:`member_jet` reads (``None`` for a plane).  An obstacle's
    separation moves as
    ``diff + tau delta - tau^2 a_i / 2`` with ``delta = v - v_i``.
    """
    if isinstance(member, GeofencePlane):
        n = member.n3
        return (h_geofence(r, member), dot3(n, v)), (n, ZERO3), (0.0, 0.0), None
    diff, q, v_i, a_i = _separation(r, t, member)
    n = [diff[0] / q, diff[1] / q, diff[2] / q]
    dl = [v[0] - v_i[0], v[1] - v_i[1], v[2] - v_i[2]]
    q1, n1 = _unit_along(n, q, dl)
    return (q - member.rho, q1), (n, n1), (-dot3(n, v_i), -dot3(n1, v_i) - dot3(n, a_i)), (q, dl, v_i, a_i)


def frame_jets(ctx, cset: ConstraintSet):
    """:func:`member_jet1` of each member of ``cset`` at the frame, evaluated once:
    ``ctx.members`` keeps them keyed by ``cset``, next to the one composition of
    their zeroth orders (the :class:`BarrierEval` :func:`compose_h_p` returns)."""
    memo = ctx.members
    if memo is None or memo[0] is not cset:
        jets = [member_jet1(ctx.r, ctx.t, ctx.v, m) for m in cset.members]
        h, *grad, dtp, per, w = compose_members([[h[0], *n[0], d[0]] for h, n, d, _ in jets], cset.kappa)
        memo = ctx.members = (cset, jets, BarrierEval(h, grad, dtp, per, w))
    return memo[1]


def member_jet(jet1, r2):
    """Second orders ``(h'', n'', d'')`` of a :func:`member_jet1` result along the curve
    ``(r + tau v + tau^2 r2 / 2, t + tau)``, which leaves its first orders as they are.

    A plane's gradient and time-partial are constant and ``h'' = n . r2``; an
    obstacle's separation has second derivative ``r2 - a_i``.
    """
    (_, q1), (n, n1), _, sep = jet1
    if sep is None:
        return dot3(n, r2), ZERO3, 0.0
    q, dl, v_i, a_i = sep
    e = [r2[0] - a_i[0], r2[1] - a_i[1], r2[2] - a_i[2]]
    q2 = (dot3(dl, dl) - q1 * q1) / q + dot3(n, e)
    n2 = [(e[0] - 2.0 * n1[0] * q1 - n[0] * q2) / q, (e[1] - 2.0 * n1[1] * q1 - n[1] * q2) / q,
          (e[2] - 2.0 * n1[2] * q1 - n[2] * q2) / q]
    return q2, n2, -dot3(n2, v_i) - 2.0 * dot3(n1, a_i)


def softmin_weights(values, kappa: float):
    """Smooth minimum ``-(1/kappa) ln sum(exp(-kappa h_i))`` plus the convex
    weights ``exp(-kappa (h_i - h))``, stabilized.

    Under-approximates the true minimum by at most ``ln(N)/kappa``.
    """
    vals = list(values)
    if not vals:
        raise ValueError("softmin of empty list")
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    m = min(vals)
    acc = 0.0
    for v in vals:
        acc = acc + math.exp((m - v) * kappa)
    h = m - math.log(acc) / kappa
    return h, [math.exp((h - v) * kappa) for v in vals]


def compose_members(terms, kappa: float):
    """Softmin of the members' values with their other entries weight-averaged.

    ``terms`` holds one flat float list ``[value, *derivatives]`` per member; returns
    ``(h, *averaged derivatives, per-member values, weights)``.
    """
    cols = list(zip(*terms))
    per = list(cols[0])
    if len(per) == 1:
        return (*terms[0], per, [1.0])
    h, w = softmin_weights(per, kappa)
    out = [h]
    for col in cols[1:]:
        acc = w[0] * col[0]
        for i in range(1, len(per)):
            acc = acc + w[i] * col[i]
        out.append(acc)
    return (*out, per, w)


def compose_jets(jets, pos: BarrierEval, kappa: float):
    """:func:`member_jet1` results composed as one member's jets ``(h, n, d)`` up to the
    first order plus ``second(r2)``, their second orders along the curve of
    :func:`member_jet`; the zeroth orders and weights are their composition ``pos``
    (:func:`compose_h_p`), which this extends.

    Along the curve ``h' = sum w_i h_i'`` and ``w_i' = -kappa w_i (h_i' - h')``, and
    likewise one order up; the weighted gradient and time-partial jets are summed
    in place, member by member.
    """
    w = pos.weights
    h1 = sum(x * j[0][1] for x, j in zip(w, jets))
    w1 = [kappa * x * (h1 - j[0][1]) for x, j in zip(w, jets)]
    # the weight jet times the gradient's jet (a, b) and the time-partial's (e),
    # added straight into each first-order component in member order
    g1x = g1y = g1z = d1 = 0.0
    for x0, x1, (_, ((ax, ay, az), (bx, by, bz)), (e0, e1), _) in zip(w, w1, jets):
        g1x, g1y, g1z = g1x + (x1 * ax + x0 * bx), g1y + (x1 * ay + x0 * by), g1z + (x1 * az + x0 * bz)
        d1 += x1 * e0 + x0 * e1

    def second(r2):
        jets2 = [member_jet(j, r2) for j in jets]
        h2 = sum(x * j[0][1] + y * j2[0] for x, y, j, j2 in zip(w1, w, jets, jets2))
        w2 = [kappa * (x * (h1 - j[0][1]) + y * (h2 - j2[0])) for x, y, j, j2 in zip(w1, w, jets, jets2)]
        g2x = g2y = g2z = d2 = 0.0
        for x0, x1, x2, (_, ((ax, ay, az), (bx, by, bz)), (e0, e1), _), (_, (cx, cy, cz), e2) in zip(
                w, w1, w2, jets, jets2):
            y1 = 2.0 * x1
            g2x += x2 * ax + y1 * bx + x0 * cx
            g2y += x2 * ay + y1 * by + x0 * cy
            g2z += x2 * az + y1 * bz + x0 * cz
            d2 += x2 * e0 + y1 * e1 + x0 * e2
        return h2, [g2x, g2y, g2z], d2

    return (pos.value, h1), (pos.gradient_r, [g1x, g1y, g1z]), (pos.dt_partial, d1), second


def compose_h_p(ctx, cset: ConstraintSet) -> BarrierEval:
    """Composed position barrier at the frame: the composition :func:`frame_jets` keeps."""
    frame_jets(ctx, cset)
    return ctx.members[2]
