"""Position-level safety constraints and their smooth composition.

Two member kinds are supported: a moving spherical obstacle (keep the
distance to its center above a radius) and a planar geofence (stay on
the positive side of a plane with margin).  Multiple members are merged
into a single barrier value by a stabilized log-sum-exp smooth minimum
(every member must hold, so there is no union-style smooth maximum).

Each member is evaluated and the members composed once per control
step, by :func:`compose_h_p`: each member's first-order Taylor jet along
``(v, 1)`` (:func:`member_jet1`), one :func:`softmin_weights` of the
members' values, then one walk over the members that sums the weighted
gradients and time-partials.  The :class:`BarrierEval` it returns holds
the member jets and ``kappa`` next to the composition, and the step
passes it on to every layer that reads the members.  The extended
member is their first order, and :func:`member_jet` adds an obstacle's
second order along the curve ``(r + tau v + tau^2 r2 / 2, t + tau)``; a
plane's is the constant ``(n . r2, ZERO3, 0.0)``, which its callers
write in place.  :func:`compose_jets` extends the composition: it sums
the weighted member jets' first orders in place, and their second orders
once ``r2`` is known.

Vectors are float 3-sequences, and every fixed-size vector formula of a
control step, across all modules, is written as explicit components:
each inner product is the parenthesized sum
``(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])`` at its call site, with no
helper call, comprehension, generator or ``zip`` per vector, each
component keeping the float operations in their order; only sums over
constraint members loop, as plain loops in member order.  Nothing at
run time differentiates by evaluation: every derivative is written in
closed form over Python floats (the model-free safe command's as a
univariate Taylor jet along the flown curve; Griewank, Utke & Walther,
Math. Comp. 2000).  The
forward-mode dual numbers the tests use as the oracle of those closed
forms live under ``tests/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoincidentPosition

COINCIDENT_TOL = 1e-9  # m
ZERO3 = (0.0, 0.0, 0.0)


def finite_vec3(x, name: str) -> list:
    """``x`` as a float 3-list; raises ``ValueError`` unless it holds exactly three finite numbers."""
    a = np.asarray(x, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be 3 finite numbers")
    return a.tolist()


@dataclass(frozen=True)
class MovingObstacle:
    """Spherical keep-out region of radius ``rho`` around a point that starts at
    ``center`` at time 0 and moves at the constant ``velocity``.

    ``center`` and ``velocity`` are held as float 3-tuples; the
    derivative-based filters read the zero acceleration
    :meth:`trajectory` returns.
    """

    center: tuple
    velocity: tuple
    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("obstacle radius must be positive")
        if not math.isfinite(self.rho):
            raise ValueError("obstacle radius must be finite")
        object.__setattr__(self, "center", tuple(finite_vec3(self.center, "obstacle center")))
        object.__setattr__(self, "velocity", tuple(finite_vec3(self.velocity, "obstacle velocity")))
        object.__setattr__(self, "rho", float(self.rho))

    def trajectory(self, t: float):
        """Position, velocity and acceleration at time ``t``, float 3-sequences."""
        c, v = self.center, self.velocity
        return [c[0] + v[0] * t, c[1] + v[1] * t, c[2] + v[2] * t], v, ZERO3


@dataclass(frozen=True)
class GeofencePlane:
    """Keep-out half-space boundary: stay where ``n . (r - point) >= rho``.

    ``point`` and the unit ``normal`` are held as float 3-tuples; any
    nonzero normal is accepted and normalized on construction.
    """

    point: tuple
    normal: tuple
    rho: float

    def __post_init__(self):
        p = finite_vec3(self.point, "geofence point")
        n = np.array(finite_vec3(self.normal, "geofence normal"))
        nn = np.linalg.norm(n)
        if not nn > 0.0:
            raise ValueError("geofence normal must be nonzero")
        if not math.isfinite(self.rho):
            raise ValueError("geofence margin must be finite")
        if self.rho < 0.0:
            raise ValueError("geofence margin must be nonnegative")
        object.__setattr__(self, "point", tuple(p))
        object.__setattr__(self, "normal", tuple((n / nn).tolist()))
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
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")
        object.__setattr__(self, "members", tuple(self.members))


@dataclass
class BarrierEval:
    """Composed barrier value with gradient, time-partial, the members' values and
    weights, and the member jets and sharpness ``kappa`` it is composed from."""

    value: float
    gradient_r: list
    dt_partial: float
    per_constraint: list
    weights: list
    jets: list
    kappa: float


def _separation(r, t, obs: MovingObstacle):
    """``(r - r_i, |r - r_i|, v_i, a_i)``; raises before anything divides by the distance."""
    r_i, v_i, a_i = obs.trajectory(float(t))
    dx, dy, dz = r[0] - r_i[0], r[1] - r_i[1], r[2] - r_i[2]
    q = math.sqrt(dx * dx + dy * dy + dz * dz)
    if q < COINCIDENT_TOL:
        raise CoincidentPosition(f"position within {COINCIDENT_TOL} m of obstacle center")
    return (dx, dy, dz), q, v_i, a_i


def h_geofence(r, plane: GeofencePlane):
    """Signed distance to the geofence plane, less the margin."""
    n, p = plane.normal, plane.point
    return (n[0] * (r[0] - p[0]) + n[1] * (r[1] - p[1]) + n[2] * (r[2] - p[2])) - plane.rho


def _unit_along(n, q, d):
    """Rates ``(q', n')`` of the distance ``q`` and unit vector ``n`` of a
    separation moving by the 3-list ``d``: ``q' = n . d``, ``n' = (d - n q') / q``."""
    q1 = n[0] * d[0] + n[1] * d[1] + n[2] * d[2]
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
        n = member.normal
        return (h_geofence(r, member), (n[0] * v[0] + n[1] * v[1] + n[2] * v[2])), (n, ZERO3), (0.0, 0.0), None
    (dx, dy, dz), q, v_i, a_i = _separation(r, t, member)
    nx, ny, nz = n = [dx / q, dy / q, dz / q]
    dl = [v[0] - v_i[0], v[1] - v_i[1], v[2] - v_i[2]]
    q1, n1 = _unit_along(n, q, dl)
    vx, vy, vz = v_i
    d0 = -(nx * vx + ny * vy + nz * vz)
    d1 = -(n1[0] * vx + n1[1] * vy + n1[2] * vz) - (nx * a_i[0] + ny * a_i[1] + nz * a_i[2])
    return (q - member.rho, q1), (n, n1), (d0, d1), (q, dl, v_i, a_i)


def member_jet(jet1, r2):
    """Second orders ``(h'', n'', d'')`` of an obstacle's :func:`member_jet1` result along
    the curve ``(r + tau v + tau^2 r2 / 2, t + tau)``, which leaves its first orders as
    they are: the separation has second derivative ``r2 - a_i``.

    A plane's are ``(n . r2, ZERO3, 0.0)``, which its callers write in place.
    """
    (_, q1), ((nx, ny, nz), (mx, my, mz)), _, (q, (lx, ly, lz), v_i, a_i) = jet1
    ex, ey, ez = r2[0] - a_i[0], r2[1] - a_i[1], r2[2] - a_i[2]
    q2 = ((lx * lx + ly * ly + lz * lz) - q1 * q1) / q + (nx * ex + ny * ey + nz * ez)
    n2x, n2y, n2z = n2 = [(ex - 2.0 * mx * q1 - nx * q2) / q, (ey - 2.0 * my * q1 - ny * q2) / q,
                          (ez - 2.0 * mz * q1 - nz * q2) / q]
    return q2, n2, -(n2x * v_i[0] + n2y * v_i[1] + n2z * v_i[2]) - 2.0 * (mx * a_i[0] + my * a_i[1] + mz * a_i[2])


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
    w = []
    for v in vals:
        w.append(math.exp((h - v) * kappa))
    return h, w


def compose_jets(pos: BarrierEval):
    """The composition ``pos`` (:func:`compose_h_p`) as one member's jets ``(h, n, d)`` up
    to the first order plus ``second(r2)``, their second orders along the curve of
    :func:`member_jet`: its member jets' first and second orders, weighted and summed;
    its zeroth orders and weights are the composition's.

    Along the curve ``h' = sum w_i h_i'`` and ``w_i' = -kappa w_i (h_i' - h')``, and
    likewise one order up; each order walks the members twice in member order, once
    for ``h'`` and once for the weights' jets and the weighted gradient and
    time-partial jets, summed in place.
    """
    w, jets, kappa = pos.weights, pos.jets, pos.kappa
    h1 = 0.0
    for x0, ((_, hi1), _, _, _) in zip(w, jets):
        h1 += x0 * hi1
    # the weight jet times the gradient's jet (a, b) and the time-partial's (e),
    # added straight into each first-order component in member order
    w1 = []
    g1x = g1y = g1z = d1 = 0.0
    for x0, ((_, hi1), ((ax, ay, az), (bx, by, bz)), (e0, e1), _) in zip(w, jets):
        x1 = kappa * x0 * (h1 - hi1)
        w1.append(x1)
        g1x, g1y, g1z = g1x + (x1 * ax + x0 * bx), g1y + (x1 * ay + x0 * by), g1z + (x1 * az + x0 * bz)
        d1 += x1 * e0 + x0 * e1

    def second(r2):
        jets2 = []
        h2 = 0.0
        for x0, x1, jet in zip(w, w1, jets):
            (_, hi1), (n, _), _, sep = jet
            jet2 = ((n[0] * r2[0] + n[1] * r2[1] + n[2] * r2[2]), ZERO3, 0.0) if sep is None else member_jet(jet, r2)
            jets2.append(jet2)
            h2 += x1 * hi1 + x0 * jet2[0]
        g2x = g2y = g2z = d2 = 0.0
        for x0, x1, ((_, hi1), ((ax, ay, az), (bx, by, bz)), (e0, e1), _), (hi2, (cx, cy, cz), e2) in zip(
                w, w1, jets, jets2):
            x2 = kappa * (x1 * (h1 - hi1) + x0 * (h2 - hi2))
            y1 = 2.0 * x1
            g2x += x2 * ax + y1 * bx + x0 * cx
            g2y += x2 * ay + y1 * by + x0 * cy
            g2z += x2 * az + y1 * bz + x0 * cz
            d2 += x2 * e0 + y1 * e1 + x0 * e2
        return h2, [g2x, g2y, g2z], d2

    return (pos.value, h1), (pos.gradient_r, [g1x, g1y, g1z]), (pos.dt_partial, d1), second


def compose_h_p(ctx, cset: ConstraintSet) -> BarrierEval:
    """Composed position barrier at the frame, with the member jets it is built from:
    :func:`member_jet1` of each member of ``cset``, one softmin of their values and
    one walk that sums the weighted gradients and time-partials, the first member
    starting each sum."""
    r, t, v = ctx.r, ctx.t, ctx.v
    jets, per = [], []
    for m in cset.members:
        jet = member_jet1(r, t, v, m)
        jets.append(jet)
        per.append(jet[0][0])
    h, w = (per[0], [1.0]) if len(per) == 1 else softmin_weights(per, cset.kappa)
    x, (_, ((nx, ny, nz), _), (d, _), _) = w[0], jets[0]
    gx, gy, gz, dt = x * nx, x * ny, x * nz, x * d
    for i in range(1, len(jets)):
        x, (_, ((nx, ny, nz), _), (d, _), _) = w[i], jets[i]
        gx, gy, gz, dt = gx + x * nx, gy + x * ny, gz + x * nz, dt + x * d
    return BarrierEval(h, [gx, gy, gz], dt, per, w, jets, cset.kappa)
