"""Model-free velocity-level assurance (strategy 3).

The smooth filter step bends the desired velocity command so the
position barrier rate satisfies its decay condition with an extra
robustness margin ``sigma |grad h|^2`` against tracking error.
Deviations along the desired velocity are cheap, perpendicular ones cost
``Gamma_v`` times more.  That weight is never built: with
``s = g . v_d / |v_d|^2`` and ``c = 1 / Gamma_v`` the part of the
gradient ``g`` across ``v_d`` is ``g - s v_d``, so the step has a closed
form in ``s``, ``g`` and ``v_d`` (:func:`filter_jet`).  The tracker
flies it as a plain-float Taylor jet along the flown curve, written in
scalar formulas: orders 0 and 1 when the command is built, the second
order once the curve's acceleration is known.  The zeroth order is
written once (:func:`_filter0`) and evaluated once per control step, by
:func:`safe_velocity_from_terms`, which returns it: its
:class:`~fwrta.filters.FilterResult` (the safe velocity is its ``u``,
the achieved margin its ``slack``) and the terms :func:`filter_jet`
extends; the step passes it on to the safe command's jet.  The
Lyapunov-coupled monitor ``h_V = h_p - V / (2 sigma (lambda - gamma_p))``
certifies the tracked closed loop and is logged, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidGainOrdering, ZeroDesiredVelocity
from .filters import FilterResult, check_positive, softplus

ZERO_VELOCITY_TOL = 1e-6  # m/s
ZERO_VELOCITY_MSG = "desired velocity too small for the direction projector"


@dataclass(frozen=True)
class ModelFreeParams:
    """Barrier gain, robustness margin, anisotropy and smoothing."""

    gamma_p: float
    sigma: float
    Gamma_v: float
    nu_v: float

    def __post_init__(self):
        check_positive(gamma_p=self.gamma_p, sigma=self.sigma, Gamma_v=self.Gamma_v, nu_v=self.nu_v)


def _filter0(h0, g0, d0, u0, p: ModelFreeParams):
    """The filter's zeroth order, which :func:`filter_jet` extends: its
    :class:`~fwrta.filters.FilterResult` and, unless the row is zero, the terms
    ``(P, gu, s, beta, q, softplus, m, k)`` the jet extends."""
    ux, uy, uz = u0
    gx, gy, gz = g0
    P = ux * ux + uy * uy + uz * uz
    if math.sqrt(P) < ZERO_VELOCITY_TOL:
        raise ZeroDesiredVelocity(ZERO_VELOCITY_MSG)
    gu, gg = (gx * ux + gy * uy + gz * uz), (gx * gx + gy * gy + gz * gz)
    a = gu + d0 + p.gamma_p * h0 - p.sigma * gg
    s = gu / P
    c = 1.0 / p.Gamma_v
    c1 = 1.0 - c
    bn2 = c * gg + c1 * (s * gu)
    if bn2 == 0.0:
        return FilterResult(u0, a, 0.0, 0.0, bn2, a, a < 0.0), None
    # beta = |b|, q = a / beta and lam = softplus(-nu q) / (nu beta)
    beta = math.sqrt(bn2)
    q = a / beta
    sp = softplus(-p.nu_v * q)
    lam = sp[0] / (p.nu_v * beta)
    m, k = c1 * (lam * s), c * lam
    v_s = [ux + m * ux + k * gx, uy + m * uy + k * gy, uz + m * uz + k * gz]
    return FilterResult(v_s, a, lam, sp[1], bn2, a + lam * bn2, False), (P, gu, s, beta, q, sp, m, k)


def filter_jet(zeroth, u, h, g, d, p: ModelFreeParams):
    """:func:`safe_velocity_from_terms`'s ``v_s`` as a vector jet ``(v_s, v_s')`` from the
    first-order jets of ``v_d``, ``h``, ``grad`` and ``dtp``, plus
    ``second(u2, h2, g2, d2)``, which maps their second orders to ``v_s''``.

    ``zeroth`` is :func:`_filter0` of the jets' zeroth orders, as
    :func:`safe_velocity_from_terms` returns it; orders 1 and 2 extend its terms.  With
    ``s = g . v_d / |v_d|^2`` and ``c = 1 / Gamma_v``, the part of ``g`` across
    ``v_d`` is ``g - s v_d``, so ``|b|^2 = c |g|^2 + (1 - c) s (g . v_d)`` and
    ``v_s = v_d + lam ((1 - c) s v_d + c g)``; ``|g|^2`` is the rate condition's.
    """
    (u0, u1), (_, h1), (g0, g1), (_, d1) = u, h, g, d
    res, terms = zeroth
    if terms is None:
        return u, lambda u2, h2, g2, d2: u2
    P, gu, s, beta, q, (_, sl, cv), m, k = terms
    c, nu, gamma_p, sigma, lam = 1.0 / p.Gamma_v, p.nu_v, p.gamma_p, p.sigma, res.lam
    c1 = 1.0 - c
    (ux, uy, uz), (vx, vy, vz), (gx, gy, gz), (fx, fy, fz) = u0, u1, g0, g1
    P1 = 2.0 * (ux * vx + uy * vy + uz * vz)
    gu1 = (fx * ux + fy * uy + fz * uz) + (gx * vx + gy * vy + gz * vz)
    gg1 = 2.0 * (gx * fx + gy * fy + gz * fz)
    a1 = gu1 + d1 + gamma_p * h1 - sigma * gg1
    s1 = (gu1 - s * P1) / P
    beta1 = 0.5 * (c * gg1 + c1 * (s1 * gu + s * gu1)) / beta
    q1 = (a1 - q * beta1) / beta
    x1 = -nu * q1
    nb = nu * beta
    lam1 = (sl * x1 - lam * (nu * beta1)) / nb
    m1, k1 = c1 * (lam1 * s + lam * s1), c * lam1
    v_s = (res.u, [vx + (m1 * ux + m * vx) + (k1 * gx + k * fx),
                   vy + (m1 * uy + m * vy) + (k1 * gy + k * fy),
                   vz + (m1 * uz + m * vz) + (k1 * gz + k * fz)])

    def second(u2, h2, g2, d2):
        (wx, wy, wz), (ex, ey, ez) = u2, g2
        P2 = 2.0 * ((vx * vx + vy * vy + vz * vz) + (ux * wx + uy * wy + uz * wz))
        gu2 = (ex * ux + ey * uy + ez * uz) + 2.0 * (fx * vx + fy * vy + fz * vz) + (gx * wx + gy * wy + gz * wz)
        gg2 = 2.0 * ((fx * fx + fy * fy + fz * fz) + (gx * ex + gy * ey + gz * ez))
        a2 = gu2 + d2 + gamma_p * h2 - sigma * gg2
        s2 = (gu2 - 2.0 * s1 * P1 - s * P2) / P
        beta2 = (0.5 * (c * gg2 + c1 * (s2 * gu + 2.0 * s1 * gu1 + s * gu2)) - beta1 * beta1) / beta
        x2 = -nu * (a2 - 2.0 * q1 * beta1 - q * beta2) / beta
        lam2 = (cv * x1 * x1 + sl * x2 - nu * (2.0 * lam1 * beta1 + lam * beta2)) / nb
        m2, k2, m1_2, k1_2 = c1 * (lam2 * s + 2.0 * lam1 * s1 + lam * s2), c * lam2, 2.0 * m1, 2.0 * k1
        return [wx + (m2 * ux + m1_2 * vx + m * wx) + (k2 * gx + k1_2 * fx + k * ex),
                wy + (m2 * uy + m1_2 * vy + m * wy) + (k2 * gy + k1_2 * fy + k * ey),
                wz + (m2 * uz + m1_2 * vz + m * wz) + (k2 * gz + k1_2 * fz + k * ez)]

    return v_s, second


def safe_velocity_from_terms(pos, v_d, p: ModelFreeParams):
    """Filter a desired velocity (a float 3-sequence) against the composed barrier
    ``pos`` (a :class:`~fwrta.constraints.BarrierEval`): the zeroth order of
    :func:`filter_jet`, ``(result, terms)`` as :func:`_filter0` returns it.

    The result's ``u`` is the safe velocity ``v_s``, ``a`` the margin-reduced
    rate condition at ``v_d`` and ``slack`` the achieved margin.
    """
    return _filter0(pos.value, pos.gradient_r, pos.dt_partial, v_d, p)


def h_V(V_lyap: float, h_p_val: float, p: ModelFreeParams, lam: float) -> float:
    """Lyapunov-coupled barrier monitor; requires ``lam > gamma_p``."""
    if not lam > p.gamma_p:
        raise InvalidGainOrdering(f"lambda = {lam} must exceed gamma_p = {p.gamma_p}")
    return h_p_val - V_lyap / (2.0 * p.sigma * (lam - p.gamma_p))
