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
written once: :func:`safe_velocity_from_terms` returns it as a
:class:`~fwrta.filters.FilterResult` (the safe velocity is its ``u``,
the achieved margin its ``slack``), and :func:`filter_jet` extends its
terms.  The
Lyapunov-coupled monitor ``h_V = h_p - V / (2 sigma (lambda - gamma_p))``
certifies the tracked closed loop and is logged, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dual import dot3
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
    """The filter's zeroth order, for both :func:`safe_velocity_from_terms` and
    :func:`filter_jet`: its :class:`~fwrta.filters.FilterResult` and, unless the
    row is zero, the terms ``(P, gu, s, beta, q, softplus, m, k)`` the jet extends."""
    P = dot3(u0, u0)
    if math.sqrt(P) < ZERO_VELOCITY_TOL:
        raise ZeroDesiredVelocity(ZERO_VELOCITY_MSG)
    gu, gg = dot3(g0, u0), dot3(g0, g0)
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
    v_s = [u0[0] + m * u0[0] + k * g0[0], u0[1] + m * u0[1] + k * g0[1], u0[2] + m * u0[2] + k * g0[2]]
    return FilterResult(v_s, a, lam, sp[1], bn2, a + lam * bn2, False), (P, gu, s, beta, q, sp, m, k)


def filter_jet(u, h, g, d, p: ModelFreeParams):
    """:func:`safe_velocity_from_terms`'s ``v_s`` as a vector jet ``(v_s, v_s')`` from the
    first-order jets of ``v_d``, ``h``, ``grad`` and ``dtp``, plus
    ``second(u2, h2, g2, d2)``, which maps their second orders to ``v_s''``.

    With ``s = g . v_d / |v_d|^2`` and ``c = 1 / Gamma_v``, the part of ``g``
    across ``v_d`` is ``g - s v_d``, so ``|b|^2 = c |g|^2 + (1 - c) s (g . v_d)``
    and ``v_s = v_d + lam ((1 - c) s v_d + c g)``; ``|g|^2`` is the rate
    condition's.  Orders 1 and 2 extend the zeroth order's terms.
    """
    (u0, u1), (h0, h1), (g0, g1), (d0, d1) = u, h, g, d
    res, terms = _filter0(h0, g0, d0, u0, p)
    if terms is None:
        return u, lambda u2, h2, g2, d2: u2
    P, gu, s, beta, q, (_, sl, cv), m, k = terms
    c, nu, gamma_p, sigma, lam = 1.0 / p.Gamma_v, p.nu_v, p.gamma_p, p.sigma, res.lam
    c1 = 1.0 - c
    P1, gu1, gg1 = 2.0 * dot3(u0, u1), dot3(g1, u0) + dot3(g0, u1), 2.0 * dot3(g0, g1)
    a1 = gu1 + d1 + gamma_p * h1 - sigma * gg1
    s1 = (gu1 - s * P1) / P
    beta1 = 0.5 * (c * gg1 + c1 * (s1 * gu + s * gu1)) / beta
    q1 = (a1 - q * beta1) / beta
    x1 = -nu * q1
    nb = nu * beta
    lam1 = (sl * x1 - lam * (nu * beta1)) / nb
    m1, k1 = c1 * (lam1 * s + lam * s1), c * lam1
    v_s = (res.u, [u1[0] + (m1 * u0[0] + m * u1[0]) + (k1 * g0[0] + k * g1[0]),
                   u1[1] + (m1 * u0[1] + m * u1[1]) + (k1 * g0[1] + k * g1[1]),
                   u1[2] + (m1 * u0[2] + m * u1[2]) + (k1 * g0[2] + k * g1[2])])

    def second(u2, h2, g2, d2):
        P2 = 2.0 * (dot3(u1, u1) + dot3(u0, u2))
        gu2 = dot3(g2, u0) + 2.0 * dot3(g1, u1) + dot3(g0, u2)
        gg2 = 2.0 * (dot3(g1, g1) + dot3(g0, g2))
        a2 = gu2 + d2 + gamma_p * h2 - sigma * gg2
        s2 = (gu2 - 2.0 * s1 * P1 - s * P2) / P
        beta2 = (0.5 * (c * gg2 + c1 * (s2 * gu + 2.0 * s1 * gu1 + s * gu2)) - beta1 * beta1) / beta
        x2 = -nu * (a2 - 2.0 * q1 * beta1 - q * beta2) / beta
        lam2 = (cv * x1 * x1 + sl * x2 - nu * (2.0 * lam1 * beta1 + lam * beta2)) / nb
        m2, k2, m1_2, k1_2 = c1 * (lam2 * s + 2.0 * lam1 * s1 + lam * s2), c * lam2, 2.0 * m1, 2.0 * k1
        return [u2[0] + (m2 * u0[0] + m1_2 * u1[0] + m * u2[0]) + (k2 * g0[0] + k1_2 * g1[0] + k * g2[0]),
                u2[1] + (m2 * u0[1] + m1_2 * u1[1] + m * u2[1]) + (k2 * g0[1] + k1_2 * g1[1] + k * g2[1]),
                u2[2] + (m2 * u0[2] + m1_2 * u1[2] + m * u2[2]) + (k2 * g0[2] + k1_2 * g1[2] + k * g2[2])]

    return v_s, second


def safe_velocity_from_terms(h_p_val: float, grad, dtp: float, v_d, p: ModelFreeParams) -> FilterResult:
    """Filter a desired velocity (a float 3-sequence) given an already-composed barrier:
    the zeroth order of :func:`filter_jet`.

    The result's ``u`` is the safe velocity ``v_s``, ``a`` the margin-reduced
    rate condition at ``v_d`` and ``slack`` the achieved margin.
    """
    return _filter0(h_p_val, grad, dtp, v_d, p)[0]


def h_V(V_lyap: float, h_p_val: float, p: ModelFreeParams, lam: float) -> float:
    """Lyapunov-coupled barrier monitor; requires ``lam > gamma_p``."""
    if not lam > p.gamma_p:
        raise InvalidGainOrdering(f"lambda = {lam} must exceed gamma_p = {p.gamma_p}")
    return h_p_val - V_lyap / (2.0 * p.sigma * (lam - p.gamma_p))
