"""Model-free velocity-level assurance (strategy 3).

The smooth filter step bends the desired velocity command so the
position barrier rate satisfies its decay condition with an extra
robustness margin ``sigma |grad h|^2`` against tracking error.
Deviations along the desired velocity are cheap, perpendicular ones cost
``Gamma_v`` times more.  That weight is never built: with
``s = g . v_d / |v_d|^2`` and ``c = 1 / Gamma_v`` the part of the
gradient ``g`` across ``v_d`` is ``g - s v_d``, so the step has a closed
form in ``s``, ``g`` and ``v_d`` (:func:`filter_jet`).  The tracker
flies it as a plain-float Taylor jet; :func:`safe_velocity_from_terms`
is the jet's zeroth order, the same float operations in the same order,
and returns it as a :class:`~fwrta.filters.FilterResult`: the safe
velocity is its ``u``, the achieved margin its ``slack``.  The
Lyapunov-coupled monitor ``h_V = h_p - V / (2 sigma (lambda - gamma_p))``
certifies the tracked closed loop and is logged, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dual as dm
from .errors import InvalidGainOrdering, ZeroDesiredVelocity
from .filters import FilterResult, check_positive, lambda_smooth, lambda_smooth_rate, softplus

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


def filter_jet(u, h, g, d, p: ModelFreeParams):
    """:func:`safe_velocity_from_terms`'s ``v_s`` as a vector jet, from the jets of ``v_d``,
    ``h``, ``grad`` and ``dtp``; ``along(u, h, g, d)`` maps their first
    derivatives along a second direction to that of ``v_s``.

    With ``s = g . v_d / |v_d|^2`` and ``c = 1 / Gamma_v``, the part of ``g``
    across ``v_d`` is ``g - s v_d``, so ``|b|^2 = c |g|^2 + (1 - c) s (g . v_d)``
    and ``v_s = v_d + lam ((1 - c) s v_d + c g)``; ``|g|^2`` is the rate
    condition's.
    """
    P = dm.jet_dot(u, u)
    if math.sqrt(P[0]) < ZERO_VELOCITY_TOL:
        raise ZeroDesiredVelocity(ZERO_VELOCITY_MSG)
    gu, gg = dm.jet_dot(g, u), dm.jet_dot(g, g)
    a = [w + x + p.gamma_p * y - p.sigma * z for w, x, y, z in zip(gu, d, h, gg)]
    s = dm.jet_div(gu, P)
    c, nu = 1.0 / p.Gamma_v, p.nu_v
    c1 = 1.0 - c
    bn2 = [c * x + c1 * y for x, y in zip(gg, dm.jet_mul(s, gu))]
    if bn2[0] == 0.0:
        return u, lambda u_o, h_o, g_o, d_o: u_o
    beta = math.sqrt(bn2[0])
    beta1 = 0.5 * bn2[1] / beta
    bj = (beta, beta1, (0.5 * bn2[2] - beta1 * beta1) / beta)
    x = [-nu * y for y in dm.jet_div(a, bj)]
    sp, s1, s2 = softplus(x[0])
    lam = dm.jet_div((sp, s1 * x[1], s2 * x[1] * x[1] + s1 * x[2]), [nu * y for y in bj])
    m, k = [c1 * y for y in dm.jet_mul(lam, s)], [c * y for y in lam]
    v_s = tuple([w + y + z for w, y, z in zip(*o)] for o in zip(u, dm.jet_scale(m, u), dm.jet_scale(k, g)))
    u0, g0, a0, gu0, s0, lam0, m0, k0 = u[0], g[0], a[0], gu[0], s[0], lam[0], m[0], k[0]

    def along(u_o, h_o, g_o, d_o):
        gu_o, gg_o = dm.dot3(g_o, u0) + dm.dot3(g0, u_o), dm.dot3(g0, g_o)
        a_o = gu_o + d_o + p.gamma_p * h_o - 2.0 * p.sigma * gg_o
        s_o = (gu_o - 2.0 * s0 * dm.dot3(u0, u_o)) / P[0]
        beta_o = (2.0 * c * gg_o + c1 * (s_o * gu0 + s0 * gu_o)) / (2.0 * beta)
        lam_o = lambda_smooth_rate(a0, beta, nu, lam0, s1, a_o, beta_o)
        m_o, k_o = c1 * (lam_o * s0 + lam0 * s_o), c * lam_o
        return [w + m_o * y + m0 * w + k_o * z + k0 * q for w, y, z, q in zip(u_o, u0, g0, g_o)]

    return v_s, along


def safe_velocity_from_terms(h_p_val: float, grad, dtp: float, v_d, p: ModelFreeParams) -> FilterResult:
    """Filter a desired velocity (a float 3-sequence) given an already-composed barrier:
    the zeroth order of :func:`filter_jet`, bit for bit.

    The result's ``u`` is the safe velocity ``v_s``, ``a`` the margin-reduced
    rate condition at ``v_d`` and ``slack`` the achieved margin.
    """
    P = dm.dot3(v_d, v_d)
    if math.sqrt(P) < ZERO_VELOCITY_TOL:
        raise ZeroDesiredVelocity(ZERO_VELOCITY_MSG)
    gu, gg = dm.dot3(grad, v_d), dm.dot3(grad, grad)
    a = gu + dtp + p.gamma_p * h_p_val - p.sigma * gg
    s = gu / P
    c = 1.0 / p.Gamma_v
    c1 = 1.0 - c
    bn2 = c * gg + c1 * (s * gu)
    if bn2 == 0.0:
        return FilterResult(v_d, a, 0.0, 0.0, bn2, a, a < 0.0)
    lam, slope = lambda_smooth(a, math.sqrt(bn2), p.nu_v)
    m, k = c1 * (lam * s), c * lam
    return FilterResult([x + m * x + k * y for x, y in zip(v_d, grad)], a, lam, slope, bn2, a + lam * bn2, False)


def h_V(V_lyap: float, h_p_val: float, p: ModelFreeParams, lam: float) -> float:
    """Lyapunov-coupled barrier monitor; requires ``lam > gamma_p``."""
    if not lam > p.gamma_p:
        raise InvalidGainOrdering(f"lambda = {lam} must exceed gamma_p = {p.gamma_p}")
    return h_p_val - V_lyap / (2.0 * p.sigma * (lam - p.gamma_p))
