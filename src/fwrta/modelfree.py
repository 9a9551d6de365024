"""Model-free velocity-level assurance (strategy 3).

The smooth filter step of :mod:`fwrta.filters` bends the desired velocity
command so the position barrier rate satisfies its decay condition with
an extra robustness margin ``sigma |grad h|^2`` against tracking error.
Deviations along the desired velocity are cheap, perpendicular ones cost
``Gamma_v`` times more (the factor ``W_v``, applied without a matrix).
The Lyapunov-coupled monitor ``h_V = h_p - V / (2 sigma (lambda - gamma_p))``
certifies the tracked closed loop and is logged, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dual as dm
from .constraints import ConstraintSet, compose_terms
from .errors import InvalidGainOrdering, ZeroDesiredVelocity
from .filters import filter_step

ZERO_VELOCITY_TOL = 1e-6  # m/s


@dataclass(frozen=True)
class ModelFreeParams:
    """Barrier gain, robustness margin, anisotropy and smoothing."""

    gamma_p: float
    sigma: float
    Gamma_v: float
    nu_v: float

    def __post_init__(self):
        if not (self.gamma_p > 0.0 and self.sigma > 0.0 and self.Gamma_v > 0.0 and self.nu_v > 0.0):
            raise ValueError("all model-free parameters must be positive")


@dataclass
class SafeVelocityResult:
    """Safe velocity with the filter pieces and the achieved margin."""

    v_s: np.ndarray
    a_v: float
    margin: float
    infeasible: bool


def _wv_apply(v_d, Gamma_v: float, z):
    """Apply the velocity-deviation weight ``W_v`` to ``z`` without a matrix.

    ``W_v = P_v + (I - P_v)/sqrt(Gamma_v)``, where ``P_v`` projects onto
    the desired velocity direction: it is symmetric, with eigenvalue ``1``
    along ``v_d`` and ``1/sqrt(Gamma_v)`` across it.
    """
    inv_s = 1.0 / math.sqrt(Gamma_v)
    proj = dm.dot(v_d, z) / dm.dot(v_d, v_d)
    return z * inv_s + v_d * (proj * (1.0 - inv_s))


def _filter_core(h, grad, dtp, v_d, p: ModelFreeParams):
    """Velocity filter on precomputed barrier pieces, dual-capable: ``(v_s, a_v, lam, |W_v grad|^2)``."""
    if math.sqrt(float(dm.value(dm.dot(v_d, v_d)))) < ZERO_VELOCITY_TOL:
        raise ZeroDesiredVelocity("desired velocity too small for the direction projector")
    a_v = dm.dot(grad, v_d) + dtp + p.gamma_p * h - p.sigma * dm.dot(grad, grad)
    W_v = partial(_wv_apply, v_d, p.Gamma_v)
    v_s, lam, bn2 = filter_step(v_d, a_v, W_v(grad), W_v, p.nu_v)
    return v_s, a_v, lam, bn2


def safe_velocity_terms(r, t, v_d, cset: ConstraintSet, p: ModelFreeParams):
    """Generic safe-velocity chain; returns (v_s, a_v, h_p, grad)."""
    h, grad, dtp, _, _ = compose_terms(r, t, cset)
    v_s, a_v, _, _ = _filter_core(h, grad, dtp, v_d, p)
    return v_s, a_v, h, grad


def safe_velocity_from_terms(h_p_val: float, grad, dtp: float, v_d, p: ModelFreeParams) -> SafeVelocityResult:
    """Filter a desired velocity given an already-composed barrier."""
    v_d = np.asarray(v_d, dtype=float)
    v_s, a_v, lam, bn2 = _filter_core(h_p_val, np.asarray(grad, dtype=float), dtp, v_d, p)
    return SafeVelocityResult(
        v_s=np.asarray(v_s, dtype=float),
        a_v=float(a_v),
        margin=float(a_v) + lam * bn2,
        infeasible=(bn2 == 0.0 and float(a_v) < 0.0),
    )


def safe_velocity(r, t, v_d, cset: ConstraintSet, p: ModelFreeParams) -> SafeVelocityResult:
    """Filter the desired velocity to satisfy the robustified barrier rate."""
    r = np.asarray(r, dtype=float)
    h, grad, dtp, _, _ = compose_terms(r, float(t), cset)
    return safe_velocity_from_terms(h, grad, dtp, v_d, p)


def h_V(V_lyap: float, h_p_val: float, p: ModelFreeParams, lam: float) -> float:
    """Lyapunov-coupled barrier monitor; requires ``lam > gamma_p``."""
    if not lam > p.gamma_p:
        raise InvalidGainOrdering(f"lambda = {lam} must exceed gamma_p = {p.gamma_p}")
    return h_p_val - V_lyap / (2.0 * p.sigma * (lam - p.gamma_p))
