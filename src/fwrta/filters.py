"""Closed-form minimal-deviation safety filter.

The filter solves ``argmin |u - u_d|^2_Gamma  s.t.  a + b_raw (u - u_d) >= 0``
without an optimizer.  The metric is supplied through its factor ``W``
(``Gamma = W^-T W^-1``), the constraint row is mapped to ``b = b_raw W``,
and the correction is ``Lambda(a, |b|) W b^T``.  ``lambda_hard`` is the
exact solution; ``lambda_smooth`` is its differentiable over-approximation
(softplus form), which keeps the constraint satisfied with positive slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as dm


@dataclass(frozen=True)
class ClassKappaLinear:
    """Linear extended class-K decay shape ``alpha(r) = gamma r``."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")

    def __call__(self, r):
        return self.gamma * r


@dataclass(frozen=True)
class WeightFactor:
    """Positive definite factor ``W`` of the input metric ``Gamma = W^-T W^-1``."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("W must be square")
        if not np.all(np.isfinite(W)) or abs(np.linalg.det(W)) == 0.0:
            raise ValueError("W must be finite and invertible")
        object.__setattr__(self, "W", W)

    @classmethod
    def diagonal(cls, diag) -> "WeightFactor":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    @property
    def m(self) -> int:
        return self.W.shape[0]


@dataclass
class FilterResult:
    """Filtered input plus diagnostics.

    ``slack`` is the achieved ``a + b_raw (u - u_d)``; ``infeasible`` is
    set when the constraint row vanishes while ``a < 0`` (the filter has
    no authority and returns the desired input unchanged).
    """

    u: np.ndarray
    lam: float
    slack: float
    infeasible: bool


def lambda_hard(a, b_norm):
    """Exact multiplier ``max(0, -a/b)/b`` with the ``b = 0`` branch."""
    if float(dm.value(b_norm)) == 0.0:
        return 0.0
    return max(0.0, -a / b_norm) / b_norm


def lambda_smooth(a, b_norm, nu: float):
    """Softplus multiplier ``ln(1 + exp(-nu a/b)) / (nu b)``, dual-capable.

    Over-approximates ``lambda_hard`` pointwise and approaches it as
    ``nu`` grows; computed overflow-safe for any finite ``a/b``.
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    if float(dm.value(b_norm)) == 0.0:
        return 0.0
    return dm.softplus(-nu * (a / b_norm)) / (nu * b_norm)


def apply_filter(u_d, a, b_raw, weight: WeightFactor, smooth_nu: float | None = None) -> FilterResult:
    """Minimally adjust ``u_d`` so that ``a + b_raw (u - u_d) >= 0``.

    ``a`` must already contain the barrier rate at ``u_d`` plus the
    class-K decay; ``b_raw`` is the raw input row (before weighting).
    ``smooth_nu=None`` selects the exact hard solution.
    """
    u_d = np.asarray(u_d, dtype=float)
    b_raw = np.asarray(b_raw, dtype=float)
    b = b_raw @ weight.W
    b_norm = math.sqrt(float(b @ b))
    if b_norm == 0.0:
        return FilterResult(u=u_d.copy(), lam=0.0, slack=float(a), infeasible=a < 0.0)
    if smooth_nu is None:
        lam = lambda_hard(a, b_norm)
    else:
        lam = lambda_smooth(a, b_norm, smooth_nu)
    u = u_d + lam * (weight.W @ b)
    return FilterResult(u=u, lam=float(lam), slack=float(a + lam * b_norm * b_norm), infeasible=False)
