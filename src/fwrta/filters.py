"""Closed-form minimal-deviation safety filter.

The filter solves ``argmin |u - u_d|^2_Gamma  s.t.  a + b_raw (u - u_d) >= 0``
without an optimizer.  The metric is supplied through its factor ``W``
(``Gamma = W^-T W^-1``), the constraint row is mapped to ``b = b_raw W``,
and the correction is ``Lambda(a, |b|) W b^T``.  ``lambda_hard`` is the
exact solution; ``lambda_smooth`` is its differentiable over-approximation
(softplus form), which keeps the constraint satisfied with positive slack.
:func:`filter_step` is that step over float 3-sequences (the factor
holds its matrix as float rows); the model-free filter is its closed
form for the velocity weight.
:class:`FilterResult` is the one result of all three filters: the
filtered input, the multiplier, the achieved slack and the no-authority
flag.  The input filters'
:func:`filter_input` adds the linear decay ``gamma h`` to the barrier
rate and weights the row.  The smooth multiplier's first derivative is
linear in the rates of ``a`` and ``|b|``; its two coefficients,
:func:`lambda_smooth_coefficients`, read the step's value and slope, and
the backstepping barrier's rate takes them once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ControlInput


@dataclass(frozen=True)
class WeightFactor:
    """Positive definite factor ``W`` of the input metric ``Gamma = W^-T W^-1``
    on 3-vectors, held as float 3x3 rows."""

    W: tuple

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.shape != (3, 3):
            raise ValueError("W must be square, 3x3")
        # scale-free, unlike a determinant
        if not np.all(np.isfinite(W)) or np.linalg.matrix_rank(W) < 3:
            raise ValueError("W must be finite and invertible")
        object.__setattr__(self, "W", tuple(map(tuple, W.tolist())))

    def apply(self, z):
        """``W z`` of a 3-sequence, as a list."""
        (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = self.W
        z0, z1, z2 = z
        return [(w00 * z0 + w01 * z1 + w02 * z2), (w10 * z0 + w11 * z1 + w12 * z2), (w20 * z0 + w21 * z1 + w22 * z2)]

    def apply_t(self, z):
        """``W^T z`` of a 3-sequence, as a list: ``W``'s columns dotted with ``z``."""
        (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = self.W
        z0, z1, z2 = z
        return [(w00 * z0 + w10 * z1 + w20 * z2), (w01 * z0 + w11 * z1 + w21 * z2), (w02 * z0 + w12 * z1 + w22 * z2)]

    @classmethod
    def diagonal(cls, diag) -> "WeightFactor":
        return cls(np.diag(np.asarray(diag, dtype=float)))


@dataclass
class FilterResult:
    """One filter step's output and diagnostics.

    ``u`` is the filtered input, ``a`` the constraint value at ``u_d``,
    ``lam`` the multiplier, ``slope`` the smooth one's softplus slope (else
    0) and ``bn2`` the squared norm of the weighted row.  ``slack`` is the
    achieved ``a + lam |b|^2``; ``infeasible`` is set when the row vanishes
    while ``a < 0`` (the filter has no authority and returns the desired
    input unchanged).
    """

    u: list
    a: float
    lam: float
    slope: float
    bn2: float
    slack: float
    infeasible: bool


def check_positive(**gains) -> None:
    """Raise ``ValueError`` naming the first gain that is not positive."""
    for name, x in gains.items():
        if not x > 0.0:
            raise ValueError(f"{name} must be positive")


def softplus(x: float):
    """``ln(1 + e^x)`` with its first two derivatives, overflow-safe.

    ``exp(-|x|)`` is the exponential of either exact branch
    (``x + ln(1 + e^-x)`` above zero, ``ln(1 + e^x)`` below).
    """
    e = math.exp(-abs(x))
    t = 1.0 / (1.0 + e)
    return max(x, 0.0) + math.log1p(e), (t if x > 0.0 else e * t), e * t * t


def lambda_hard(a, b_norm):
    """Exact multiplier ``max(0, -a/b)/b`` with the ``b = 0`` branch."""
    if b_norm == 0.0:
        return 0.0
    return max(0.0, -a / b_norm) / b_norm


def lambda_smooth(a, b_norm, nu: float):
    """Softplus multiplier ``ln(1 + exp(x)) / (nu b)``, ``x = -nu a/b``, and ``softplus'(x)``.

    Over-approximates ``lambda_hard`` pointwise and approaches it as
    ``nu`` grows; computed overflow-safe for any finite ``a/b``.
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    if b_norm == 0.0:
        return 0.0, 0.0
    sp, slope, _ = softplus(-nu * (a / b_norm))
    return sp / (nu * b_norm), slope


def lambda_smooth_coefficients(a: float, b_norm: float, nu: float, lam: float, slope: float):
    """``(A, B)`` of the first derivative of ``lam``, where
    ``lambda_smooth(a, b_norm, nu) = (lam, slope)`` and ``b_norm > 0``:
    ``lam' = (A a' + B b_norm') / b_norm`` with ``A = -slope / b_norm`` and
    ``B = -(slope x / (nu b_norm) + lam)``, ``x = -nu a / b_norm``.

    Scaled so that no power of ``b_norm`` beyond the first is formed:
    ``|A| <= 1/b_norm``, and ``|B| <= 2 lam`` where ``x > 0``.
    """
    return -slope / b_norm, -(slope * (-nu * (a / b_norm)) / (nu * b_norm) + lam)


def filter_step(u_d, a, b, W, nu: float | None = None) -> FilterResult:
    """One filter step ``u = u_d + Lambda(a, |b|) W b``.

    ``b`` is the weighted constraint row and ``W`` a callable applying the
    factor; ``nu=None`` selects ``lambda_hard``, otherwise
    ``lambda_smooth``.  ``u`` is a list; a zero row returns ``u_d``
    itself with ``lam = 0``.
    """
    bn2 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
    if bn2 == 0.0:
        u, lam, slope = u_d, 0.0, 0.0
    else:
        b_norm = math.sqrt(bn2)
        lam, slope = (lambda_hard(a, b_norm), 0.0) if nu is None else lambda_smooth(a, b_norm, nu)
        wb = W(b)
        u = [u_d[0] + wb[0] * lam, u_d[1] + wb[1] * lam, u_d[2] + wb[2] * lam]
    return FilterResult(u, a, lam, slope, bn2, a + lam * bn2, bn2 == 0.0 and a < 0.0)


def filter_input(u_d: ControlInput, h: float, drift: float, row, params) -> FilterResult:
    """Filter ``u_d`` against the barrier ``h`` whose rate is ``drift + row . u``,
    with the decay ``gamma h``.

    ``params`` holds the outer filter's gains ``gamma``, ``W`` and ``nu``
    (:class:`~fwrta.extended.ExtendedParams`); ``row`` is the raw input
    row, weighted here.  The result's ``u`` is a float sequence.
    """
    A_T, P, Q = u_d.A_T, u_d.P, u_d.Q
    W = params.W
    a = drift + (row[0] * A_T + row[1] * P + row[2] * Q) + params.gamma * h
    return filter_step((A_T, P, Q), a, W.apply_t(row), W.apply, params.nu)
