"""Backstepping barrier assurance (strategy 2).

The barrier builds on the extended layer: ``h_e``, its rate at fixed
velocity ``D`` and its velocity gradient ``gv`` come from
:func:`~fwrta.extended.compose_extended_terms`, the extension gain and the
outer filter's gains from ``BacksteppingParams.ext``.  The smooth filter
step of :mod:`fwrta.filters`, run over accelerations from zero against
``D + gamma_e h_e`` and the row ``W_e^T gv``, yields a safe acceleration
``a_s``, converted to a safe turn rate ``R_s`` through the last row of
the inverse acceleration map.  ``h_b = h_e - (R_s - R)^2 / (2 mu_e)``
penalizes the gap to the actual turn rate, so its rate depends on the
roll channel and the outer input filter
(:func:`~fwrta.filters.filter_input`) commands all three inputs;
:func:`rta_backstepping` returns ``h_b`` with its
:class:`~fwrta.filters.FilterResult`.

The rate of ``h_b`` splits in two.  The ``(r, v, t) -> (h_e, a_s)``
chain is differentiated in closed form along the three ``(dv, tau)``
pairs that move ``(r, v, t)`` by ``(tau v, dv, tau)``: the drift
``(V R c1, 1)`` and the ``A_T`` and ``Q`` columns ``(c0, 0)`` and
``(-V c2, 0)``, with the composed tangents of the extended layer and the
softplus step's :func:`~fwrta.filters.lambda_smooth_rate`.  The frame's
rates are closed form too: ``c1_dot = -R c0 + P c2``, ``V_dot = A_T``
and the turn rate's, so ``P`` enters only through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import ConstraintSet, frame_jets
from .dual import ZERO3, dot3
from .extended import ExtendedParams, compose_extended_terms
from .filters import FilterResult, WeightFactor, check_positive, filter_input, filter_step, lambda_smooth_rate
from .model import ControlInput, TrackContext


@dataclass(frozen=True)
class BacksteppingParams:
    """The extended layer's gains ``ext`` (extension and outer filter), plus
    the acceleration filter's and the penalty's."""

    ext: ExtendedParams
    gamma_e: float
    W_e: WeightFactor
    nu_e: float
    mu_e: float

    def __post_init__(self):
        check_positive(gamma_e=self.gamma_e, nu_e=self.nu_e, mu_e=self.mu_e)


def _pipeline(ctx: TrackContext, cset: ConstraintSet, p: BacksteppingParams, dirs=()):
    """``(h_e, a_s, R_s, h_b)`` at the frame's ``(x, t)`` and, for each of ``dirs``, ``(dv, tau)``
    pairs (see :func:`~fwrta.extended.member_extended_terms`), ``(h_e', a_s')``."""
    h_e, D, gv, _, _, comp = compose_extended_terms(frame_jets(ctx, cset), ctx.v, cset.kappa, p.ext.gamma_p, dirs)
    # barrier rate at zero acceleration plus decay
    a_e = D + p.gamma_e * h_e
    W_e = p.W_e
    b = W_e.apply_t(gv)
    res = filter_step(ZERO3, a_e, b, W_e.apply, p.nu_e)
    a_s, lam, bn2 = res.u, res.lam, res.bn2
    R_s = dot3(ctx.c1, a_s) / ctx.V_T
    gap = R_s - ctx.R
    h_b = h_e - gap * gap * (0.5 / p.mu_e)
    if bn2 == 0.0:
        # a zero row is the step's no-authority branch: a_s = 0, taken as constant
        return (h_e, a_s, R_s, h_b), [(c[0], ZERO3) for c in comp]
    b_norm = math.sqrt(bn2)
    W_b = W_e.apply(b)
    out = []
    for c in comp:
        # a_e' = D' + gamma_e h_e', b' = W_e^T gv' and |b|', then a_s' = lam' W_e b + lam W_e b'
        b_o = W_e.apply_t(c[2:])
        lam_o = lambda_smooth_rate(a_e, b_norm, p.nu_e, c[1] + p.gamma_e * c[0], dot3(b, b_o) / b_norm)
        out.append((c[0], [lam_o * x + lam * y for x, y in zip(W_b, W_e.apply(b_o))]))
    return (h_e, a_s, R_s, h_b), out


def h_b(ctx: TrackContext, cset: ConstraintSet, p: BacksteppingParams) -> float:
    """Penalized barrier at the frame's ``(x, t)``; never exceeds the composed extension."""
    return _pipeline(ctx, cset, p)[0][3]


def _affine_terms(ctx: TrackContext, cset: ConstraintSet, p: BacksteppingParams):
    """``(h_e, h_b)`` at the frame's ``(x, t)`` and the rate of ``h_b`` as ``drift + row . u``."""
    c0, c1, c2 = ctx.c0, ctx.c1, ctx.c2
    V, R = ctx.V_T, ctx.R
    # directions (drift, A_T, Q) as (dv, tau) pairs; P moves neither r nor v
    dirs = (([(V * R) * x for x in c1], 1.0), (c0, 0.0), ([-V * x for x in c2], 0.0))
    (h_e, a_s, R_s, hb), ((he_f, as_f), (he_a, as_a), (he_q, as_q)) = _pipeline(ctx, cset, p, dirs)
    # rates over (drift, A_T, P, Q) with D c1 = (-R c0, 0, c2, 0) and
    # D V_T = (0, 1, 0, 0): D R_s = (D c1 . a_s + c1 . D a_s - R_s D V_T) / V_T
    D_he = (he_f, he_a, 0.0, he_q)
    D_Rs = ((dot3(c1, as_f) - R * dot3(c0, a_s)) / V, (dot3(c1, as_a) - R_s) / V,
            dot3(c2, a_s) / V, dot3(c1, as_q) / V)
    D_R = (ctx.g_over_V * ctx.s_th * R, -R / V, ctx.g_over_V * ctx.c_ph * ctx.c_th, 0.0)
    gap = R_s - R
    D_hb = [x - gap * (y - z) / p.mu_e for x, y, z in zip(D_he, D_Rs, D_R)]
    return h_e, hb, D_hb[0], D_hb[1:]


def rta_backstepping(
    ctx: TrackContext, u_d: ControlInput, cset: ConstraintSet, p: BacksteppingParams
) -> tuple[float, FilterResult]:
    """Filter the desired input against the penalized barrier at the frame's ``(x, t)``;
    returns ``h_b`` and the filter's result, its ``u`` a :class:`ControlInput`.

    The constraint row is the barrier's rate along the input columns;
    its roll entry is generically nonzero, so all three channels
    participate.
    """
    _, hb, drift, row = _affine_terms(ctx, cset, p)
    res = filter_input(u_d, hb, drift, row, p.ext)
    res.u = ControlInput(*res.u)
    return hb, res
