"""Backstepping barrier assurance (strategy 2).

The smooth filter step of :mod:`fwrta.filters`, run over accelerations
from zero, yields a safe acceleration, converted to a safe turn rate
through the last row of the inverse acceleration map.  Penalizing the
gap between the safe and the actual turn rate produces a barrier whose
rate depends on the roll channel, so the outer input filter
(:func:`~fwrta.filters.filter_input`) can command all three inputs.
Both decays are linear, ``gamma_e h_e`` and ``gamma h_b``, and
:func:`rta_backstepping` returns ``h_b`` with the outer filter's
:class:`~fwrta.filters.FilterResult`.

The barrier reads the state through the plain-float frame of
:class:`~fwrta.model.TrackContext` it is given, the one the tracking
controller computed the step in (``TrackResult.ctx``): ``(r, v, t)``,
the rotation column ``c1``, the turn rate ``R`` and the speed, all
plain floats, and the member jets it keeps.  No function here builds a
frame.  Its rate along the dynamics splits in two.  The
``(r, v, t) -> (h_e, a_s)`` chain is differentiated in closed form over
floats, stage by stage (the members' jets extended by
:func:`~fwrta.constraints.member_jet`, softmin, softplus filter step),
along each of the three directions that move ``(r, v, t)``, each a pair
``(dv, tau)`` moving it by ``(tau v, dv, tau)``: the drift
``(V R c1, 1)`` and the ``A_T`` and ``Q`` columns ``(c0, 0)`` and
``(-V c2, 0)``.  The frame's own rates are closed form too:
``c1_dot = -R c0 + P c2``, ``V_dot = A_T`` and the turn rate's, so the
roll rate ``P`` enters only through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import ConstraintSet, compose_along, compose_members, frame_jets
from .dual import ZERO3, dot3
from .extended import member_extended_terms
from .filters import FilterResult, WeightFactor, filter_input, filter_step, lambda_smooth_rate
from .model import ControlInput, TrackContext


@dataclass(frozen=True)
class BacksteppingParams:
    """Gains for the acceleration filter, the penalty and the outer filter."""

    gamma_p: float
    gamma_e: float
    W_e: WeightFactor
    nu_e: float
    mu_e: float
    gamma: float
    W: WeightFactor

    def __post_init__(self):
        if not (self.gamma_e > 0.0 and self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if not (self.gamma_p > 0.0 and self.nu_e > 0.0 and self.mu_e > 0.0):
            raise ValueError("gamma_p, nu_e and mu_e must be positive")


def _pipeline(ctx: TrackContext, cset: ConstraintSet, p: BacksteppingParams, dirs=()):
    """``(h_e, a_s, R_s, h_b)`` at the frame's ``(x, t)`` and, for each of ``dirs``, ``(dv, tau)``
    pairs (see :func:`~fwrta.extended.member_extended_terms`), ``(h_e', a_s')``."""
    v = ctx.v
    terms, tangents = zip(*(member_extended_terms(j, p.gamma_p, dirs) for j in frame_jets(ctx, cset)))
    h_e, *g, dt, _, w = compose_members(terms, cset.kappa)
    gr = g[:3]
    # barrier rate at zero acceleration plus decay
    a_e = dot3(gr, v) + dt + p.gamma_e * h_e
    W_e = p.W_e
    b = W_e.apply_t(g[3:])
    res = filter_step(ZERO3, a_e, b, W_e.apply, p.nu_e)
    a_s, lam, bn2 = res.u, res.lam, res.bn2
    R_s = dot3(ctx.c1, a_s) / ctx.V_T
    gap = R_s - ctx.R
    h_b = h_e - gap * gap * (0.5 / p.mu_e)
    entries = [x[1:] for x in terms]
    comp = [compose_along(entries, tg, w, cset.kappa) for tg in zip(*tangents)]
    if bn2 == 0.0:
        # a zero row is the step's no-authority branch: a_s = 0, taken as constant
        return (h_e, a_s, R_s, h_b), [(c[0], ZERO3) for c in comp]
    b_norm = math.sqrt(bn2)
    W_b = W_e.apply(b)
    out = []
    for (dv, _), c in zip(dirs, comp):
        # a_e', b' = W_e^T gv' and |b|', then a_s' = lam' W_e b + lam W_e b'
        a_e_o = dot3(v, c[1:4]) + dot3(gr, dv) + c[7] + p.gamma_e * c[0]
        b_o = W_e.apply_t(c[4:7])
        lam_o = lambda_smooth_rate(a_e, b_norm, p.nu_e, a_e_o, dot3(b, b_o) / b_norm)
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
    ctx: TrackContext, u_d: ControlInput, cset: ConstraintSet, p: BacksteppingParams, smooth_nu: float | None = None
) -> tuple[float, FilterResult]:
    """Filter the desired input against the penalized barrier at the frame's ``(x, t)``;
    returns ``h_b`` and the filter's result, its ``u`` a :class:`ControlInput`.

    The constraint row is the barrier's rate along the input columns;
    its roll entry is generically nonzero, so all three channels
    participate.
    """
    _, hb, drift, row = _affine_terms(ctx, cset, p)
    res = filter_input(u_d, hb, drift, row, p, smooth_nu)
    res.u = ControlInput(*res.u)
    return hb, res
