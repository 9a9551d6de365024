"""Velocity-extended barrier assurance (strategy 1).

Each position constraint ``h`` is extended to ``h + hdot / gamma_p`` so
the barrier rate sees the acceleration channel; the composed extension
drives the closed-form filter over ``(A_T, Q)``.  Roll rate ``P`` never
enters: the extension depends on the velocity states only, so the input
row carries a structural zero in the ``P`` slot and the filtered ``P``
equals the desired one bit for bit: :func:`rta_extended` copies it into
the one :class:`~fwrta.model.ControlInput` it builds, and returns the
barrier with the filter's :class:`~fwrta.filters.FilterResult`.  The
decay is linear, ``gamma h``.  The filter reads the plain-float frame
:class:`~fwrta.model.TrackContext` it is given, the one the tracking
controller computed the step in (``TrackResult.ctx``); nothing here
builds a frame.  Each member's extension is the first order of the
member's jet the frame keeps (:func:`~fwrta.constraints.frame_jets`).
Given ``(dv, tau)`` pairs, :func:`member_extended_terms` also gives its
outputs' first derivatives along them, from the jet's second-order
extension (:func:`~fwrta.constraints.member_jet`), one flat float list
per pair; the backstepping barrier's rate is built on them, and this
mode asks for none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintSet, compose_members, frame_jets, member_jet
from .dual import dot3
from .filters import FilterResult, WeightFactor, filter_input
from .model import ControlInput, TrackContext


@dataclass(frozen=True)
class ExtendedParams:
    """Extension gain plus the outer filter's decay gain and input metric."""

    gamma_p: float
    gamma: float
    W: WeightFactor

    def __post_init__(self):
        if not self.gamma_p > 0.0:
            raise ValueError("gamma_p must be positive")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")


def member_extended_terms(jet1, gamma_p: float, dirs=()):
    """``[value, *d/dr, *d/dv, explicit d/dt]`` of one extended member, and
    their first derivatives along ``dirs``, each a pair ``(dv, tau)``.

    ``jet1`` is the member's :func:`~fwrta.constraints.member_jet1` at
    ``(r, t)`` along ``(v, 1)``.  Returns ``(terms, tangents)``: the entries
    as one flat float list and, one such list per direction, their
    derivatives (``[]`` without ``dirs``).  The extension ``h + h'/gamma_p``
    is the jet's first order, so by the symmetry of mixed partials its
    gradient in ``r`` is ``n + n'/gamma_p`` and its explicit time-partial
    ``d + d'/gamma_p``.  A pair moves ``(r, v, t)`` by ``(tau v, dv, tau)``:
    the entries move by ``tau`` times the next order of the jet's
    :func:`~fwrta.constraints.member_jet` extension, plus its
    ``along(dv)/gamma_p`` through the velocity.
    """
    inv_g = 1.0 / gamma_p
    (h0, h1), (n0, n1), (d0, d1), _ = jet1
    terms = [h0 + h1 * inv_g, n0[0] + n1[0] * inv_g, n0[1] + n1[1] * inv_g, n0[2] + n1[2] * inv_g,
             n0[0] * inv_g, n0[1] * inv_g, n0[2] * inv_g, d0 + d1 * inv_g]
    if not dirs:
        return terms, []
    # the entries' rate along (v, 1), from the jet's next order
    (_, _, h2), (_, _, n2), (_, _, d2), along = member_jet(jet1)
    e_h, e_rx, e_ry, e_rz = h1 + h2 * inv_g, n1[0] + n2[0] * inv_g, n1[1] + n2[1] * inv_g, n1[2] + n2[2] * inv_g
    e_vx, e_vy, e_vz, e_t = n1[0] * inv_g, n1[1] * inv_g, n1[2] * inv_g, d1 + d2 * inv_g
    tangents = []
    for dv, tau in dirs:
        h_v, n_x, n_y, n_z, d_v = along(dv)
        tangents.append([tau * e_h + h_v * inv_g, tau * e_rx + n_x * inv_g, tau * e_ry + n_y * inv_g,
                         tau * e_rz + n_z * inv_g, tau * e_vx, tau * e_vy, tau * e_vz, tau * e_t + d_v * inv_g])
    return terms, tangents


def compose_extended_terms(jets, kappa: float, gamma_p: float):
    """Composed extension of :func:`~fwrta.constraints.member_jet1` results, weight-averaged:
    ``(value, d/dr, d/dv, explicit d/dt, per-member values, weights)``."""
    h, *g, dt, per, w = compose_members([member_extended_terms(j, gamma_p)[0] for j in jets], kappa)
    return h, g[:3], g[3:], dt, per, w


def _affine_terms(ctx: TrackContext, cset: ConstraintSet, params: ExtendedParams):
    """Composed extension ``h`` at the frame's ``(x, t)`` and its rate as ``drift + row . u``.

    The ``P`` entry of ``row`` is a structural zero.
    """
    v = ctx.v
    h, gr, gv, dt, _, _ = compose_extended_terms(frame_jets(ctx, cset), cset.kappa, params.gamma_p)
    V = ctx.V_T
    # acceleration map columns: A_T -> c0, Q -> -V c2, and the drift R -> V c1
    drift = dot3(gr, v) + dt + dot3(gv, ctx.c1) * (V * ctx.R)
    return h, drift, (dot3(gv, ctx.c0), 0.0, -V * dot3(gv, ctx.c2))


def rta_extended(
    ctx: TrackContext, u_d: ControlInput, cset: ConstraintSet, params: ExtendedParams, smooth_nu: float | None = None
) -> tuple[float, FilterResult]:
    """Filter the desired input against the composed extended barrier at the frame's ``(x, t)``;
    returns the barrier ``h_e`` and the filter's result, its ``u`` a :class:`ControlInput`."""
    h, drift, row = _affine_terms(ctx, cset, params)
    res = filter_input(u_d, h, drift, row, params, smooth_nu)
    # carry the desired roll rate through verbatim (bit-exact transparency)
    res.u = ControlInput(res.u[0], u_d.P, res.u[2])
    return h, res
