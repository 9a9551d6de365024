"""Velocity-extended barrier assurance (strategy 1).

Each position constraint ``h`` is extended to ``h + hdot / gamma_p``, the
first order of the member's jet the frame keeps
(:func:`~fwrta.constraints.frame_jets`), so the barrier rate sees the
acceleration channel.  :func:`compose_extended_terms` is the one
composition of the extension, in the three quantities both input filters
read: ``h_e``, its rate at fixed velocity ``D`` and its velocity gradient
``gv``, plus their tangents along ``(dv, tau)`` pairs if asked (the
backstepping barrier asks).  :class:`ExtendedParams` holds the extension
gain and the outer filter's gains, ``gamma``, ``W`` and the smoothing
``nu``.  Roll rate ``P`` never enters: the input row carries a
structural zero in the ``P`` slot, and :func:`rta_extended` copies the
desired ``P`` bit for bit into the one :class:`~fwrta.model.ControlInput`
it builds, reading the frame the tracker computed the step in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintSet, compose_along, compose_members, frame_jets, member_jet
from .dual import dot3
from .filters import FilterResult, WeightFactor, check_positive, filter_input
from .model import ControlInput, TrackContext


@dataclass(frozen=True)
class ExtendedParams:
    """Extension gain plus the outer filter's decay gain, input metric and
    smoothing ``nu`` (``None``: the hard multiplier)."""

    gamma_p: float
    gamma: float
    W: WeightFactor
    nu: float | None = None

    def __post_init__(self):
        check_positive(gamma_p=self.gamma_p, gamma=self.gamma)
        if self.nu is not None:
            check_positive(nu=self.nu)


def member_extended_terms(jet1, v, gamma_p: float, dirs=()):
    """``[E, D, *gv]`` of one extended member, and their first derivatives
    along ``dirs``, each a pair ``(dv, tau)``.

    ``jet1`` is the member's :func:`~fwrta.constraints.member_jet1` at
    ``(r, t)`` along ``(v, 1)``.  ``E = h + h'/gamma_p`` is the jet's first
    order; by the symmetry of mixed partials its gradient in ``r`` is
    ``gr = n + n'/gamma_p``, so its rate at fixed velocity is
    ``D = gr . v + d + d'/gamma_p`` and its velocity gradient ``gv = n/gamma_p``.
    Returns ``(terms, tangents)``: the entries as one flat float list and,
    one such list per direction, their derivatives (``[]`` without
    ``dirs``).  A pair moves ``(r, v, t)`` by ``(tau v, dv, tau)``: the jet
    moves by ``tau`` times its :func:`~fwrta.constraints.member_jet` next
    order plus its ``along(dv)``.
    """
    g = 1.0 / gamma_p
    (h0, h1), (n0, n1), (d0, d1), _ = jet1
    gr = (n0[0] + n1[0] * g, n0[1] + n1[1] * g, n0[2] + n1[2] * g)
    terms = [h0 + h1 * g, dot3(gr, v) + (d0 + d1 * g), n0[0] * g, n0[1] * g, n0[2] * g]
    if not dirs:
        return terms, []
    (_, _, h2), (_, _, n2), (_, _, d2), along = member_jet(jet1)
    e_h = h1 + h2 * g
    e_d = dot3([x + y * g for x, y in zip(n1, n2)], v) + d1 + d2 * g
    e_x, e_y, e_z = n1[0] * g, n1[1] * g, n1[2] * g
    tangents = []
    for dv, tau in dirs:
        h_v, *n_v, d_v = along(dv)
        tangents.append([tau * e_h + h_v * g, tau * e_d + dot3(gr, dv) + (dot3(n_v, v) + d_v) * g,
                         tau * e_x, tau * e_y, tau * e_z])
    return terms, tangents


def compose_extended_terms(jets, v, kappa: float, gamma_p: float, dirs=()):
    """Composed extension of :func:`~fwrta.constraints.member_jet1` results along ``(v, 1)``:
    ``(h_e, D, gv, per-member values, weights, tangents)``, the last one
    composed ``[h_e', D', *gv']`` per pair of ``dirs`` (``[]`` without)."""
    terms, tangents = zip(*[member_extended_terms(j, v, gamma_p, dirs) for j in jets])
    h, D, *gv, per, w = compose_members(terms, kappa)
    if not dirs:
        return h, D, gv, per, w, []
    entries = [x[1:] for x in terms]
    return h, D, gv, per, w, [compose_along(entries, tg, w, kappa) for tg in zip(*tangents)]


def _affine_terms(ctx: TrackContext, cset: ConstraintSet, params: ExtendedParams):
    """Composed extension ``h`` at the frame's ``(x, t)`` and its rate as ``drift + row . u``.

    The ``P`` entry of ``row`` is a structural zero.
    """
    h, D, gv, _, _, _ = compose_extended_terms(frame_jets(ctx, cset), ctx.v, cset.kappa, params.gamma_p)
    V = ctx.V_T
    # acceleration map columns: A_T -> c0, Q -> -V c2, and the drift R -> V c1
    drift = D + dot3(gv, ctx.c1) * (V * ctx.R)
    return h, drift, (dot3(gv, ctx.c0), 0.0, -V * dot3(gv, ctx.c2))


def rta_extended(
    ctx: TrackContext, u_d: ControlInput, cset: ConstraintSet, params: ExtendedParams
) -> tuple[float, FilterResult]:
    """Filter the desired input against the composed extended barrier at the frame's ``(x, t)``;
    returns the barrier ``h_e`` and the filter's result, its ``u`` a :class:`ControlInput`."""
    h, drift, row = _affine_terms(ctx, cset, params)
    res = filter_input(u_d, h, drift, row, params)
    # carry the desired roll rate through verbatim (bit-exact transparency)
    res.u = ControlInput(res.u[0], u_d.P, res.u[2])
    return h, res
