"""Velocity-extended barrier assurance (strategy 1).

Each position constraint ``h`` is extended to ``h + hdot / gamma_p`` so
the barrier rate sees the acceleration channel; the composed extension
drives the closed-form filter over ``(A_T, Q)``.  Roll rate ``P`` never
enters: the extension depends on the velocity states only, so the input
row carries a structural zero in the ``P`` slot and the filtered ``P``
equals the desired one bit for bit: :func:`rta_extended` copies it into
the one :class:`~fwrta.model.ControlInput` it builds, and returns the
barrier with the filter's :class:`~fwrta.filters.FilterResult`.  The
decay is linear, ``gamma h``.  The extension and its rate are
read from the plain-float frame :class:`~fwrta.model.TrackContext` the
filter is given, the one the tracking controller computed the step in
(``TrackResult.ctx``), over floats; nothing here builds a frame.
:func:`member_extended_terms` also gives, on request, its outputs'
first derivatives along given directions of ``(r, v, t)``, in closed
form over floats, one flat list per direction; the backstepping
barrier's rate is built on them, and this mode asks for none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintSet, GeofencePlane, _separation, _unit_along, compose_members, h_geofence
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


def member_extended_terms(r, v, t, member, gamma_p: float, dirs=()):
    """``[value, *d/dr, *d/dv, explicit d/dt]`` of one extended member, and
    their first derivatives along ``dirs``, each ``(dr, dv, dt)``.

    Returns ``(terms, tangents)``: the entries as one flat float list and,
    one such list per direction, their derivatives (``[]`` without
    ``dirs``).  An obstacle's derivatives move through those of
    ``q = |r - r_i|``, the unit vector ``n``, ``rel = v - v_i`` and
    ``n . rel``; ``r_i`` moves with ``v_i`` and ``v_i`` with ``a_i`` (jerk
    taken as zero).
    """
    inv_g = 1.0 / gamma_p
    if isinstance(member, GeofencePlane):
        n = member.n3
        terms = [h_geofence(r, member) + inv_g * dot3(n, v), *n, *(x * inv_g for x in n), 0.0]
        return terms, [[dot3(n, dr) + inv_g * dot3(n, dv)] + [0.0] * 7 for dr, dv, _ in dirs]
    diff, q, v_i, a_i = _separation(r, t, member)
    n = [x / q for x in diff]
    rel = [a - b for a, b in zip(v, v_i)]
    n_rel = dot3(n, rel)
    h = q - member.rho + inv_g * n_rel
    # (I - n n^T) z / q terms from differentiating the unit vector
    perp = [a - b * n_rel for a, b in zip(rel, n)]
    k = inv_g / q
    n_vi = dot3(n, v_i)
    n_ai = dot3(n, a_i)
    x = dot3(v_i, rel) - n_vi * n_rel
    dt = -n_vi + inv_g * (-x / q - n_ai)
    terms = [h, *(a + b * k for a, b in zip(n, perp)), *(a * inv_g for a in n), dt]
    tangents = []
    for dr, dv, dtau in dirs:
        q_o, n_o = _unit_along(n, q, [a - b * dtau for a, b in zip(dr, v_i)])
        rel_o = [a - b * dtau for a, b in zip(dv, a_i)]
        n_rel_o = dot3(rel, n_o) + dot3(n, rel_o)
        n_vi_o = dot3(v_i, n_o) + n_ai * dtau
        x_o = dot3(a_i, rel) * dtau + dot3(v_i, rel_o) - n_vi_o * n_rel - n_vi * n_rel_o
        grad_r_o = [a + (b - a * n_rel - c * n_rel_o - d * (q_o / q)) * k
                    for a, b, c, d in zip(n_o, rel_o, n, perp)]
        dt_o = -n_vi_o + inv_g * ((x * q_o / q - x_o) / q - dot3(a_i, n_o))
        tangents.append([q_o + inv_g * n_rel_o, *grad_r_o, *(a * inv_g for a in n_o), dt_o])
    return terms, tangents


def compose_extended_terms(r, v, t, cset: ConstraintSet, gamma_p: float):
    """Composed extension with weight-averaged derivatives:
    ``(value, d/dr, d/dv, explicit d/dt, per-member values, weights)``."""
    terms = [member_extended_terms(r, v, t, m, gamma_p)[0] for m in cset.members]
    h, *g, dt, per, w = compose_members(terms, cset.kappa)
    return h, g[:3], g[3:], dt, per, w


def _affine_terms(ctx: TrackContext, cset: ConstraintSet, params: ExtendedParams):
    """Composed extension ``h`` at the frame's ``(x, t)`` and its rate as ``drift + row . u``.

    The ``P`` entry of ``row`` is a structural zero.
    """
    v = ctx.v
    h, gr, gv, dt, _, _ = compose_extended_terms(ctx.r, v, ctx.t, cset, params.gamma_p)
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
