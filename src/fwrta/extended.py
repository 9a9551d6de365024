"""Velocity-extended barrier assurance (strategy 1).

Each position constraint ``h`` is extended to ``h + hdot / gamma_p``, the
first order of the member's jet that the step's composition holds
(:func:`~fwrta.constraints.compose_h_p`), so the barrier rate sees the
acceleration channel.  :func:`compose_extended_terms` composes the
extension in the three quantities both input filters read: ``h_e``, its
rate at fixed velocity ``D`` and its velocity gradient ``gv``, by one
softmin of the members' values and one walk over the members; the
backstepping filter reads the same composition and walks the members
again only for their :func:`member_frame_rates`.  A geofence plane's
barrier is affine in position (constant gradient, zero time-partial, no
second order), so both functions return a plane's terms in closed form;
an obstacle's run the general formulas.  :class:`ExtendedParams` holds
the extension gain and the outer filter's gains, ``gamma``, ``W`` and the
smoothing ``nu``.  Roll rate ``P`` never enters: the input row carries a
structural zero in the ``P`` slot, and :func:`rta_extended` copies the
desired ``P`` bit for bit into the one :class:`~fwrta.model.ControlInput`
it builds, reading the frame the tracker computed the step in and the
composition the step passes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ZERO3, BarrierEval, member_jet, softmin_weights
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


def member_extended_terms(jet1, v, gamma_p: float):
    """``[E, D, *gv]`` of one extended member, as one flat float list.

    ``jet1`` is the member's :func:`~fwrta.constraints.member_jet1` at
    ``(r, t)`` along ``(v, 1)``.  ``E = h + h'/gamma_p`` is the jet's first
    order; by the symmetry of mixed partials its gradient in ``r`` is
    ``gr = n + n'/gamma_p``, so its rate at fixed velocity is
    ``D = gr . v + d + d'/gamma_p`` and its velocity gradient ``gv = n/gamma_p``.
    """
    g = 1.0 / gamma_p
    (h0, h1), (n0, n1), (d0, d1), sep = jet1
    nx, ny, nz = n0
    if sep is None:
        # a plane: n' = 0 and d = (0, 0), so gr = n and D = h'
        return [h0 + h1 * g, h1, nx * g, ny * g, nz * g]
    gx, gy, gz = nx + n1[0] * g, ny + n1[1] * g, nz + n1[2] * g
    return [h0 + h1 * g, (gx * v[0] + gy * v[1] + gz * v[2]) + (d0 + d1 * g), nx * g, ny * g, nz * g]


def member_frame_rates(jet1, gamma_p: float, ctx: TrackContext):
    """``(E', D')`` of a :func:`member_extended_terms` along the frame's drift
    ``(V R c1, 1)`` and columns ``(c0, 0)``, ``(-V c2, 0)``, pairs ``(dv, tau)``
    moving ``(r, v, t)`` by ``(tau v, dv, tau)``; ``gv`` moves by ``tau n'/gamma_p``.

    With :func:`~fwrta.constraints.member_jet`'s second orders at ``r2 = 0``,
    ``E' = tau (h' + h''/gamma_p) + n . dv/gamma_p`` and
    ``D' = tau ((n' + n''/gamma_p) . v + d' + d''/gamma_p) + gr . dv + x``,
    ``x = (dv . delta - (n . dv) q') / (q gamma_p)`` for an obstacle.  A plane's
    barrier is affine in ``r``: ``n`` is constant and ``d``, ``h''`` vanish, so its
    rates are ``(h' + V R n . c1/gamma_p, V R n . c1)``, ``(n . c0/gamma_p, n . c0)``
    and ``(-V n . c2/gamma_p, -V n . c2)``.
    """
    g = 1.0 / gamma_p
    (_, h1), (n0, n1), (_, d1), sep = jet1
    (ax, ay, az), (fx, fy, fz), (qx, qy, qz) = ctx.c0, ctx.c1, ctx.c2
    nx, ny, nz = n0
    n_a, n_f, n_q = (nx * ax + ny * ay + nz * az), (nx * fx + ny * fy + nz * fz), (nx * qx + ny * qy + nz * qz)
    V, VR = ctx.V_T, ctx.V_T * ctx.R
    if sep is None:
        return (h1 + VR * n_f * g, VR * n_f), (n_a * g, n_a), (-V * n_q * g, -V * n_q)
    v = ctx.v
    mx, my, mz = n1
    gx, gy, gz = nx + mx * g, ny + my * g, nz + mz * g
    r_a, r_f, r_q = (gx * ax + gy * ay + gz * az), (gx * fx + gy * fy + gz * fz), (gx * qx + gy * qy + gz * qz)
    h2, n2, d2 = member_jet(jet1, ZERO3)
    k, (lx, ly, lz) = g / sep[0], sep[1]
    r_a += ((lx * ax + ly * ay + lz * az) - n_a * h1) * k
    r_f += ((lx * fx + ly * fy + lz * fz) - n_f * h1) * k
    r_q += ((lx * qx + ly * qy + lz * qz) - n_q * h1) * k
    e_d = ((mx + n2[0] * g) * v[0] + (my + n2[1] * g) * v[1] + (mz + n2[2] * g) * v[2]) + d1 + d2 * g
    return (h1 + h2 * g + VR * n_f * g, e_d + VR * r_f), (n_a * g, r_a), (-V * n_q * g, -V * r_q)


def compose_extended_terms(jets, v, kappa: float, gamma_p: float):
    """Composed extension of :func:`~fwrta.constraints.member_jet1` results along ``(v, 1)``:
    ``(h_e, D, gv, per-member values, weights, per-member terms)``, from one softmin of
    the members' values and one walk that sums the weighted ``D`` and ``gv``, the
    first member starting each sum."""
    terms, per = [], []
    for jet in jets:
        e = member_extended_terms(jet, v, gamma_p)
        terms.append(e)
        per.append(e[0])
    h, w = (per[0], [1.0]) if len(per) == 1 else softmin_weights(per, kappa)
    x, (_, Di, vx, vy, vz) = w[0], terms[0]
    D, gx, gy, gz = x * Di, x * vx, x * vy, x * vz
    for i in range(1, len(terms)):
        x, (_, Di, vx, vy, vz) = w[i], terms[i]
        D, gx, gy, gz = D + x * Di, gx + x * vx, gy + x * vy, gz + x * vz
    return h, D, [gx, gy, gz], per, w, terms


def _affine_terms(ctx: TrackContext, pos: BarrierEval, params: ExtendedParams):
    """Composed extension ``h`` of the composition ``pos``'s member jets at the frame's
    ``(x, t)`` and its rate as ``drift + row . u``.

    The ``P`` entry of ``row`` is a structural zero.
    """
    h, D, gv, _, _, _ = compose_extended_terms(pos.jets, ctx.v, pos.kappa, params.gamma_p)
    V = ctx.V_T
    gx, gy, gz = gv
    c0, c1, c2 = ctx.c0, ctx.c1, ctx.c2
    # acceleration map columns: A_T -> c0, Q -> -V c2, and the drift R -> V c1
    drift = D + (gx * c1[0] + gy * c1[1] + gz * c1[2]) * (V * ctx.R)
    return h, drift, ((gx * c0[0] + gy * c0[1] + gz * c0[2]), 0.0, -V * (gx * c2[0] + gy * c2[1] + gz * c2[2]))


def rta_extended(
    ctx: TrackContext, u_d: ControlInput, pos: BarrierEval, params: ExtendedParams
) -> tuple[float, FilterResult]:
    """Filter the desired input against the extension of the composition ``pos``
    (:func:`~fwrta.constraints.compose_h_p`) at the frame's ``(x, t)``; returns the
    barrier ``h_e`` and the filter's result, its ``u`` a :class:`ControlInput`."""
    h, drift, row = _affine_terms(ctx, pos, params)
    res = filter_input(u_d, h, drift, row, params)
    # carry the desired roll rate through verbatim (bit-exact transparency)
    res.u = ControlInput(res.u[0], u_d.P, res.u[2])
    return h, res
