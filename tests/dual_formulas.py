"""Dual-generic spellings of the barrier and filter formulas.

``fwrta`` evaluates these formulas over floats and writes their
derivatives in closed form.  The copies here are written over the
helpers of :mod:`dualnum`, so the oracles in ``conftest.py`` can seed
them with dual numbers and differentiate by evaluation: they are the
reference implementation the closed forms are checked against, not a
second run-time path.  On float inputs each returns what its ``fwrta``
counterpart returns.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

import dualnum as dm
from fwrta.constraints import COINCIDENT_TOL, GeofencePlane
from fwrta.errors import CoincidentPosition, ZeroDesiredVelocity
from fwrta.modelfree import ZERO_VELOCITY_MSG, ZERO_VELOCITY_TOL


def obstacle_at(obs, t):
    """Obstacle position/velocity/acceleration, lifted to match dual ``t``."""
    p, v, a = obs.trajectory(float(dm.value(t)))
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if isinstance(t, dm.Dual):
        zero = np.zeros(3)
        return dm.lift_path(p, v, a, t), dm.lift_path(v, a, zero, t), dm.lift_path(a, zero, zero, t)
    return p, v, a


def separation(r, t, obs):
    """``(r - r_i, |r - r_i|, v_i, a_i)``; the distance is tested before the
    dual norm divides by it."""
    r_i, v_i, a_i = obstacle_at(obs, t)
    diff = r - r_i
    if math.sqrt(dm.dot(dm.value(diff), dm.value(diff))) < COINCIDENT_TOL:
        raise CoincidentPosition(f"position within {COINCIDENT_TOL} m of obstacle center")
    return diff, dm.norm(diff), v_i, a_i


def member_terms(r, t, member):
    """(value, gradient wrt position, explicit time-partial) of one member."""
    if isinstance(member, GeofencePlane):
        n = np.asarray(member.normal)
        return dm.dot(n, r - np.asarray(member.point)) - member.rho, n, 0.0
    diff, q, v_i, _ = separation(r, t, member)
    n = diff / q
    return q - member.rho, n, -dm.dot(n, v_i)


def softmin_weights(values, kappa):
    """Stabilized smooth minimum and its convex weights."""
    vals = list(values)
    floats = [float(dm.value(v)) for v in vals]
    m = vals[floats.index(min(floats))]
    acc = 0.0
    for v in vals:
        acc = acc + dm.exp((m - v) * kappa)
    h = m - dm.log(acc) / kappa
    return h, [dm.exp((h - v) * kappa) for v in vals]


def softmin(values, kappa):
    return softmin_weights(values, kappa)[0]


def compose_members(terms, kappa):
    """Softmin of the members' values with their other entries weight-averaged."""
    cols = list(zip(*terms))
    per = list(cols[0])
    if len(per) == 1:
        return (*terms[0], per, [1.0])
    h, w = softmin_weights(per, kappa)
    out = [h]
    for col in cols[1:]:
        acc = w[0] * col[0]
        for i in range(1, len(per)):
            acc = acc + w[i] * col[i]
        out.append(acc)
    return (*out, per, w)


def compose_terms(r, t, cset):
    """Composed position barrier: (value, grad_r, dt_partial, per, weights)."""
    return compose_members([member_terms(r, t, m) for m in cset.members], cset.kappa)


def member_extended_terms(r, v, t, member, gamma_p):
    """(value, d/dr, d/dv, explicit d/dt) of one extended member."""
    inv_g = 1.0 / gamma_p
    if isinstance(member, GeofencePlane):
        n = np.asarray(member.normal)
        h = dm.dot(n, r - np.asarray(member.point)) - member.rho + inv_g * dm.dot(n, v)
        return h, n, n * inv_g, 0.0
    diff, q, v_i, a_i = separation(r, t, member)
    n = diff / q
    rel = v - v_i
    n_rel = dm.dot(n, rel)
    h = q - member.rho + inv_g * n_rel
    grad_r = n + (rel - n * n_rel) * (inv_g / q)
    n_vi = dm.dot(n, v_i)
    dt = -n_vi + inv_g * (-(dm.dot(v_i, rel) - n_vi * n_rel) / q - dm.dot(n, a_i))
    return h, grad_r, n * inv_g, dt


def compose_extended_terms(r, v, t, cset, gamma_p):
    """Composed extension: (value, d/dr, d/dv, d/dt, per, weights)."""
    return compose_members([member_extended_terms(r, v, t, m, gamma_p) for m in cset.members], cset.kappa)


def filter_step(u_d, a, b, W, nu):
    """Smooth filter step ``u = u_d + Lambda(a, |b|) W b``: ``(u, lam, |b|^2)``."""
    bn2 = dm.dot(b, b)
    if float(dm.value(bn2)) == 0.0:
        return u_d, 0.0, bn2
    b_norm = dm.sqrt(bn2)
    lam = dm.softplus(-nu * (a / b_norm)) / (nu * b_norm)
    return u_d + W(b) * lam, lam, bn2


def _wv_apply(v_d, Gamma_v, z):
    inv_s = 1.0 / math.sqrt(Gamma_v)
    proj = dm.dot(v_d, z) / dm.dot(v_d, v_d)
    return z * inv_s + v_d * (proj * (1.0 - inv_s))


def filter_core(h, grad, dtp, v_d, p):
    """Model-free velocity filter: ``(v_s, a_v, lam, |W_v grad|^2)``."""
    if math.sqrt(float(dm.value(dm.dot(v_d, v_d)))) < ZERO_VELOCITY_TOL:
        raise ZeroDesiredVelocity(ZERO_VELOCITY_MSG)
    a_v = dm.dot(grad, v_d) + dtp + p.gamma_p * h - p.sigma * dm.dot(grad, grad)
    W_v = partial(_wv_apply, v_d, p.Gamma_v)
    v_s, lam, bn2 = filter_step(v_d, a_v, W_v(grad), W_v, p.nu_v)
    return v_s, a_v, lam, bn2


def pipeline(r, v, t, c1, R, V_T, cset, p):
    """Backstepping chain: ``(h_e, a_s, R_s, h_b)``."""
    h_e, gr, gv, dt, _, _ = compose_extended_terms(r, v, t, cset, p.ext.gamma_p)
    a_e = dm.dot(gr, v) + dt + p.gamma_e * h_e
    W_e = np.asarray(p.W_e.W)
    # without authority a_s is the dual-kind zero, constant nearby for the derivatives
    zero = dm.lift_const(np.zeros(3), h_e)
    a_s = filter_step(zero, a_e, dm.matvec(W_e.T, gv), lambda z: dm.matvec(W_e, z), p.nu_e)[0]
    R_s = dm.dot(c1, a_s) / V_T
    gap = R_s - R
    return h_e, a_s, R_s, h_e - gap * gap * (0.5 / p.mu_e)
