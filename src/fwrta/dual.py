"""Forward-mode differentiation on scalars and small vectors.

``Dual`` carries a value ``v`` and its first derivatives ``e`` against
``k`` seed directions, with the seed axis last: a 3-vector with ``k``
seeds stores ``e`` with shape ``(3, k)``.  An optional curvature field
``h`` (same shape as ``e``) holds the derivative of ``e`` along seed 0,
i.e. row 0 of the Hessian; it is ``None`` for first-order passes and the
seed decides which one runs (see :func:`seed_line`).  This is the
Hessian-vector propagation of forward mode along a single direction
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).

The math helpers at module level (``sin``, ``dot``, ``norm``, ...)
accept plain numbers, arrays and ``Dual`` interchangeably, which lets
the barrier/controller formulas be written once and differentiated by
evaluation.  ``Dual`` defines no comparisons or powers: branches compare
``value(x)`` and squares are written as products.
"""

from __future__ import annotations

import math

import numpy as np


def _vex(x):
    # align a value against a trailing seed axis for broadcasting
    return x[..., None] if isinstance(x, np.ndarray) else x


class Dual:
    """Value ``v``, first derivatives ``e`` and optional seed-0 row ``h``."""

    __slots__ = ("v", "e", "h")

    # keep numpy from broadcasting us elementwise; binary ops with
    # ndarrays must fall back to our own reflected operators
    __array_ufunc__ = None

    def __init__(self, v, e, h=None):
        self.v = v
        self.e = e
        self.h = h

    def __repr__(self):
        return f"Dual({self.v!r}, e={self.e!r}, h={self.h!r})"

    def __getitem__(self, i):
        return Dual(self.v[i], self.e[i], None if self.h is None else self.h[i])

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v + o.v, self.e + o.e, None if self.h is None else self.h + o.h)
        return Dual(self.v + o, self.e, self.h)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v - o.v, self.e - o.e, None if self.h is None else self.h - o.h)
        return Dual(self.v - o, self.e, self.h)

    def __rsub__(self, o):
        return Dual(o - self.v, -self.e, None if self.h is None else -self.h)

    def __mul__(self, o):
        if isinstance(o, Dual):
            e = self.e * _vex(o.v) + o.e * _vex(self.v)
            if self.h is None:
                return Dual(self.v * o.v, e)
            h = self.h * _vex(o.v) + o.h * _vex(self.v) + self.e * _vex(o.e[..., 0]) + o.e * _vex(self.e[..., 0])
            return Dual(self.v * o.v, e, h)
        return Dual(self.v * o, self.e * _vex(o), None if self.h is None else self.h * _vex(o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            q = self.v / o.v
            e = (self.e - o.e * _vex(q)) / _vex(o.v)
            if self.h is None:
                return Dual(q, e)
            h = (self.h - o.h * _vex(q) - o.e * _vex(e[..., 0]) - e * _vex(o.e[..., 0])) / _vex(o.v)
            return Dual(q, e, h)
        return Dual(self.v / o, self.e / _vex(o), None if self.h is None else self.h / _vex(o))

    def __rtruediv__(self, o):
        q = o / self.v
        if self.h is None:
            return Dual(q, self.e * _vex(-q / self.v))
        return _chain(self, q, -q / self.v, 2.0 * q / (self.v * self.v))

    def __neg__(self):
        return Dual(-self.v, -self.e, None if self.h is None else -self.h)


def _chain(x, f, d1, d2):
    """Curvature ``g(x)`` with value ``f``, first derivative ``d1``, second ``d2``."""
    return Dual(f, x.e * _vex(d1), x.h * _vex(d1) + x.e * _vex(d2 * x.e[..., 0]))


def value(x):
    """Plain value of a possibly-dual quantity."""
    return x.v if isinstance(x, Dual) else x


def _np_or_math(x, fnp, fm):
    return fnp(x) if isinstance(x, np.ndarray) else fm(x)


def sin(x):
    if isinstance(x, Dual):
        s, c = _np_or_math(x.v, np.sin, math.sin), _np_or_math(x.v, np.cos, math.cos)
        return Dual(s, x.e * _vex(c)) if x.h is None else _chain(x, s, c, -s)
    return _np_or_math(x, np.sin, math.sin)


def cos(x):
    if isinstance(x, Dual):
        c, s = _np_or_math(x.v, np.cos, math.cos), _np_or_math(x.v, np.sin, math.sin)
        return Dual(c, x.e * _vex(-s)) if x.h is None else _chain(x, c, -s, -c)
    return _np_or_math(x, np.cos, math.cos)


def exp(x):
    if isinstance(x, Dual):
        v = _np_or_math(x.v, np.exp, math.exp)
        return Dual(v, x.e * _vex(v)) if x.h is None else _chain(x, v, v, v)
    return _np_or_math(x, np.exp, math.exp)


def log(x):
    if isinstance(x, Dual):
        f, iv = _np_or_math(x.v, np.log, math.log), 1.0 / x.v
        return Dual(f, x.e * _vex(iv)) if x.h is None else _chain(x, f, iv, -iv * iv)
    return _np_or_math(x, np.log, math.log)


def log1p(x):
    if isinstance(x, Dual):
        f, iv = _np_or_math(x.v, np.log1p, math.log1p), 1.0 / (1.0 + x.v)
        return Dual(f, x.e * _vex(iv)) if x.h is None else _chain(x, f, iv, -iv * iv)
    return _np_or_math(x, np.log1p, math.log1p)


def sqrt(x):
    if isinstance(x, Dual):
        v = _np_or_math(x.v, np.sqrt, math.sqrt)
        return Dual(v, x.e * _vex(0.5 / v)) if x.h is None else _chain(x, v, 0.5 / v, -0.25 / (v * x.v))
    return _np_or_math(x, np.sqrt, math.sqrt)


def dot(a, b):
    """Inner product of 3-vectors (plain or Dual)."""
    if isinstance(a, Dual):
        if isinstance(b, Dual):
            e = a.v @ b.e + b.v @ a.e
            if a.h is None:
                return Dual(float(a.v @ b.v), e)
            return Dual(float(a.v @ b.v), e, a.v @ b.h + b.v @ a.h + a.e[:, 0] @ b.e + b.e[:, 0] @ a.e)
        return Dual(float(a.v @ b), b @ a.e, None if a.h is None else b @ a.h)
    if isinstance(b, Dual):
        return Dual(float(a @ b.v), a @ b.e, None if b.h is None else a @ b.h)
    return float(np.dot(a, b))


def norm(a):
    return sqrt(dot(a, a))


def matvec(m, x):
    """Constant matrix times a (possibly dual) vector."""
    if isinstance(x, Dual):
        return Dual(m @ x.v, np.tensordot(m, x.e, axes=(1, 0)), None if x.h is None else m @ x.h)
    return m @ x


def stack(items):
    """Stack scalars (mixing plain and dual) into a vector of the same kind."""
    dual_items = [x for x in items if isinstance(x, Dual)]
    if not dual_items:
        return np.array([float(x) for x in items])
    proto = dual_items[0]
    v = np.array([value(x) for x in items], dtype=float)
    e = np.zeros((len(items), proto.e.shape[-1]))
    h = None if proto.h is None else np.zeros_like(e)
    for i, x in enumerate(items):
        if isinstance(x, Dual):
            e[i] = x.e
            if h is not None:
                h[i] = x.h
    return Dual(v, e, h)


def lift_const(c, like):
    """Lift a constant to the dual kind of ``like`` with zero sensitivities."""
    c = np.asarray(c, dtype=float) if np.ndim(c) else float(c)
    if not isinstance(like, Dual):
        return c
    e = np.zeros(np.shape(c) + (like.e.shape[-1],))
    return Dual(c, e, None if like.h is None else e.copy())


def seed_state_time(x, t):
    """Dual pieces of a 7-state plus time against 8 unit seed directions.

    Returns ``(r, phi, theta, psi, V_T, t)`` where ``r`` is a dual
    3-vector and the rest are dual scalars; seed ordering is the state
    components followed by time.
    """
    E = np.eye(8)
    x = np.asarray(x, dtype=float)
    r = Dual(x[:3].copy(), E[:3].copy())
    phi = Dual(float(x[3]), E[3])
    theta = Dual(float(x[4]), E[4])
    psi = Dual(float(x[5]), E[5])
    V_T = Dual(float(x[6]), E[6])
    td = Dual(float(t), E[7])
    return r, phi, theta, psi, V_T, td


def seed_pos_time(r, t):
    """First-order seeds over position and time (4 directions)."""
    E = np.eye(4)
    r = np.asarray(r, dtype=float)
    rd = Dual(r.copy(), E[:3].copy())
    td = Dual(float(t), E[3])
    return rd, td


def seed_line(r, t, v):
    """Curvature seeds ``(w, r_n, r_e, r_d)`` over position and time.

    Seed 0 is the line ``w = (v, 1)`` through ``(r, t)``, so ``h`` of a
    result is its derivative along ``w`` of the Jacobian: ``h[..., 0]``
    is the second derivative along the line and ``h[..., 1:]`` the mixed
    ``d_w d_r`` row.
    """
    e = np.zeros((3, 4))
    e[:, 0] = v
    e[:, 1:] = np.eye(3)
    rd = Dual(np.asarray(r, dtype=float).copy(), e, np.zeros((3, 4)))
    td = Dual(float(t), np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))
    return rd, td


def lift_path(p, dp, ddp, t):
    """Lift a time-parameterized point to the dual kind of ``t``.

    ``p``, ``dp`` and ``ddp`` are the value and its first two time
    derivatives at ``value(t)``; third derivatives are taken as zero.
    """
    p = np.asarray(p, dtype=float)
    if not isinstance(t, Dual):
        return p
    dp = np.asarray(dp, dtype=float)
    e = np.outer(dp, t.e)
    if t.h is None:
        return Dual(p, e)
    return Dual(p, e, np.outer(dp, t.h) + np.outer(np.asarray(ddp, dtype=float) * t.e[0], t.e))


def softplus(x):
    """Overflow-safe ``ln(1 + e^x)``, exact in both branches."""
    if isinstance(x, Dual):
        if x.v > 0.0:
            return x + log1p(exp(-x))
        return log1p(exp(x))
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))
