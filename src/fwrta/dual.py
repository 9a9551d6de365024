"""Forward-mode differentiation on scalars and small vectors.

Two number types are provided:

* ``Dual``  -- value plus first derivatives against ``k`` seed directions.
* ``Dual2`` -- value plus first and second derivatives (dense ``k x k``
  Hessian blocks), used where a derivative of a quantity that itself
  contains derivatives is required.

Values are python floats or small numpy arrays; the derivative payload
always carries the seed axis last, so a 3-vector with ``k`` seeds stores
``e`` with shape ``(3, k)``.  The math helpers at module level (``sin``,
``dot``, ``norm``, ...) accept plain numbers, arrays, ``Dual`` and
``Dual2`` interchangeably, which lets the barrier/controller formulas be
written once and differentiated by evaluation.  Neither type defines
comparisons or powers: branches compare ``value(x)`` and squares are
written as products.
"""

from __future__ import annotations

import math

import numpy as np


def _vex(x):
    # align a value against a trailing seed axis for broadcasting
    return x[..., None] if isinstance(x, np.ndarray) else x


def _vex2(x):
    return x[..., None, None] if isinstance(x, np.ndarray) else x


class Dual:
    """Value ``v`` with first-order sensitivities ``e`` (seed axis last)."""

    __slots__ = ("v", "e")

    # keep numpy from broadcasting us elementwise; binary ops with
    # ndarrays must fall back to our own reflected operators
    __array_ufunc__ = None

    def __init__(self, v, e):
        self.v = v
        self.e = e

    def __repr__(self):
        return f"Dual({self.v!r}, e={self.e!r})"

    def __getitem__(self, i):
        return Dual(self.v[i], self.e[i])

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v + o.v, self.e + o.e)
        return Dual(self.v + o, self.e)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v - o.v, self.e - o.e)
        return Dual(self.v - o, self.e)

    def __rsub__(self, o):
        return Dual(o - self.v, -self.e)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v * o.v, self.e * _vex(o.v) + o.e * _vex(self.v))
        return Dual(self.v * o, self.e * _vex(o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            q = self.v / o.v
            return Dual(q, (self.e - o.e * _vex(q)) / _vex(o.v))
        return Dual(self.v / o, self.e / _vex(o))

    def __rtruediv__(self, o):
        q = o / self.v
        return Dual(q, self.e * _vex(-q / self.v))

    def __neg__(self):
        return Dual(-self.v, -self.e)


class Dual2:
    """Value ``v``, Jacobian ``j`` and Hessian ``h`` against ``k`` seeds."""

    __slots__ = ("v", "j", "h")

    __array_ufunc__ = None

    def __init__(self, v, j, h):
        self.v = v
        self.j = j
        self.h = h

    def __repr__(self):
        return f"Dual2({self.v!r})"

    def __getitem__(self, i):
        return Dual2(self.v[i], self.j[i], self.h[i])

    def __add__(self, o):
        if isinstance(o, Dual2):
            return Dual2(self.v + o.v, self.j + o.j, self.h + o.h)
        return Dual2(self.v + o, self.j, self.h)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual2):
            return Dual2(self.v - o.v, self.j - o.j, self.h - o.h)
        return Dual2(self.v - o, self.j, self.h)

    def __rsub__(self, o):
        return Dual2(o - self.v, -self.j, -self.h)

    def __mul__(self, o):
        if isinstance(o, Dual2):
            cross = self.j[..., :, None] * o.j[..., None, :]
            cross = cross + o.j[..., :, None] * self.j[..., None, :]
            return Dual2(
                self.v * o.v,
                self.j * _vex(o.v) + o.j * _vex(self.v),
                self.h * _vex2(o.v) + o.h * _vex2(self.v) + cross,
            )
        return Dual2(self.v * o, self.j * _vex(o), self.h * _vex2(o))

    __rmul__ = __mul__

    def _inv(self):
        iv = 1.0 / self.v
        iv2 = iv * iv
        jj = self.j[..., :, None] * self.j[..., None, :]
        return Dual2(
            iv,
            -self.j * _vex(iv2),
            -self.h * _vex2(iv2) + 2.0 * jj * _vex2(iv2 * iv),
        )

    def __truediv__(self, o):
        if isinstance(o, Dual2):
            return self * o._inv()
        return Dual2(self.v / o, self.j / _vex(o), self.h / _vex2(o))

    def __rtruediv__(self, o):
        return self._inv() * o

    def __neg__(self):
        return Dual2(-self.v, -self.j, -self.h)


def _chain2(x, v, d1, d2):
    jj = x.j[..., :, None] * x.j[..., None, :]
    return Dual2(v, x.j * _vex(d1), x.h * _vex2(d1) + jj * _vex2(d2))


def value(x):
    """Plain value of a possibly-dual quantity."""
    if isinstance(x, (Dual, Dual2)):
        return x.v
    return x


def _np_or_math(x, fnp, fm):
    return fnp(x) if isinstance(x, np.ndarray) else fm(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(_np_or_math(x.v, np.sin, math.sin), x.e * _vex(_np_or_math(x.v, np.cos, math.cos)))
    if isinstance(x, Dual2):
        s = _np_or_math(x.v, np.sin, math.sin)
        c = _np_or_math(x.v, np.cos, math.cos)
        return _chain2(x, s, c, -s)
    return _np_or_math(x, np.sin, math.sin)


def cos(x):
    if isinstance(x, Dual):
        return Dual(_np_or_math(x.v, np.cos, math.cos), x.e * _vex(-_np_or_math(x.v, np.sin, math.sin)))
    if isinstance(x, Dual2):
        s = _np_or_math(x.v, np.sin, math.sin)
        c = _np_or_math(x.v, np.cos, math.cos)
        return _chain2(x, c, -s, -c)
    return _np_or_math(x, np.cos, math.cos)


def exp(x):
    if isinstance(x, Dual):
        v = _np_or_math(x.v, np.exp, math.exp)
        return Dual(v, x.e * _vex(v))
    if isinstance(x, Dual2):
        v = _np_or_math(x.v, np.exp, math.exp)
        return _chain2(x, v, v, v)
    return _np_or_math(x, np.exp, math.exp)


def log(x):
    if isinstance(x, Dual):
        return Dual(_np_or_math(x.v, np.log, math.log), x.e * _vex(1.0 / x.v))
    if isinstance(x, Dual2):
        iv = 1.0 / x.v
        return _chain2(x, _np_or_math(x.v, np.log, math.log), iv, -iv * iv)
    return _np_or_math(x, np.log, math.log)


def log1p(x):
    if isinstance(x, Dual):
        return Dual(_np_or_math(x.v, np.log1p, math.log1p), x.e * _vex(1.0 / (1.0 + x.v)))
    if isinstance(x, Dual2):
        iv = 1.0 / (1.0 + x.v)
        return _chain2(x, _np_or_math(x.v, np.log1p, math.log1p), iv, -iv * iv)
    return _np_or_math(x, np.log1p, math.log1p)


def sqrt(x):
    if isinstance(x, Dual):
        v = _np_or_math(x.v, np.sqrt, math.sqrt)
        return Dual(v, x.e * _vex(0.5 / v))
    if isinstance(x, Dual2):
        v = _np_or_math(x.v, np.sqrt, math.sqrt)
        return _chain2(x, v, 0.5 / v, -0.25 / (v * x.v))
    return _np_or_math(x, np.sqrt, math.sqrt)


def dot(a, b):
    """Inner product of 3-vectors (plain, Dual or Dual2)."""
    da, db = isinstance(a, Dual), isinstance(b, Dual)
    if da or db:
        if da and db:
            return Dual(float(a.v @ b.v), a.v @ b.e + b.v @ a.e)
        if da:
            return Dual(float(a.v @ b), b @ a.e)
        return Dual(float(a @ b.v), a @ b.e)
    da, db = isinstance(a, Dual2), isinstance(b, Dual2)
    if da or db:
        if not da:
            a = lift_const(a, b)
        if not db:
            b = lift_const(b, a)
        v = float(a.v @ b.v)
        j = a.v @ b.j + b.v @ a.j
        h = (
            np.einsum("i,ijk->jk", a.v, b.h)
            + np.einsum("i,ijk->jk", b.v, a.h)
            + np.einsum("ij,ik->jk", a.j, b.j)
            + np.einsum("ij,ik->jk", b.j, a.j)
        )
        return Dual2(v, j, h)
    return float(np.dot(a, b))


def norm(a):
    return sqrt(dot(a, a))


def matvec(m, x):
    """Constant matrix times a (possibly dual) vector."""
    if isinstance(x, Dual):
        return Dual(m @ x.v, np.tensordot(m, x.e, axes=(1, 0)))
    if isinstance(x, Dual2):
        return Dual2(m @ x.v, np.tensordot(m, x.j, axes=(1, 0)), np.tensordot(m, x.h, axes=(1, 0)))
    return m @ x


def stack(items):
    """Stack scalars (mixing plain and dual) into a vector of the same kind."""
    dual_items = [x for x in items if isinstance(x, (Dual, Dual2))]
    if not dual_items:
        return np.array([float(x) for x in items])
    proto = dual_items[0]
    v = np.array([value(x) for x in items], dtype=float)
    if isinstance(proto, Dual):
        k = proto.e.shape[-1]
        e = np.zeros((len(items), k))
        for i, x in enumerate(items):
            if isinstance(x, Dual):
                e[i] = x.e
        return Dual(v, e)
    k = proto.j.shape[-1]
    j = np.zeros((len(items), k))
    h = np.zeros((len(items), k, k))
    for i, x in enumerate(items):
        if isinstance(x, Dual2):
            j[i] = x.j
            h[i] = x.h
    return Dual2(v, j, h)


def lift_const(c, like):
    """Lift a constant to the dual kind of ``like`` with zero sensitivities."""
    c = np.asarray(c, dtype=float) if np.ndim(c) else float(c)
    shape = np.shape(c)
    if isinstance(like, Dual):
        k = like.e.shape[-1]
        return Dual(c, np.zeros(shape + (k,)))
    if isinstance(like, Dual2):
        k = like.j.shape[-1]
        return Dual2(c, np.zeros(shape + (k,)), np.zeros(shape + (k, k)))
    return c


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


def seed2_pos_time(r, t):
    """Second-order seeds over position and time (4 directions)."""
    E = np.eye(4)
    r = np.asarray(r, dtype=float)
    rd = Dual2(r.copy(), E[:3].copy(), np.zeros((3, 4, 4)))
    td = Dual2(float(t), E[3], np.zeros((4, 4)))
    return rd, td


def lift_path(p, dp, ddp, t):
    """Lift a time-parameterized point to the dual kind of ``t``.

    ``p``, ``dp`` and ``ddp`` are the value and its first two time
    derivatives at ``value(t)``; third derivatives are taken as zero.
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    if isinstance(t, Dual):
        return Dual(p, np.outer(dp, t.e))
    if isinstance(t, Dual2):
        ddp = np.asarray(ddp, dtype=float)
        tt = t.j[:, None] * t.j[None, :]
        h = dp[:, None, None] * t.h[None, :, :] + ddp[:, None, None] * tt[None, :, :]
        return Dual2(p, np.outer(dp, t.j), h)
    return p


def softplus(x):
    """Overflow-safe ``ln(1 + e^x)``, exact in both branches."""
    if isinstance(x, (Dual, Dual2)):
        if x.v > 0.0:
            return x + log1p(exp(-x))
        return log1p(exp(x))
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))
