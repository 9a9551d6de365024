"""The one inner product and univariate Taylor jets, over Python floats.

``dot3`` is the inner product of two 3-sequences; every per-step
formula in ``fwrta`` holds its vectors as float 3-lists or 3-tuples and
takes its inner products with it.  The ``jet_*`` helpers propagate
univariate Taylor jets along one line (Griewank, Utke & Walther, Math.
Comp. 2000): a scalar jet is ``(x, x', x'')``, a vector jet three 3-lists
``(x, x', x'')``.  There is no vector-jet sum: the two sums of the jet
pass (the softmin's weighted members and the filter's ``v_s``) add
their terms in place, in the order of the terms.

Nothing at run time differentiates by evaluation: every derivative in
``fwrta`` is written in closed form over Python floats, one direction
at a time, a first-order tangent being one flat float list.  The
forward-mode dual numbers the tests use as the oracle of those closed
forms live under ``tests/``, with dual-generic spellings of the formulas
they differentiate.
"""

from __future__ import annotations

ZERO3 = (0.0, 0.0, 0.0)


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def jet_dot(a, b):
    """Inner product of two vector jets, as a scalar jet."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return dot3(a0, b0), dot3(a1, b0) + dot3(a0, b1), dot3(a2, b0) + 2.0 * dot3(a1, b1) + dot3(a0, b2)


def jet_mul(a, b):
    """Product of two scalar jets."""
    return a[0] * b[0], a[1] * b[0] + a[0] * b[1], a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2]


def jet_div(a, b):
    """Quotient of two scalar jets."""
    q = a[0] / b[0]
    q1 = (a[1] - q * b[1]) / b[0]
    return q, q1, (a[2] - 2.0 * q1 * b[1] - q * b[2]) / b[0]


def jet_scale(m, u):
    """Scalar jet times vector jet."""
    (m0, m1, m2), (u0, u1, u2) = m, u
    return ([m0 * x for x in u0], [m1 * x + m0 * y for x, y in zip(u0, u1)],
            [m2 * x + 2.0 * m1 * y + m0 * z for x, y, z in zip(u0, u1, u2)])

