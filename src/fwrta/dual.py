"""The one inner product, over Python floats.

``dot3`` is the inner product of two 3-sequences; every per-step
formula in ``fwrta`` holds its vectors as float 3-lists or 3-tuples and
takes its inner products with it.

Nothing at run time differentiates by evaluation: every derivative in
``fwrta`` is written in closed form over Python floats.  The model-free
safe command's is a univariate Taylor jet along the flown curve
(Griewank, Utke & Walther, Math. Comp. 2000), written out stage by stage
in scalar formulas.  The forward-mode dual numbers the tests use as the
oracle of those closed forms live under ``tests/``, with dual-generic
spellings of the formulas they differentiate.
"""

from __future__ import annotations

ZERO3 = (0.0, 0.0, 0.0)


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
