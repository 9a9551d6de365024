import math

import numpy as np
import pytest

from fwrta import dual as dm


def f_scalar(x, y):
    return dm.sin(x) * dm.exp(y / 4.0) + dm.sqrt(x * x + 2.0) / dm.log1p(y * y) - x / y


def test_dual_matches_finite_differences():
    x0, y0 = 0.7, 1.3
    E = np.eye(2)
    x = dm.Dual(x0, E[0])
    y = dm.Dual(y0, E[1])
    out = f_scalar(x, y)
    h = 1e-6
    fx = (f_scalar(x0 + h, y0) - f_scalar(x0 - h, y0)) / (2 * h)
    fy = (f_scalar(x0, y0 + h) - f_scalar(x0, y0 - h)) / (2 * h)
    assert out.v == pytest.approx(f_scalar(x0, y0), rel=1e-14)
    assert out.e[0] == pytest.approx(fx, rel=1e-8)
    assert out.e[1] == pytest.approx(fy, rel=1e-8)


def test_dual_vector_ops(rng):
    a0 = rng.normal(size=3)
    b0 = rng.normal(size=3)
    E = np.eye(6)
    a = dm.Dual(a0.copy(), E[:3].copy())
    b = dm.Dual(b0.copy(), E[3:].copy())
    n = dm.norm(a - 2.0 * b)

    def ref(av, bv):
        return np.linalg.norm(av - 2.0 * bv)

    h = 1e-6
    for i in range(3):
        da = np.zeros(3)
        da[i] = h
        fd = (ref(a0 + da, b0) - ref(a0 - da, b0)) / (2 * h)
        assert n.e[i] == pytest.approx(fd, rel=1e-6)
        fd = (ref(a0, b0 + da) - ref(a0, b0 - da)) / (2 * h)
        assert n.e[3 + i] == pytest.approx(fd, rel=1e-6)


def test_dual_matvec_and_stack(rng):
    M = rng.normal(size=(3, 3))
    x0 = rng.normal(size=3)
    x = dm.Dual(x0.copy(), np.eye(3))
    y = dm.matvec(M, x)
    np.testing.assert_allclose(y.v, M @ x0, rtol=1e-14)
    np.testing.assert_allclose(y.e, M, rtol=1e-14)
    s = dm.stack([x[0] * 2.0, 1.5, x[2]])
    np.testing.assert_allclose(s.v, [2 * x0[0], 1.5, x0[2]])
    np.testing.assert_allclose(s.e[1], np.zeros(3))
    np.testing.assert_allclose(s.e[0], [2.0, 0.0, 0.0])


def _second_derivatives(f, z0, h=1e-4):
    k = len(z0)
    H = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            zpp = z0.copy(); zpp[i] += h; zpp[j] += h
            zpm = z0.copy(); zpm[i] += h; zpm[j] -= h
            zmp = z0.copy(); zmp[i] -= h; zmp[j] += h
            zmm = z0.copy(); zmm[i] -= h; zmm[j] -= h
            H[i, j] = (f(zpp) - f(zpm) - f(zmp) + f(zmm)) / (4 * h * h)
    return H


def test_hessian_row_matches_finite_differences(rng):
    r0 = rng.normal(size=3) + np.array([0.0, 0.0, 4.0])
    t0 = 0.8
    v = rng.normal(size=3)

    def build(r, t):
        return dm.dot(r, r) * dm.log1p(t * t) + dm.sqrt(dm.dot(r, r)) / (t + 2.0) + dm.exp(t * 0.1) * r[1]

    def fz(z):
        return float(dm.value(build(np.asarray(z[:3]), float(z[3]))))

    z0 = np.append(r0, t0)
    h = 1e-5
    J = np.array([(fz(z0 + h * e) - fz(z0 - h * e)) / (2 * h) for e in np.eye(4)])
    H = _second_derivatives(fz, z0)

    # one curvature pass per coordinate, each seeded first: the rows of H
    rows = np.zeros((4, 4))
    for i in range(4):
        S = np.roll(np.eye(4), -i, axis=0)
        r = dm.Dual(r0.copy(), S[:, :3].T.copy(), np.zeros((3, 4)))
        out = build(r, dm.Dual(t0, S[:, 3].copy(), np.zeros(4)))
        np.testing.assert_allclose(out.e @ S, J, rtol=1e-6, atol=1e-9)
        rows[i] = out.h @ S
    np.testing.assert_allclose(rows, H, rtol=2e-4, atol=5e-6)
    # rows from separate passes agree on the mixed partials
    np.testing.assert_allclose(rows, rows.T, atol=1e-12)

    # the line seeds: first and second derivative along w = (v, 1), and d_w d_r
    w = np.append(v, 1.0)
    out = build(*dm.seed_line(r0, t0, v))
    np.testing.assert_allclose(out.e, np.append(J @ w, J[:3]), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(out.h, np.append(w @ H @ w, (H @ w)[:3]), rtol=2e-4, atol=5e-6)


def test_softplus_exact_and_continuous():
    assert dm.softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert dm.softplus(800.0) == pytest.approx(800.0)
    assert dm.softplus(-800.0) == pytest.approx(math.exp(-800.0), abs=1e-300)
    # both branches agree to machine precision near the switch
    lo = dm.softplus(-1e-14)
    hi = dm.softplus(1e-14)
    assert abs(hi - lo) < 1e-13
    x = dm.Dual(0.3, np.array([1.0]))
    y = dm.softplus(x)
    h = 1e-7
    fd = (dm.softplus(0.3 + h) - dm.softplus(0.3 - h)) / (2 * h)
    assert y.e[0] == pytest.approx(fd, rel=1e-7)


def test_lift_path_first_and_second_order():
    p = np.array([1.0, 2.0, 3.0])
    v = np.array([0.5, -1.0, 2.0])
    a = np.array([0.1, 0.2, -0.3])
    t1 = dm.Dual(2.0, np.array([0.0, 1.0]))
    lifted = dm.lift_path(p, v, a, t1)
    np.testing.assert_allclose(lifted.e[:, 1], v)
    np.testing.assert_allclose(lifted.e[:, 0], 0.0)
    # curvature along seed 0: h = dp (x) t.h + ddp (x) t.e[0] t.e
    t2 = dm.Dual(2.0, np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    lifted2 = dm.lift_path(p, v, a, t2)
    np.testing.assert_allclose(lifted2.e, np.outer(v, [1.0, 0.5]))
    np.testing.assert_allclose(lifted2.h, np.outer(a, [1.0, 0.5]))
    t3 = dm.Dual(2.0, np.array([0.0, 1.0]), np.array([0.25, 0.0]))
    lifted3 = dm.lift_path(p, v, a, t3)
    np.testing.assert_allclose(lifted3.h, np.outer(v, [0.25, 0.0]))
    assert lifted.h is None
