import math

import numpy as np
import pytest

from conftest import apply_filter
from fwrta.backstepping import BacksteppingParams
from fwrta.extended import ExtendedParams
from fwrta.filters import WeightFactor, filter_input, lambda_hard, lambda_smooth, lambda_smooth_coefficients
from fwrta.model import ControlInput


def projection_oracle(u_d, a, b_raw, W):
    """Independent minimum-norm projection onto ``a + b_raw (u - u_d) >= 0``.

    Works in the assembled metric Gamma = W^-T W^-1 via explicit numpy
    inverses, no reuse of the closed-form path.
    """
    if a >= 0.0 or not np.any(b_raw):
        return np.asarray(u_d, dtype=float).copy()
    W_inv = np.linalg.inv(W)
    Gamma = W_inv.T @ W_inv
    Gamma_inv = np.linalg.inv(Gamma)
    scale = float(b_raw @ Gamma_inv @ b_raw)
    return u_d + Gamma_inv @ b_raw * (-a / scale)


def random_weight(rng, m=3):
    # bounded-condition positive definite factor, optionally rotated
    q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
    diag = np.diag(rng.uniform(0.3, 3.0, size=m))
    return WeightFactor(q1 @ diag @ q1.T)


class TestLambdaHard:
    def test_zero_row(self):
        assert lambda_hard(-5.0, 0.0) == 0.0

    def test_inactive(self):
        assert lambda_hard(1.0, 2.0) == 0.0

    def test_active_value(self):
        assert lambda_hard(-1.0, 2.0) == pytest.approx(0.25, abs=1e-15)


class TestLambdaSmooth:
    def test_analytic_point(self):
        assert lambda_smooth(0.0, 1.0, 1.0) == (pytest.approx(math.log(2.0), rel=1e-15), 0.5)

    def test_over_approximates_hard(self, rng):
        for _ in range(2000):
            a = float(rng.uniform(-50, 50))
            b = float(rng.uniform(1e-3, 20))
            nu = float(rng.uniform(0.05, 50))
            hard = lambda_hard(a, b)
            assert lambda_smooth(a, b, nu)[0] >= hard - 1e-12 * max(1.0, hard)

    def test_sharp_limit_bound(self, rng):
        nu = 1e3
        for _ in range(500):
            a = float(rng.uniform(-10, 10))
            b = float(rng.uniform(0.1, 5))
            hard = lambda_hard(a, b)
            gap = lambda_smooth(a, b, nu)[0] - hard
            assert -1e-12 * max(1.0, hard) <= gap <= math.log(2.0) / (nu * b) + 1e-9

    def test_requires_positive_nu(self):
        with pytest.raises(ValueError):
            lambda_smooth(1.0, 1.0, 0.0)


def lambda_smooth_rate(a, b_norm, nu, lam, slope, a_o, b_norm_o):
    """Reference: the first derivative of ``lam``, where ``lambda_smooth(a, b_norm, nu) =
    (lam, slope)``, as ``a`` moves by ``a_o`` and ``b_norm`` by ``b_norm_o``, one direction
    at a time: with ``x = -nu a/b``, ``x' = -(nu a' + x b') / b`` and
    ``lam' = (slope x' - lam nu b') / (nu b)``."""
    x = -nu * (a / b_norm)
    x_o = -(nu * a_o + x * b_norm_o) / b_norm
    return (slope * x_o - lam * nu * b_norm_o) / (nu * b_norm)


class TestLambdaSmoothCoefficients:
    def test_match_per_direction_rate_over_scales(self, rng):
        # |b| from 1e-150 to 1e150, the softplus argument in both branches, and the
        # rates (a', |b|') at unit scale and at the scale of |b|; the bound is relative
        # to the two terms' magnitudes (measured: 1.3e-15)
        for k in range(-150, 151, 5):
            b = 10.0**k
            for _ in range(20):
                nu, x = float(rng.uniform(0.05, 50.0)), float(rng.uniform(-30.0, 30.0))
                a = -x * b / nu
                lam, slope = lambda_smooth(a, b, nu)
                A, B = lambda_smooth_coefficients(a, b, nu, lam, slope)
                for scale in (1.0, b):
                    a_o, b_o = (float(v) * scale for v in rng.uniform(-1.0, 1.0, 2))
                    got = (A * a_o + B * b_o) / b
                    ref = lambda_smooth_rate(a, b, nu, lam, slope, a_o, b_o)
                    assert math.isfinite(got) and math.isfinite(ref)
                    assert abs(got - ref) <= 1e-14 * (abs(A * a_o) + abs(B * b_o)) / b


class TestApplyFilter:
    def test_inactive_returns_desired_exactly(self, rng):
        W = WeightFactor.diagonal([6.0, 0.6, 0.1])
        u_d = rng.normal(size=3)
        res = apply_filter(u_d, a=3.0, b_raw=np.array([0.2, 0.0, -1.0]), weight=W)
        assert np.all(res.u == u_d)
        assert res.lam == 0.0 and not res.infeasible

    def test_identity_weight_example(self):
        res = apply_filter(np.zeros(3), a=-2.0, b_raw=np.array([1.0, 0.0, 0.0]), weight=WeightFactor(np.eye(3)))
        np.testing.assert_allclose(res.u, [2.0, 0.0, 0.0], atol=1e-14)
        assert res.slack == pytest.approx(0.0, abs=1e-12)

    def test_matches_projection_oracle(self, rng):
        for _ in range(3000):
            W = random_weight(rng)
            u_d = rng.normal(size=3) * 3
            a = float(rng.uniform(-30, 30))
            b_raw = rng.normal(size=3) * rng.choice([0.0, 0.3, 1.0, 5.0])
            res = apply_filter(u_d, a, b_raw, W)
            ref = projection_oracle(u_d, a, b_raw, W.W)
            np.testing.assert_allclose(res.u, ref, atol=1e-9)
            # active constraint met with equality when lam > 0 (hard mode)
            if res.lam > 0:
                assert a + b_raw @ (res.u - u_d) == pytest.approx(0.0, abs=1e-9)

    def test_smooth_mode_positive_slack(self, rng):
        W = WeightFactor.diagonal([6.0, 0.6, 0.1])
        for _ in range(300):
            u_d = rng.normal(size=3)
            a = float(rng.uniform(-20, 20))
            b_raw = rng.normal(size=3)
            res = apply_filter(u_d, a, b_raw, W, nu=2.0)
            slack = a + b_raw @ (res.u - u_d)
            # strictly positive wherever the smooth correction is resolvable
            # in float64; far outside that band it rounds to the hard slack
            b = np.linalg.norm(b_raw @ W.W)
            if abs(2.0 * a / b) < 30.0:
                assert slack > 0.0
            assert slack >= -1e-12 * max(1.0, abs(a))
            assert res.slack == pytest.approx(slack, rel=1e-10, abs=1e-12)

    def test_infeasible_flag(self):
        W = WeightFactor(np.eye(3))
        res = apply_filter(np.ones(3), a=-1.0, b_raw=np.zeros(3), weight=W)
        assert res.infeasible
        np.testing.assert_array_equal(res.u, np.ones(3))

    def test_rotation_invariance_of_metric(self, rng):
        # W and W O (orthogonal O) encode the same metric: identical output
        for _ in range(200):
            W = random_weight(rng)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            u_d = rng.normal(size=3)
            a = float(rng.uniform(-10, 2))
            b_raw = rng.normal(size=3)
            res1 = apply_filter(u_d, a, b_raw, W)
            res2 = apply_filter(u_d, a, b_raw, WeightFactor(W.W @ q))
            np.testing.assert_allclose(res1.u, res2.u, atol=1e-10)

    def test_continuity_across_activation(self):
        # sampled Lipschitz check of the smooth output across a = 0
        W = WeightFactor.diagonal([6.0, 0.6, 0.1])
        b_raw = np.array([0.5, -0.2, 1.0])
        u_prev = None
        for a in np.linspace(-0.5, 0.5, 401):
            u = np.array(apply_filter(np.zeros(3), float(a), b_raw, W, nu=5.0).u)
            if u_prev is not None:
                assert np.linalg.norm(u - u_prev) < 0.05
            u_prev = u


def test_linear_decay_gain():
    # the input filter's decay is gamma h; every decay gain must be positive
    W = WeightFactor(np.eye(3))
    p = ExtendedParams(gamma_p=0.1, gamma=0.1, W=W)
    u_d = ControlInput(0.0, 0.0, 0.0)
    assert filter_input(u_d, 3.0, 0.0, (0.0, 0.0, 0.0), p).a == pytest.approx(0.3)
    assert filter_input(u_d, -2.0, 0.0, (0.0, 0.0, 0.0), p).a == pytest.approx(-0.2)
    with pytest.raises(ValueError, match="gamma must be positive"):
        ExtendedParams(gamma_p=0.1, gamma=0.0, W=W)
    for gamma_e, gamma, name in ((0.0, 0.1, "gamma_e"), (0.1, -1.0, "gamma")):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            BacksteppingParams(ExtendedParams(0.1, gamma, W), gamma_e=gamma_e, W_e=W, nu_e=1.0, mu_e=1.0)


def test_weight_factor_validation():
    with pytest.raises(ValueError):
        WeightFactor(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        WeightFactor(np.ones((2, 3)))
