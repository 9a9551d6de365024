import math

import numpy as np
import pytest

from conftest import random_constraint_set, safe_velocity
from fwrta.constraints import ConstraintSet, GeofencePlane, MovingObstacle, compose_h_p
from fwrta.errors import InvalidGainOrdering, ZeroDesiredVelocity
from fwrta.modelfree import ModelFreeParams, _wv_apply, h_V

TABLE = ModelFreeParams(gamma_p=0.1, sigma=3.0, Gamma_v=4.0, nu_v=0.007)


def weight_matrix(v_d, Gamma_v):
    """The velocity weight as a matrix, one applied unit vector per column."""
    return np.column_stack([_wv_apply(np.asarray(v_d, dtype=float), Gamma_v, e) for e in np.eye(3)])


class TestVelocityWeights:
    def test_isotropic(self, rng):
        W = weight_matrix(rng.normal(size=3), 1.0)
        np.testing.assert_allclose(W, np.eye(3), atol=1e-14)

    def test_axis_aligned(self):
        W = weight_matrix([7.0, 0.0, 0.0], 4.0)
        np.testing.assert_allclose(W, np.diag([1.0, 0.5, 0.5]), atol=1e-15)

    def test_eigenvalues(self, rng):
        for _ in range(50):
            v = rng.normal(size=3) * 30
            W = weight_matrix(v, 4.0)
            eig = np.sort(np.linalg.eigvalsh(W))
            np.testing.assert_allclose(eig, [0.5, 0.5, 1.0], atol=1e-12)

    def test_zero_velocity_raises(self):
        # the projector's guard sits in the filter that applies the weight
        cset = ConstraintSet([GeofencePlane([0, 5000, 0], [0, -1, 0], 10.0)], kappa=0.007)
        with pytest.raises(ZeroDesiredVelocity):
            safe_velocity(np.zeros(3), 0.0, [1e-8, 0.0, 0.0], cset, TABLE)


class TestSafeVelocity:
    def test_passthrough_when_gradient_cancels(self, gravity):
        a = GeofencePlane([2000.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 10.0)
        b = GeofencePlane([-2000.0, 0.0, 0.0], [1.0, 0.0, 0.0], 10.0)
        cset = ConstraintSet([a, b], kappa=0.007)
        v_d = np.array([0.0, 150.0, 0.0])
        out = safe_velocity(np.zeros(3), 0.0, v_d, cset, TABLE)
        np.testing.assert_array_equal(out.u, v_d)

    def test_constraint_slack_nonnegative(self, rng):
        for _ in range(10_000):
            r = rng.uniform(-500, 500, size=3)
            cset = random_constraint_set(rng, r)
            v_d = rng.uniform(-200, 200, size=3)
            if np.linalg.norm(v_d) < 1.0:
                continue
            t = float(rng.uniform(0, 10))
            out = safe_velocity(r, t, v_d, cset, TABLE)
            pos = compose_h_p(r, t, cset)
            grad = np.array(pos.gradient_r)
            rate = float(grad @ out.u) + pos.dt_partial
            slack = rate + TABLE.gamma_p * pos.value - TABLE.sigma * float(grad @ grad)
            assert slack >= -1e-9 * max(1.0, abs(out.a))
            assert out.slack == pytest.approx(slack, rel=1e-9, abs=1e-9)

    def test_planar_problem_keeps_zero_down_component(self, rng):
        # planar obstacle, planar fences, planar desired velocity: the
        # filtered velocity has exactly zero down component
        obs = MovingObstacle.constant_velocity([-3048.0, 0.0, 0.0], [121.92, 161.32, 0.0], 30.0)
        p2 = GeofencePlane([0.0, 11901.0, 0.0], [-4.0, -1.0, 0.0], 15.0)
        p3 = GeofencePlane([0.0, 11901.0, 0.0], [-2.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([obs, p2, p3], kappa=0.007)
        for _ in range(100):
            r = np.array([rng.uniform(-2000, 2000), rng.uniform(-2000, 8000), 0.0])
            v_d = np.array([rng.uniform(-150, 150), rng.uniform(-150, 150), 0.0])
            if np.linalg.norm(v_d) < 1.0:
                continue
            out = safe_velocity(r, float(rng.uniform(0, 20)), v_d, cset, TABLE)
            assert out.u[2] == 0.0

    def test_zero_desired_velocity_raises(self):
        cset = ConstraintSet([GeofencePlane([0, 5000, 0], [0, -1, 0], 10.0)], kappa=0.007)
        with pytest.raises(ZeroDesiredVelocity):
            safe_velocity(np.zeros(3), 0.0, np.zeros(3), cset, TABLE)

    def test_deviation_prefers_command_direction(self):
        # equal-norm gradients tilted against the command deviate the
        # command mostly along itself: the tilt ratio is amplified by
        # the anisotropy factor
        plane_mixed = GeofencePlane([3000.0 / math.sqrt(2), 3000.0 / math.sqrt(2), 0.0], [-1.0, -1.0, 0.0], 0.0)
        cset = ConstraintSet([plane_mixed], kappa=0.007)
        v_d = np.array([0.0, 200.0, 0.0])
        out = safe_velocity(np.zeros(3), 0.0, v_d, cset, TABLE)
        dv = out.u - v_d
        along = abs(dv[1])
        across = abs(dv[0])
        g_ratio = 1.0  # gradient has equal components
        assert along / across == pytest.approx(TABLE.Gamma_v * g_ratio, rel=1e-9)

    def test_sampled_smoothness_across_activation(self):
        plane = GeofencePlane([0.0, 3000.0, 0.0], [0.0, -1.0, 0.0], 15.0)
        cset = ConstraintSet([plane], kappa=0.007)
        prev = None
        for e_pos in np.linspace(0.0, 2900.0, 500):
            r = np.array([0.0, float(e_pos), 0.0])
            out = safe_velocity(r, 0.0, np.array([0.0, 180.0, 0.0]), cset, TABLE)
            if prev is not None:
                assert np.linalg.norm(np.subtract(out.u, prev)) < 0.5
            prev = out.u


class TestMonitor:
    def test_perfect_tracking_identity(self):
        assert h_V(0.0, 123.4, TABLE, lam=0.2) == 123.4

    def test_never_exceeds_position_barrier(self, rng):
        for _ in range(1000):
            hp = float(rng.uniform(-100, 3000))
            V = float(rng.uniform(0, 500))
            assert h_V(V, hp, TABLE, lam=0.2) <= hp

    def test_scaling_constant(self):
        # 2 sigma (lam - gamma_p) = 0.6 with the bundled numbers
        assert h_V(0.6, 10.0, TABLE, lam=0.2) == pytest.approx(9.0, rel=1e-14)

    def test_gain_ordering_enforced(self):
        with pytest.raises(InvalidGainOrdering):
            h_V(1.0, 10.0, TABLE, lam=0.05)
