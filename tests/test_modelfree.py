import math

import numpy as np
import pytest

import dual_formulas as df
import dualnum as dm
from conftest import frame_at, random_constraint_set, safe_velocity
from fwrta.constraints import ConstraintSet, GeofencePlane, MovingObstacle, compose_h_p
from fwrta.errors import InvalidGainOrdering, ZeroDesiredVelocity
from fwrta.modelfree import ModelFreeParams, _filter0, filter_jet, h_V

TABLE = ModelFreeParams(gamma_p=0.1, sigma=3.0, Gamma_v=4.0, nu_v=0.007)


def weight_matrix(v_d, Gamma_v):
    """The velocity weight as a matrix, one applied unit vector per column."""
    return np.column_stack([df._wv_apply(np.asarray(v_d, dtype=float), Gamma_v, e) for e in np.eye(3)])


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
            pos = compose_h_p(frame_at(r, t), cset)
            grad = np.array(pos.gradient_r)
            rate = float(grad @ out.u) + pos.dt_partial
            slack = rate + TABLE.gamma_p * pos.value - TABLE.sigma * float(grad @ grad)
            assert slack >= -1e-9 * max(1.0, abs(out.a))
            assert out.slack == pytest.approx(slack, rel=1e-9, abs=1e-9)

    def test_planar_problem_keeps_zero_down_component(self, rng):
        # planar obstacle, planar fences, planar desired velocity: the
        # filtered velocity has exactly zero down component
        obs = MovingObstacle([-3048.0, 0.0, 0.0], [121.92, 161.32, 0.0], 30.0)
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


def _random_filter_jets(rng, p, zero_row=False):
    """Float jets of ``(v_d, h, grad, dtp)`` along a line, their first derivatives along a
    second direction, and the rate condition ``a`` at the line's origin, drawn from [-500, 500]."""
    u = [(rng.normal(size=3) * s).tolist() for s in (120.0, 10.0, 5.0)]
    g = [[0.0] * 3] * 3 if zero_row else [rng.normal(size=3).tolist(), *(rng.normal(size=(2, 3)) * 0.1).tolist()]
    d = (rng.normal(size=3) * 50.0).tolist()
    a = float(rng.uniform(-500.0, 500.0))
    h0 = (a - float(np.dot(g[0], u[0])) - d[0] + p.sigma * float(np.dot(g[0], g[0]))) / p.gamma_p
    h = [h0, *(rng.normal(size=2) * 20.0).tolist()]
    g_o = [0.0] * 3 if zero_row else (rng.normal(size=3) * 0.1).tolist()
    tangents = [(rng.normal(size=3) * 5.0).tolist(), float(rng.normal()) * 10.0, g_o, float(rng.normal()) * 10.0]
    return (u, h, g, d), tangents, a


def _curve_jets(jets, tangents):
    """The jets up to the first order and their second orders along the curve whose
    second derivative adds the second direction: ``x'' + tangent``."""
    first = [jet[:2] for jet in jets]
    return first, [(np.asarray(jet[2]) + tangent).tolist() for jet, tangent in zip(jets, tangents)]


def _filter_oracle(jets, tangents, p):
    """``v_s`` of ``dual_formulas.filter_core`` as a curvature ``Dual``: seed 0 is the jets'
    line (first and second order), seed 1 the direction of ``tangents``."""
    duals = []
    for jet, tangent in zip(jets, tangents):
        x0, x1, x2 = (np.asarray(x, dtype=float) for x in jet)
        e = np.stack([x1, np.asarray(tangent, dtype=float)], axis=-1)
        duals.append(dm.Dual(x0 if x0.ndim else float(x0), e, np.stack([x2, np.zeros_like(x2)], axis=-1)))
    u, h, g, d = duals
    return df.filter_core(h, g, d, u, p)[0]


@pytest.mark.parametrize("Gamma_v", [0.25, 1.0, 4.0], ids=["c-above-1", "c-1", "c-below-1"])
def test_filter_jet_matches_terms_and_dual_oracle(rng, Gamma_v):
    # c = 1/Gamma_v on either side of 1 and at 1, in both softplus branches:
    # the value is the zeroth order's the jet extends; the first order and the
    # deferred second order along the curve against the curvature Dual of
    # dual_formulas.filter_core, h[:, 0] + e[:, 1:] @ [1]
    p = ModelFreeParams(gamma_p=0.1, sigma=3.0, Gamma_v=Gamma_v, nu_v=0.007)
    seen = {True: 0, False: 0}
    for _ in range(60):
        jets, tangents, a = _random_filter_jets(rng, p)
        seen[a < 0.0] += 1
        (u, h, g, d), second_orders = _curve_jets(jets, tangents)
        zeroth = _filter0(h[0], g[0], d[0], u[0], p)
        v_s, second = filter_jet(zeroth, u, h, g, d, p)
        assert v_s[0] is zeroth[0].u
        ref = _filter_oracle(jets, tangents, p)
        got = (v_s[1], second(*second_orders))
        for part, x, y in zip(("first", "second"), got, (ref.e[:, 0], ref.h[:, 0] + ref.e[:, 1:] @ [1.0])):
            assert np.linalg.norm(np.subtract(x, y)) <= 1e-9 * np.linalg.norm(y), part
    assert min(seen.values()) >= 15


@pytest.mark.parametrize("Gamma_v", [0.25, 1.0, 4.0], ids=["c-above-1", "c-1", "c-below-1"])
def test_filter_jet_zero_row_returns_the_desired_jet(rng, Gamma_v):
    # grad = 0 along the whole curve: no row, v_s is v_d's own jet and the
    # deferred second order is v_d's
    p = ModelFreeParams(gamma_p=0.1, sigma=3.0, Gamma_v=Gamma_v, nu_v=0.007)
    for _ in range(10):
        jets, tangents, _ = _random_filter_jets(rng, p, zero_row=True)
        (u, h, g, d), second_orders = _curve_jets(jets, tangents)
        zeroth = _filter0(h[0], g[0], d[0], u[0], p)
        v_s, second = filter_jet(zeroth, u, h, g, d, p)
        assert v_s is u
        assert second(*second_orders) == second_orders[0]
        assert zeroth[0].u == u[0]
        ref = _filter_oracle(jets, tangents, p)
        np.testing.assert_array_equal(ref.v, u[0])
        np.testing.assert_array_equal(ref.h[:, 0] + ref.e[:, 1:] @ [1.0], second_orders[0])


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
