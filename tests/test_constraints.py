import dataclasses
import math

import numpy as np
import pytest

import dual_formulas as df
import dualnum as dm
from conftest import AcceleratingObstacle, frame_at, jets_at, random_constraint_set, seed_line
from fwrta.constraints import (
    ZERO3,
    BarrierEval,
    ConstraintSet,
    GeofencePlane,
    MovingObstacle,
    compose_h_p,
    compose_jets,
    h_geofence,
    member_jet1,
    softmin_weights,
)
from fwrta.errors import CoincidentPosition
from fwrta.extended import compose_extended_terms, member_extended_terms
from fwrta.tracking import GoalTrajectory

TABLE_OBSTACLE = MovingObstacle([-3048.0, 0.0, 0.0], [121.92, 161.32, 0.0], 30.0)
TABLE_PLANE_2 = GeofencePlane([0.0, 11901.0, 0.0], [-4.0, -1.0, 0.0], 15.0)


def member_value(r, t, member):
    return member_jet1(r, t, ZERO3, member)[0][0]


def member_rate(r, t, v, member):
    """Rate of the member's value along velocity ``v``: ``n . v + dt``."""
    _, (n, _), (dt, _), _ = member_jet1(r, t, ZERO3, member)
    return float(np.dot(n, v)) + dt


class TestCollision:
    def test_table_values_at_origin(self):
        assert member_value(np.zeros(3), 0.0, TABLE_OBSTACLE) == pytest.approx(3018.0, abs=1e-9)

    def test_on_sphere_boundary(self):
        r = np.array([-3048.0 + 30.0, 0.0, 0.0])
        assert member_value(r, 0.0, TABLE_OBSTACLE) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPosition):
            member_jet1(np.array([-3048.0, 0.0, 0.0]), 0.0, ZERO3, TABLE_OBSTACLE)

    def test_rate_zero_relative_velocity(self):
        v_i = np.array([121.92, 161.32, 0.0])
        assert member_rate(np.zeros(3), 0.0, v_i, TABLE_OBSTACLE) == pytest.approx(0.0, abs=1e-12)

    def test_rate_projection_identity(self, rng):
        for _ in range(50):
            r = rng.uniform(-1000, 1000, size=3)
            t = float(rng.uniform(0, 10))
            n = np.array(member_jet1(r, t, ZERO3, TABLE_OBSTACLE)[1][0])
            s = float(rng.uniform(-50, 50))
            v = TABLE_OBSTACLE.trajectory(t)[1] + s * n
            assert member_rate(r, t, v, TABLE_OBSTACLE) == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_rate_matches_finite_difference(self, rng):
        for _ in range(50):
            r0 = rng.uniform(-2000, 2000, size=3)
            v = rng.uniform(-100, 100, size=3)
            t0 = float(rng.uniform(0, 10))
            got = member_rate(r0, t0, v, TABLE_OBSTACLE)
            h = 1e-4
            fd = (
                member_value(r0 + v * h, t0 + h, TABLE_OBSTACLE)
                - member_value(r0 - v * h, t0 - h, TABLE_OBSTACLE)
            ) / (2 * h)
            assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestGeofence:
    def test_table_plane_value(self):
        expected = 11901.0 / math.sqrt(17.0) - 15.0
        assert h_geofence(np.zeros(3), TABLE_PLANE_2) == pytest.approx(expected, rel=1e-14)

    def test_boundary(self):
        plane = TABLE_PLANE_2
        r = np.asarray(plane.point) + plane.rho * np.asarray(plane.normal)
        assert h_geofence(r, plane) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_velocity(self, rng):
        n = np.asarray(TABLE_PLANE_2.normal)
        for _ in range(20):
            v = rng.normal(size=3)
            v -= n * (n @ v)
            assert member_rate(np.zeros(3), 0.0, v, TABLE_PLANE_2) == pytest.approx(0.0, abs=1e-12)

    def test_normal_is_normalized(self):
        p = GeofencePlane([0, 0, 0], [3.0, 0.0, 4.0], 1.0)
        assert np.linalg.norm(p.normal) == pytest.approx(1.0, abs=1e-15)


class TestSoftmin:
    def test_single_element_identity(self):
        assert softmin_weights([4.25], 0.007)[0] == 4.25

    def test_two_equal_values(self):
        c, kappa = 3.7, 0.11
        assert softmin_weights([c, c], kappa)[0] == pytest.approx(c - math.log(2.0) / kappa, rel=1e-14)

    def test_bounds_property(self, rng):
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            vals = rng.uniform(-500, 3000, size=n)
            kappa = float(rng.uniform(0.002, 2.0))
            sm = softmin_weights(list(vals), kappa)[0]
            assert sm <= vals.min() + 1e-12
            assert sm >= vals.min() - math.log(n) / kappa - 1e-12

    def test_sharpness_limit(self, rng):
        for n in (2, 4, 16):
            vals = rng.uniform(-10, 10, size=n)
            err = vals.min() - softmin_weights(list(vals), 1e3)[0]
            assert 0.0 <= err <= math.log(16) / 1e3 + 1e-12

    def test_no_overflow_for_extreme_inputs(self):
        out = softmin_weights([1e6, -1e6], 5.0)[0]
        assert math.isfinite(out)
        assert out == pytest.approx(-1e6, abs=1e-9)

    def test_weights_sum_to_one(self, rng):
        for _ in range(200):
            vals = list(rng.uniform(-100, 100, size=int(rng.integers(1, 7))))
            kappa = float(rng.uniform(0.01, 1.0))
            h, w = softmin_weights(vals, kappa)
            assert sum(w) == pytest.approx(1.0, abs=1e-12)
            assert all(x >= 0.0 for x in w)
            # the dual-generic reference on dual inputs: same value, gradient = weights
            E = np.eye(len(vals))
            hd = df.softmin([dm.Dual(v, E[i]) for i, v in enumerate(vals)], kappa)
            assert hd.v == h
            np.testing.assert_allclose(hd.e, w, rtol=1e-12, atol=1e-12)

    def test_matches_direct_formula(self, rng):
        for _ in range(300):
            vals = rng.uniform(-2000, 2000, size=int(rng.integers(1, 8)))
            kappa = float(rng.uniform(0.005, 1.0))
            h, w = softmin_weights(vals, kappa)
            ref = -np.log(np.sum(np.exp(-kappa * (vals - vals.min())))) / kappa + vals.min()
            assert h == pytest.approx(ref, rel=1e-12)
            assert sum(w) == pytest.approx(1.0, abs=1e-12)


class TestCompose:
    def test_single_member_identity(self):
        cset = ConstraintSet([TABLE_PLANE_2], kappa=0.007)
        out = compose_h_p(frame_at(np.zeros(3), 0.0), cset)
        assert isinstance(out, BarrierEval)
        assert out.value == h_geofence(np.zeros(3), TABLE_PLANE_2)
        np.testing.assert_allclose(out.gradient_r, TABLE_PLANE_2.normal, atol=1e-15)
        assert out.weights == [1.0]

    def test_weights_sum(self, rng):
        for _ in range(100):
            r = rng.uniform(-500, 500, size=3)
            cset = random_constraint_set(rng, r)
            out = compose_h_p(frame_at(r, float(rng.uniform(0, 20))), cset)
            assert sum(out.weights) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(60):
            r = rng.uniform(-500, 500, size=3)
            t = float(rng.uniform(0, 20))
            cset = random_constraint_set(rng, r)
            out = compose_h_p(frame_at(r, t), cset)
            h = 1e-4
            for i in range(3):
                dr = np.zeros(3)
                dr[i] = h
                fd = (compose_h_p(frame_at(r + dr, t), cset).value
                      - compose_h_p(frame_at(r - dr, t), cset).value) / (2 * h)
                assert out.gradient_r[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
            fd_t = (compose_h_p(frame_at(r, t + h), cset).value - compose_h_p(frame_at(r, t - h), cset).value) / (2 * h)
            assert out.dt_partial == pytest.approx(fd_t, rel=1e-6, abs=1e-8)

    def test_geofence_only_time_invariant(self, rng):
        planes = [
            GeofencePlane(rng.uniform(-100, 100, size=3), rng.normal(size=3), 5.0) for _ in range(3)
        ]
        cset = ConstraintSet(planes, kappa=0.01)
        out = compose_h_p(frame_at(np.array([4000.0, 0.0, 0.0]), 3.0), cset)
        assert out.dt_partial == 0.0

    def test_propagates_coincident(self):
        cset = ConstraintSet([TABLE_OBSTACLE, TABLE_PLANE_2], kappa=0.007)
        with pytest.raises(CoincidentPosition):
            compose_h_p(frame_at(np.array([-3048.0, 0.0, 0.0]), 0.0), cset)


def _member_ahead(rng, kind, r, t):
    """An accelerating obstacle or a plane 5-150 m from ``r`` at time ``t``, so every softmin weight counts."""
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    gap = rng.uniform(5.0, 150.0)
    if kind == "plane":
        return GeofencePlane(r + n * (gap + 10.0), -n, 10.0)
    c, v, a = r + n * (gap + 30.0), rng.uniform(-100.0, 100.0, 3), rng.uniform(-8.0, 8.0, 3)
    return AcceleratingObstacle(c, t, v, a, 30.0)


def _curve_orders(x, r2):
    """First derivative along seed 0 of a :func:`~conftest.seed_line` result and its second
    along the curve ``(r + tau v + tau^2 r2 / 2, t + tau)``; zeros for a constant."""
    if not isinstance(x, dm.Dual):
        return np.zeros(np.shape(x)), np.zeros(np.shape(x))
    return x.e[..., 0], x.h[..., 0] + x.e[..., 1:] @ r2


MEMBER_KINDS = pytest.mark.parametrize(
    "kinds",
    [("obstacle",), ("plane",), ("obstacle", "plane"), ("plane", "obstacle", "plane"),
     ("obstacle", "obstacle", "plane"), ("plane", "obstacle", "plane", "obstacle")],
    ids=["1-obstacle", "1-plane", "2", "3-one-obstacle", "3-two-obstacles", "4"],
)


@MEMBER_KINDS
def test_compose_jets_match_dual_oracle(rng, kinds):
    # the summed jets against the curvature Dual along w = (v, 1) and its
    # r-Jacobian: the first order is e[..., 0], the deferred second order along
    # the curve (r + tau v + tau^2 r2 / 2, t + tau) is h[..., 0] + e[..., 1:] @ r2;
    # the zeroth orders are compose_h_p's composition, which the jets extend, its
    # member jets replaced by those along v
    for _ in range(25):
        r, v, t = rng.uniform(-500.0, 500.0, 3), rng.uniform(-150.0, 150.0, 3), float(rng.uniform(0.0, 10.0))
        cset = ConstraintSet([_member_ahead(rng, k, r, t) for k in kinds], float(rng.uniform(0.004, 0.05)))
        pos = compose_h_p(frame_at(r.tolist(), t), cset)
        h, g, d, second = compose_jets(dataclasses.replace(pos, jets=jets_at(r.tolist(), t, v.tolist(), cset)))
        assert h[0] is pos.value and g[0] is pos.gradient_r and d[0] is pos.dt_partial
        r2 = rng.normal(size=3) * 20.0
        ref = df.compose_terms(*seed_line(r, t, v), cset)[:3]
        for name, jet, jet2, dual in zip(("h", "grad", "dtp"), (h, g, d), second(r2.tolist()), ref):
            for part, x, y in zip(("first", "second"), (jet[1], jet2), _curve_orders(dual, r2)):
                assert np.linalg.norm(np.subtract(x, y)) <= 1e-9 * np.linalg.norm(y), (name, part)
        assert len(kinds) == 1 or max(pos.weights) < 1.0 - 1e-6  # no member dominates to rounding


def _column_sums(terms, kappa):
    """Softmin of the members' values with each other column of ``terms`` weight-summed
    from ``w[0] * col[0]`` in member order: the column-by-column composition the
    one-walk compositions replace, the reference for their float operation order."""
    if len(terms) == 1:
        return (*terms[0], [terms[0][0]], [1.0])
    cols = list(zip(*terms))
    per = list(cols[0])
    h, w = softmin_weights(per, kappa)
    out = [h]
    for col in cols[1:]:
        acc = w[0] * col[0]
        for i in range(1, len(per)):
            acc = acc + w[i] * col[i]
        out.append(acc)
    return (*out, per, w)


@MEMBER_KINDS
def test_compositions_match_column_sums_bit_for_bit(rng, kinds):
    # the member sets of test_compose_jets_match_dual_oracle, drawn in the same order;
    # each walk keeps the float operations of the column sums, so == holds
    for _ in range(25):
        r, v, t = rng.uniform(-500.0, 500.0, 3), rng.uniform(-150.0, 150.0, 3), float(rng.uniform(0.0, 10.0))
        cset = ConstraintSet([_member_ahead(rng, k, r, t) for k in kinds], float(rng.uniform(0.004, 0.05)))
        gamma_p = float(rng.uniform(0.5, 5.0))
        ctx = frame_at(r.tolist(), t)
        pos = compose_h_p(ctx, cset)
        zeroth = [[jh[0], *jn[0], jd[0]] for jh, jn, jd, _ in pos.jets]
        h, *grad, dtp, per, w = _column_sums(zeroth, cset.kappa)
        assert pos.value == h and pos.gradient_r == grad and pos.dt_partial == dtp
        assert pos.per_constraint == per and pos.weights == w
        # next to the member jets at the frame it composes, and the sharpness
        assert pos.jets == jets_at(ctx.r, t, ctx.v, cset) and pos.kappa == cset.kappa
        jets = jets_at(r.tolist(), t, v.tolist(), cset)
        terms = [member_extended_terms(j, v.tolist(), gamma_p) for j in jets]
        h, D, *gv, per, w = _column_sums(terms, cset.kappa)
        assert compose_extended_terms(jets, v.tolist(), cset.kappa, gamma_p) == (h, D, gv, per, w, terms)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MovingObstacle([0.0, 0.0, 0.0, 5.0], [1.0, 0.0, 0.0], 10.0),
        lambda: MovingObstacle([0.0, 0.0, 0.0], [1.0, 0.0], 10.0),
        lambda: MovingObstacle([0.0, math.nan, 0.0], [1.0, 0.0, 0.0], 10.0),
        lambda: GoalTrajectory([150.0, 0.0, 0.0, 1.0]),
        lambda: GoalTrajectory([150.0, 0.0, 0.0], [0.0, math.inf, 0.0]),
        lambda: GeofencePlane([0.0, 0.0, 0.0, 5.0], [1.0, 0.0, 0.0, 9.0], 10.0),
        lambda: GeofencePlane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 9.0], 10.0),
        lambda: GeofencePlane([math.inf, 0.0, 0.0], [1.0, 0.0, 0.0], 10.0),
        lambda: GeofencePlane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], math.nan),
        lambda: GeofencePlane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], math.inf),
        lambda: MovingObstacle([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], math.inf),
        lambda: ConstraintSet([GeofencePlane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 10.0)], kappa=math.inf),
    ],
    ids=["obstacle-center-4", "obstacle-velocity-2", "obstacle-center-nan", "goal-velocity-4", "goal-start-inf",
         "plane-4", "plane-normal-4", "plane-point-inf", "plane-margin-nan", "plane-margin-inf",
         "obstacle-radius-inf", "kappa-inf"],
)
def test_geometry_rejects_bad_vectors(build):
    # three finite entries per vector, a finite margin, radius and kappa, or a ValueError
    with pytest.raises(ValueError):
        build()


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        ConstraintSet([], kappa=0.007)
    with pytest.raises(ValueError):
        ConstraintSet([TABLE_PLANE_2], kappa=0.0)
    with pytest.raises(ValueError):
        MovingObstacle([0, 0, 0], [1, 1, 1], rho=-2.0)
    with pytest.raises(ValueError):
        GeofencePlane([0, 0, 0], [0.0, 0.0, 0.0], 1.0)
