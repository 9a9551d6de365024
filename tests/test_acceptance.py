"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Scenario runs are shared module fixtures; run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines as they pass.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import certificate_duals, random_constraint_set, random_state
from fwrta import dual as dm
from fwrta.constraints import compose_h_p, compose_terms, softmin
from fwrta.export import csv_header, write_csv
from fwrta.extended import compose_extended_terms
from fwrta.backstepping import BacksteppingParams, grad_h_b, h_b
from fwrta.filters import ClassKappaLinear, WeightFactor, apply_filter
from fwrta.model import AircraftState, GravityParam, velocity
from fwrta.modelfree import ModelFreeParams, safe_velocity, safe_velocity_terms
from fwrta.scenario import load_scenario
from fwrta.simulate import integrate, integrate_stage_controlled, metrics_from_log
from fwrta.tracking import (
    GoalCommand,
    GoalTrajectory,
    SafeVelocityCommand,
    TrackingParams,
    desired_velocity,
    solve_roll_qp,
    track,
)

TOL_BARRIER = 1e-3
G = GravityParam()


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    return ok


@pytest.fixture(scope="module")
def fig3_run():
    scn = load_scenario("fig3")
    log = integrate(scn)
    return scn, log, metrics_from_log(log, scn)


@pytest.fixture(scope="module")
def fig4_run():
    scn = load_scenario("fig4")
    log = integrate(scn)
    return scn, log, metrics_from_log(log, scn)


@pytest.fixture(scope="module")
def fig5_run():
    scn = load_scenario("fig5")
    log = integrate(scn)
    return scn, log, metrics_from_log(log, scn)


@pytest.fixture(scope="module")
def fig6_run():
    scn = load_scenario("fig6")
    log = integrate(scn)
    return scn, log, metrics_from_log(log, scn)


def test_criterion_1_extended_collision_avoidance(fig3_run):
    scn, log, met = fig3_run
    ok = (
        log.abort is None
        and met.min_h_p >= -TOL_BARRIER
        and met.min_h_mode >= -TOL_BARRIER
        and met.p_dev_bit_exact
        and met.warning_count == 0
    )
    report(
        1,
        ok,
        f"min h_p = {met.min_h_p:.4g}, min h_e = {met.min_h_mode:.4g}, "
        f"P bit-exact = {met.p_dev_bit_exact}, warnings = {met.warning_count}",
    )
    assert ok


def test_criterion_2_extended_geofence_failure_mode(fig4_run):
    scn, log, met = fig4_run
    v_t = log.x[:, 6]
    tail = v_t[log.t >= log.t[-1] - 20.0]
    decreasing = bool(np.all(np.diff(tail) <= 1e-9))
    safe_end = log.abort is None or "SingularSpeed" in log.abort
    ok = (
        met.min_h_p >= -TOL_BARRIER
        and v_t[-1] < 20.0
        and decreasing
        and safe_end
        and met.p_dev_bit_exact
    )
    report(
        2,
        ok,
        f"min h_p = {met.min_h_p:.4g}, final V_T = {v_t[-1]:.3g} m/s "
        f"(decreasing tail = {decreasing}, end = {log.abort or 'horizon'})",
    )
    assert ok


def test_criterion_3_backstepping_combined(fig5_run):
    scn, log, met = fig5_run
    worst_member = min(met.min_h_members)
    roll_engaged = met.max_p_dev > 1e-6
    # barrier chain: the penalized barrier floor implies the extension floor
    h_e_min = math.inf
    for i in range(0, len(log.t), 5):
        st = AircraftState.from_array(log.x[i])
        h_e_min = min(
            h_e_min,
            float(
                compose_extended_terms(st.r, velocity(st), log.t[i], scn.cset, scn.backstep.gamma_p)[0]
            ),
        )
    ok = (
        log.abort is None
        and worst_member >= -TOL_BARRIER
        and met.min_h_mode >= -TOL_BARRIER
        and h_e_min >= -TOL_BARRIER
        and roll_engaged
        and met.warning_count == 0
    )
    report(
        3,
        ok,
        f"min member h = {worst_member:.4g}, min h_b = {met.min_h_mode:.4g}, "
        f"min h_e = {h_e_min:.4g}, max |P - P_d| = {met.max_p_dev:.4g}, "
        f"warnings = {met.warning_count}",
    )
    assert ok


def test_criterion_4_modelfree_combined(fig5_run, fig6_run):
    _, _, met5 = fig5_run
    scn, log, met = fig6_run
    ratios = {
        "A_T": met.max_abs_A_T / met5.max_abs_A_T,
        "P": met.max_abs_P / met5.max_abs_P,
        "Q": met.max_abs_Q / met5.max_abs_Q,
    }
    ok_barriers = (
        log.abort is None
        and met.min_h_p >= -TOL_BARRIER
        and log.h_mode[0] >= 0.0
        and met.min_h_mode >= -TOL_BARRIER
        and met.warning_count == 0
    )
    ok_ratio = max(ratios.values()) >= 1.0
    # The model-free filter adds no vertical term anywhere in the maneuver:
    # at the planar projection of every logged state the safe command is
    # exactly planar, and it differs from the desired velocity on every
    # intervening step, so the active branch is exercised. The flown path
    # itself leaves the plane through the turn-rate gap R - R_d while
    # banked (see README, "Known limitation"); its max |d| is reported only.
    vertical_steps = 0
    passive_steps = 0
    for k in range(len(log.t)):
        r = np.array([log.x[k, 0], log.x[k, 1], 0.0])
        v_d = desired_velocity(r, log.t[k], scn.goal, scn.tracking)
        v_s = safe_velocity(r, log.t[k], v_d, scn.cset, scn.mf).v_s
        vertical_steps += int(v_s[2] != 0.0)
        passive_steps += int(log.intervening[k] and np.array_equal(v_s, v_d))
    ok_planar = log.intervening.any() and vertical_steps == 0 and passive_steps == 0
    report(
        4,
        ok_barriers and ok_ratio and ok_planar,
        f"min h_p = {met.min_h_p:.4g}, min h_V = {met.min_h_mode:.4g}, "
        f"input ratios vs backstepping = "
        f"A_T {ratios['A_T']:.2f}, P {ratios['P']:.2f}, Q {ratios['Q']:.2f}, "
        f"safe command v_s[2] != 0 on {vertical_steps} of {len(log.t)} steps, "
        f"v_s == v_d on {passive_steps} of {int(log.intervening.sum())} intervening steps, "
        f"flown max |d| = {met.max_abs_d:.3g} m (measured, not bounded)",
    )
    assert ok_barriers
    assert ok_ratio
    assert ok_planar


def _projection_oracle(u_d, a, b_raw, W):
    if a >= 0.0 or not np.any(b_raw):
        return u_d.copy()
    W_inv = np.linalg.inv(W)
    Gamma = W_inv.T @ W_inv
    Gamma_inv = np.linalg.inv(Gamma)
    return u_d + Gamma_inv @ b_raw * (-a / float(b_raw @ Gamma_inv @ b_raw))


def test_criterion_5_filter_oracle_equivalence(rng):
    worst_f = 0.0
    for _ in range(10_000):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        W = q @ np.diag(rng.uniform(0.3, 3.0, size=3)) @ q.T
        u_d = rng.normal(size=3) * 3
        a = float(rng.uniform(-30, 30))
        b_raw = rng.normal(size=3) * rng.choice([0.0, 0.3, 1.0, 5.0])
        got = apply_filter(u_d, a, b_raw, WeightFactor(W)).u
        ref = _projection_oracle(u_d, a, b_raw, W)
        worst_f = max(worst_f, float(np.abs(got - ref).max()))
    worst_p = 0.0
    for _ in range(10_000):
        a = float(rng.uniform(-20, 20))
        b = float(rng.uniform(-5, 5)) * float(rng.choice([0.0, 1.0]))
        ref = 0.0 if (b == 0.0 or a <= 0.0) else -a / b
        worst_p = max(worst_p, abs(solve_roll_qp(a, b) - ref))
    ok = worst_f <= 1e-9 and worst_p <= 1e-12
    report(5, ok, f"filter vs projection oracle: {worst_f:.3g} (<=1e-9); "
                  f"roll closed form vs 1-D oracle: {worst_p:.3g} (<=1e-12)")
    assert ok


def test_criterion_6_softmin_bounds(rng):
    worst_hi = -math.inf
    worst_lo = -math.inf
    for _ in range(10_000):
        n = int(rng.integers(1, 12))
        vals = rng.uniform(-2000, 4000, size=n)
        kappa = float(rng.uniform(0.002, 3.0))
        sm = softmin(list(vals), kappa)
        worst_hi = max(worst_hi, sm - vals.min())
        worst_lo = max(worst_lo, (vals.min() - math.log(n) / kappa) - sm)
    ok = worst_hi <= 1e-12 and worst_lo <= 1e-12
    report(6, ok, f"softmin bound slacks: upper {worst_hi:.3g}, lower {worst_lo:.3g} (<=1e-12)")
    assert ok


def _backstep_params():
    return BacksteppingParams(
        gamma_p=0.1,
        alpha_e=ClassKappaLinear(0.1),
        W_e=WeightFactor(np.eye(3)),
        nu_e=1.0,
        mu_e=1e-4,
        alpha=ClassKappaLinear(0.1),
        W=WeightFactor.diagonal([6.0, 0.6, 0.1]),
    )


def _a_e_of(st, cset, p):
    v = velocity(st)
    h, gr, gv, dt, _, _ = compose_extended_terms(st.r, v, 0.0, cset, p.gamma_p)
    return float(gr @ v) + dt + p.alpha_e(h)


def _stratified_states(rng, n, p):
    """Random valid states with ~1/4 driven near the activation boundary."""
    cases = []
    target_near = n // 4
    near = 0
    while len(cases) < n:
        st = random_state(rng, theta_max=1.0, phi_max=1.2)
        cset = random_constraint_set(rng, st.r)
        if near < target_near:
            lo, hi = 50.0, 300.0
            a_lo = _a_e_of(dataclasses.replace(st, V_T=lo), cset, p)
            a_hi = _a_e_of(dataclasses.replace(st, V_T=hi), cset, p)
            if a_lo * a_hi < 0.0:
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    a_mid = _a_e_of(dataclasses.replace(st, V_T=mid), cset, p)
                    if a_lo * a_mid <= 0.0:
                        hi = mid
                    else:
                        lo, a_lo = mid, a_mid
                st = dataclasses.replace(st, V_T=0.5 * (lo + hi))
                if abs(_a_e_of(st, cset, p)) < 0.1:
                    near += 1
                    cases.append((st, cset))
                    continue
        cases.append((st, cset))
    return cases


def _rel_err(ad, fd, floor=0.1):
    ad = np.atleast_1d(np.asarray(ad, dtype=float))
    fd = np.atleast_1d(np.asarray(fd, dtype=float))
    return float(np.linalg.norm(ad - fd) / max(np.linalg.norm(fd), floor))


def test_criterion_7_gradient_certification(rng):
    p = _backstep_params()
    mf = ModelFreeParams(0.1, 3.0, 4.0, 0.007)
    tp = TrackingParams.from_scalars(0.05, 0.3, 1e-5, 0.2)
    goal = GoalTrajectory.linear([0.0, 161.32, 0.0])
    cases = _stratified_states(rng, 100, p)
    h_fd = 1e-5
    worst = {"h_p": 0.0, "h_e": 0.0, "h_b": 0.0, "v_s": 0.0, "V": 0.0}

    for st, cset in cases:
        r0, t0 = st.r, 1.0

        # position barrier over (r, t)
        rd, td = dm.seed_pos_time(r0, t0)
        hp_d = compose_terms(rd, td, cset)[0]
        fd = np.zeros(4)
        for k in range(4):
            z = np.append(r0, t0)
            zp, zm = z.copy(), z.copy()
            zp[k] += h_fd
            zm[k] -= h_fd
            fd[k] = (
                compose_h_p(zp[:3], zp[3], cset).value - compose_h_p(zm[:3], zm[3], cset).value
            ) / (2 * h_fd)
        worst["h_p"] = max(worst["h_p"], _rel_err(hp_d.e, fd))

        # extended barrier over (r, v, t)
        v0 = velocity(st)
        E7 = np.eye(7)
        he_d = compose_extended_terms(
            dm.Dual(r0.copy(), E7[:3].copy()),
            dm.Dual(v0.copy(), E7[3:6].copy()),
            dm.Dual(t0, E7[6]),
            cset,
            p.gamma_p,
        )[0]
        fd7 = np.zeros(7)
        for k in range(7):
            z = np.concatenate([r0, v0, [t0]])
            zp, zm = z.copy(), z.copy()
            zp[k] += h_fd
            zm[k] -= h_fd
            fd7[k] = (
                float(compose_extended_terms(zp[:3], zp[3:6], zp[6], cset, p.gamma_p)[0])
                - float(compose_extended_terms(zm[:3], zm[3:6], zm[6], cset, p.gamma_p)[0])
            ) / (2 * h_fd)
        worst["h_e"] = max(worst["h_e"], _rel_err(he_d.e, fd7))

        # penalized barrier over (x, t)
        dhdx, dhdt = grad_h_b(st, t0, cset, p, G)
        fd8 = np.zeros(8)
        x0 = st.as_array()
        for k in range(8):
            if k < 7:
                xp, xm = x0.copy(), x0.copy()
                xp[k] += h_fd
                xm[k] -= h_fd
                fd8[k] = (
                    h_b(AircraftState.from_array(xp), t0, cset, p, G)
                    - h_b(AircraftState.from_array(xm), t0, cset, p, G)
                ) / (2 * h_fd)
            else:
                fd8[k] = (h_b(st, t0 + h_fd, cset, p, G) - h_b(st, t0 - h_fd, cset, p, G)) / (2 * h_fd)
        worst["h_b"] = max(worst["h_b"], _rel_err(np.append(dhdx, dhdt), fd8))

        # safe velocity Jacobian over (r, t)
        r1, t1 = dm.seed_pos_time(r0, t0)
        r_g = dm.lift_path(goal.position(t0), goal.velocity(t0), goal.accel(t0), t1)
        v_g = dm.lift_path(goal.velocity(t0), goal.accel(t0), np.zeros(3), t1)
        v_d1 = v_g + dm.matvec(tp.K_r, r_g - r1)
        vs_d = safe_velocity_terms(r1, t1, v_d1, cset, mf)[0]
        fd_j = np.zeros((3, 4))
        for k in range(4):
            z = np.append(r0, t0)
            zp, zm = z.copy(), z.copy()
            zp[k] += h_fd
            zm[k] -= h_fd
            vp = safe_velocity(zp[:3], zp[3], desired_velocity(zp[:3], zp[3], goal, tp), cset, mf).v_s
            vm = safe_velocity(zm[:3], zm[3], desired_velocity(zm[:3], zm[3], goal, tp), cset, mf).v_s
            fd_j[:, k] = (vp - vm) / (2 * h_fd)
        worst["v_s"] = max(worst["v_s"], _rel_err(vs_d.e, fd_j))

        # tracking certificate over (x, t)
        cmd = GoalCommand(goal, tp)
        e_v, _, _, R_d, R = certificate_duals(cmd, st, t0, tp, G)
        gap = R - R_d
        V_dual = dm.dot(e_v, e_v) * 0.5 + gap * gap * (0.5 / tp.mu)
        fdV = np.zeros(8)
        for k in range(8):
            if k < 7:
                xp, xm = x0.copy(), x0.copy()
                xp[k] += h_fd
                xm[k] -= h_fd
                fdV[k] = (
                    track(AircraftState.from_array(xp), t0, cmd, tp, G).V
                    - track(AircraftState.from_array(xm), t0, cmd, tp, G).V
                ) / (2 * h_fd)
            else:
                fdV[k] = (track(st, t0 + h_fd, cmd, tp, G).V - track(st, t0 - h_fd, cmd, tp, G).V) / (2 * h_fd)
        worst["V"] = max(worst["V"], _rel_err(V_dual.e, fdV, floor=1.0))

    ok = all(v <= 1e-5 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report(7, ok, f"worst dual-vs-FD relative errors over 100 stratified states: {detail} (<=1e-5)")
    assert ok


def _clf_series(scn, log, cmd):
    return np.array(
        [
            track(AircraftState.from_array(log.x[i]), log.t[i], cmd, scn.tracking, scn.gravity).V
            for i in range(len(log.t))
        ]
    )


def test_criterion_8_tracking_exponential_stability():
    scn = load_scenario("step_offset")
    log = integrate(scn)
    assert log.abort is None
    cmd = GoalCommand(scn.goal, scn.tracking)
    V = _clf_series(scn, log, cmd)
    lam = scn.tracking.lam
    resid = (V[1:] - V[:-1]) / scn.dt + lam * V[:-1]
    bound = 1e-3 * np.maximum(1.0, V[:-1])
    worst = float((resid - bound).max())
    env = 1.05 * V[0] * np.exp(-0.9 * lam * log.t)
    env_ok = bool(np.all(V <= env))
    ok = worst <= 0.0 and env_ok
    report(
        8,
        ok,
        f"V(0) = {V[0]:.3g}; worst residual excess = {worst:.3g} (<=0); "
        f"envelope V <= 1.05 V0 exp(-0.9 lam t): {env_ok}",
    )
    assert ok


def test_criterion_9_integrator_order():
    # roll-free vertical weave: the roll program stays on its constant
    # branch, so the closed loop is a smooth ODE and the stepper's order
    # is observable
    scn = load_scenario("step_offset")
    scn.x0 = AircraftState(0.0, 0.0, -120.0, 0.0, 0.0, 0.0, 120.0)
    w, amp = 0.9, 150.0
    scn.goal = GoalTrajectory(
        position=lambda t: np.array([120.0 * t, 0.0, amp * math.sin(w * t)]),
        velocity=lambda t: np.array([120.0, 0.0, amp * w * math.cos(w * t)]),
        accel=lambda t: np.array([0.0, 0.0, -amp * w * w * math.sin(w * t)]),
    )
    T = 4.0
    finals = {dt: integrate_stage_controlled(scn, dt, T) for dt in (0.02, 0.01, 0.005)}
    d1 = np.linalg.norm(finals[0.02] - finals[0.01])
    d2 = np.linalg.norm(finals[0.01] - finals[0.005])
    order = math.log2(d1 / d2)
    ok = order >= 3.5
    report(9, ok, f"observed convergence order = {order:.2f} (>=3.5) on a smooth tracking segment")
    assert ok


def test_invariant_filter_residuals(fig3_run, fig4_run, fig5_run):
    # achieved rate-plus-decay stays nonnegative at every control step
    for scn, log, _ in (fig3_run, fig4_run, fig5_run):
        assert float(log.residual.min()) >= -1e-6, scn.name


def test_invariant_modelfree_proof_chain(fig6_run):
    # discrete estimate of the monitor's decay condition
    scn, log, _ = fig6_run
    hv = log.h_mode
    resid = (hv[1:] - hv[:-1]) / scn.dt + scn.mf.gamma_p * hv[:-1]
    assert float(resid.min()) >= -1e-4


def test_invariant_clf_decrease_when_tracking(fig3_run, fig4_run, fig5_run, fig6_run):
    # certificate decay holds wherever the tracking controller is the
    # executed authority: non-intervening steps of the filtered runs,
    # and every step of the model-free run (dt^2-scaled tolerance there;
    # the turn-gap penalty is stiff at the bundled step size)
    for scn, log, _ in (fig3_run, fig4_run, fig5_run):
        cmd = GoalCommand(scn.goal, scn.tracking)
        V = _clf_series(scn, log, cmd)
        resid = (V[1:] - V[:-1]) / scn.dt + scn.tracking.lam * V[:-1]
        free = ~log.intervening[:-1] & ~log.intervening[1:]
        assert free.any()
        bound = 1e-3 * np.maximum(1.0, V[:-1])
        assert float((resid - bound)[free].max()) <= 0.0, scn.name

    scn, log, _ = fig6_run
    cmd = SafeVelocityCommand(scn.goal, scn.tracking, scn.cset, scn.mf)
    V = _clf_series(scn, log, cmd)
    resid = (V[1:] - V[:-1]) / scn.dt + scn.tracking.lam * V[:-1]
    bound = (scn.dt / 0.0025) ** 2 * 1e-3 * np.maximum(1.0, V[:-1])
    assert float((resid - bound).max()) <= 0.0


def test_criterion_10_determinism_and_format(tmp_path):
    paths = []
    for i in range(2):
        scn = load_scenario("fig3")
        scn.t_final = 15.0
        log = integrate(scn)
        paths.append(write_csv(log, tmp_path / f"run{i}.csv"))
    b0, b1 = paths[0].read_bytes(), paths[1].read_bytes()
    header = b0.decode().splitlines()[0]
    expected = csv_header(1)
    ok = b0 == b1 and header == expected
    report(
        10,
        ok,
        f"byte-identical repeated runs: {b0 == b1}; header matches contract: {header == expected}",
    )
    assert ok
