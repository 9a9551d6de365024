import copy
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from conftest import SafeCommand, composed, desired_velocity, safe_velocity, state_from_array, velocity
from fwrta import constraints, filters, kernels, modelfree, simulate, tracking
from fwrta.cli import SWEEP_FIELDS, main as cli_main
from fwrta.errors import FwrtaError, ScenarioError, SingularSpeed
from fwrta.export import _Panel, csv_header, write_csv, write_json, write_svg
from fwrta.backstepping import h_b, rta_backstepping
from fwrta.constraints import compose_h_p
from fwrta.extended import rta_extended
from fwrta.model import AircraftState, ControlInput, TrackContext
from fwrta.modelfree import h_V
from fwrta.scenario import bundled_scenario_path, load_scenario, scenario_from_dict
from fwrta.simulate import (
    evaluate_checks,
    integrate,
    make_controller,
    metrics_from_log,
    run_scenario,
    set_by_path,
    sweep,
)
from fwrta.tracking import GoalCommand, track

BASE = json.loads(bundled_scenario_path("step_offset").read_text())


def make_raw(**over):
    raw = copy.deepcopy(BASE)
    raw.update(over)
    return raw


class TestScenarioLoading:
    def test_bundled_names_load(self):
        for name in ("fig3", "fig4", "fig5", "fig6", "step_offset"):
            scn = load_scenario(name)
            assert scn.name == name
        # "seed" is not part of the schema: rejected like any unknown top-level key
        for seed in ("abc", None):
            with pytest.raises(ScenarioError, match="field 'seed' is not a known field"):
                scenario_from_dict(make_raw(seed=seed))

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6", "step_offset"])
    def test_constants_are_values(self, name):
        # two loads hold equal, equally hashed constants; one changed gain,
        # plane normal or obstacle velocity makes them differ
        a, b = load_scenario(name), load_scenario(name)
        for f in ("tracking", "cset", "goal", "extended", "backstep", "mf"):
            x, y = getattr(a, f), getattr(b, f)
            if x is not None:
                assert x is not y and x == y and hash(x) == hash(y), f
        raw = copy.deepcopy(a.raw)
        raw["tracking"]["K_r"] = [0.05, 0.05, 0.06]
        assert scenario_from_dict(raw).tracking != a.tracking
        for i, m in enumerate(a.raw["constraints"]["members"]):
            raw = copy.deepcopy(a.raw)
            key = "normal" if m["type"] == "plane" else "velocity"
            vec = raw["constraints"]["members"][i][key]
            # the smallest entry, so that a normal also turns
            vec[min(range(3), key=lambda k: abs(vec[k]))] += 0.01
            assert scenario_from_dict(raw).cset != a.cset, (i, key)

    def test_sections_of_other_modes_accepted(self):
        raw = make_raw(notes={"any": ["thing"]})
        for base, section in (("fig5", "extended"), ("fig5", "backstepping"), ("fig6", "modelfree")):
            raw[section] = json.loads(bundled_scenario_path(base).read_text())[section]
        raw["safety_filter"].update(mode="hard", nu=0.5)
        scn = scenario_from_dict(raw)
        assert scn.mode == "off" and scn.extended.nu is None and scn.mf is not None

    def test_missing_field_named(self):
        raw = make_raw()
        del raw["tracking"]["mu"]
        with pytest.raises(ScenarioError, match="tracking.mu"):
            scenario_from_dict(raw)

    def test_bad_member_type_named(self):
        raw = make_raw()
        raw["constraints"]["members"][0]["type"] = "wall"
        with pytest.raises(ScenarioError, match=r"members\[0\].type"):
            scenario_from_dict(raw)

    def test_wrong_schema_id(self):
        with pytest.raises(ScenarioError, match="schema"):
            scenario_from_dict(make_raw(schema="other/9"))

    def test_mode_requires_section(self):
        raw = make_raw(rta_mode="modelfree")
        with pytest.raises(ScenarioError, match="modelfree"):
            scenario_from_dict(raw)

    def test_unknown_check_rejected(self):
        raw = make_raw(checks={"min_h_p": 0.0, "bogus": 1})
        with pytest.raises(ScenarioError, match="checks.bogus"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("min_h_p", "x"),
            ("min_h_p", None),
            ("min_h_p", True),
            ("max_abs_down", float("nan")),
            ("max_final_pos_err", float("inf")),
            ("no_warnings", 1),
            ("p_transparent", "yes"),
            ("allow_abort", None),
        ],
    )
    def test_bad_check_value_rejected(self, key, value):
        raw = make_raw(checks={key: value})
        with pytest.raises(ScenarioError, match=f"checks.{key}"):
            scenario_from_dict(raw)

    def test_initial_barrier_violation_rejected(self):
        raw = make_raw()
        raw["constraints"]["members"] = [
            {"type": "plane", "point": [1000.0, 0.0, 0.0], "normal": [1.0, 0.0, 0.0], "margin": 0.0}
        ]
        with pytest.raises(ScenarioError, match="h_p"):
            scenario_from_dict(raw)

    def test_extended_start_outside_extension_rejected(self):
        raw = make_raw(rta_mode="extended")
        raw["extended"] = {"gamma_p": 0.1}
        # flying fast at a nearby fence: position barrier fine, extension negative
        raw["initial_state"] = {"n": 0.0, "e": 0.0, "d": 0.0, "phi": 0.0, "theta": 0.0,
                                "psi": 1.5707963267948966, "V_T": 200.0}
        raw["constraints"]["members"] = [
            {"type": "plane", "point": [0.0, 1000.0, 0.0], "normal": [0.0, -1.0, 0.0], "margin": 15.0}
        ]
        with pytest.raises(ScenarioError, match="h_e"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "base, plane_n, phi, message",
        [
            # h_e(0) = 5 passes; the banked start's turn-rate gap sinks h_b
            ("fig5", 20.0, 1.0, "initial state violates the penalized barrier: h_b(0) = -6.97155"),
            ("fig6", 200.0, 0.0, "initial state violates the monitor barrier: h_V(0) = -1425.82"),
        ],
    )
    def test_mode_barrier_violation_rejected(self, base, plane_n, phi, message, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path(base).read_text())
        plane = {"type": "plane", "point": [plane_n, 0.0, 0.0], "normal": [-1.0, 0.0, 0.0], "margin": 15.0}
        raw["constraints"]["members"] = [plane]
        raw["t_final"] = 0.05
        if base == "fig5":
            # wings level, the same start loads
            assert scenario_from_dict(raw).mode == "backstepping"
        raw["initial_state"]["phi"] = phi
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert str(exc.value) == message
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        assert cli_main(["check", "--scenario", str(src)]) == 2
        assert message in capsys.readouterr().err


class TestIntegrate:
    def test_level_flight_exact_translation(self):
        raw = make_raw(t_final=10.0, dt=0.01)
        raw["initial_state"] = {"n": 0.0, "e": 0.0, "d": 0.0, "phi": 0.0, "theta": 0.0,
                                "psi": 0.0, "V_T": 120.0}
        raw["goal"] = {"type": "linear", "v_g": [120.0, 0.0, 0.0], "r0": [0.0, 0.0, 0.0]}
        scn = scenario_from_dict(raw)
        log = integrate(scn)
        assert log.abort is None
        np.testing.assert_allclose(log.x[-1, :3], [1200.0, 0.0, 0.0], atol=1e-6)
        np.testing.assert_array_equal(log.u, log.u_d)

    def test_rows_cover_horizon_plus_final(self):
        scn = scenario_from_dict(make_raw(t_final=1.0, dt=0.01))
        log = integrate(scn)
        assert len(log.t) == 101
        assert log.t[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(np.diff(log.t), 0.01, rtol=1e-12)

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6", "step_offset", "aborted"])
    def test_time_column_is_k_dt(self, name):
        # t[k] is k * dt to the bit, on a full and on an aborted run
        if name == "aborted":
            # the speed floor's abort below
            raw = make_raw(t_final=30.0, dt=0.01)
            raw["initial_state"] = {"n": 0.0, "e": 0.0, "d": 0.0, "phi": 0.0, "theta": 0.0,
                                    "psi": 0.0, "V_T": 2.0}
            raw["goal"] = {"type": "linear", "v_g": [0.5, 0.0, 0.0], "r0": [0.0, 0.0, 0.0]}
        else:
            raw = {**load_scenario(name).raw, "t_final": 1.0}
        scn = scenario_from_dict(raw)
        log = integrate(scn)
        assert (log.abort is not None) == (name == "aborted")
        assert list(map(float.hex, log.t.tolist())) == [float.hex(k * scn.dt) for k in range(len(log.t))]

    def test_speed_floor_abort_partial_log(self):
        raw = make_raw(t_final=30.0, dt=0.01)
        raw["initial_state"] = {"n": 0.0, "e": 0.0, "d": 0.0, "phi": 0.0, "theta": 0.0,
                                "psi": 0.0, "V_T": 2.0}
        raw["goal"] = {"type": "linear", "v_g": [0.5, 0.0, 0.0], "r0": [0.0, 0.0, 0.0]}
        scn = scenario_from_dict(raw)
        log = integrate(scn)
        assert log.abort is not None and "SingularSpeed" in log.abort
        assert 0 < len(log.t) < 3001
        met = metrics_from_log(log, scn)
        assert met.aborted

    def test_programming_error_propagates(self, monkeypatch):
        # only package errors are numerical aborts; a bare ValueError from
        # the control law is a bug and must not be logged as an abort
        scn = scenario_from_dict(make_raw(t_final=1.0, dt=0.01))

        def broken_track(*args, **kwargs):
            raise ValueError("bug in the control law")

        monkeypatch.setattr(simulate, "track", broken_track)
        with pytest.raises(ValueError, match="bug in the control law"):
            integrate(scn)

    def test_non_finite_input_is_an_abort(self, monkeypatch):
        scn = scenario_from_dict(make_raw(t_final=1.0, dt=0.01))
        real_track = simulate.track

        def overflowing_track(state, t, *args, **kwargs):
            res = real_track(state, t, *args, **kwargs)
            if t > 0.5:
                res.u = ControlInput(float("inf"), 0.0, 0.0)
            return res

        monkeypatch.setattr(simulate, "track", overflowing_track)
        log = integrate(scn)
        assert log.abort is not None and log.abort.startswith("NonFiniteValue")
        assert 0 < len(log.t) < 101

    @pytest.mark.parametrize("name", ["fig3", "fig5"])
    def test_non_finite_filter_output_is_an_abort(self, name, monkeypatch):
        # the hard multiplier overflows after 50 calls: the filtered input's
        # ControlInput stops the run with a partial log
        scn = scenario_from_dict({**load_scenario(name).raw, "t_final": 1.0})
        real_lambda, calls = filters.lambda_hard, []

        def overflowing_lambda(a, b_norm):
            calls.append(a)
            return real_lambda(a, b_norm) if len(calls) <= 50 else math.inf

        monkeypatch.setattr(filters, "lambda_hard", overflowing_lambda)
        log = integrate(scn)
        assert log.abort == "NonFiniteValue: ControlInput.A_T must be finite"
        assert len(log.t) == 50 and np.all(np.isfinite(log.u))

    def test_non_finite_state_is_an_abort(self, monkeypatch):
        # the integrator returns NaN after k good steps: the run stops before
        # the control law reads that state, with the k + 1 finite states logged
        scn = scenario_from_dict(make_raw(t_final=1.0, dt=0.01))
        real_step = kernels.rk4_step
        k, calls = 37, []

        def nan_step(x, u, dt, g_d):
            calls.append(x)
            x = real_step(x, u, dt, g_d)
            return x if len(calls) <= k else (float("nan"),) + x[1:]

        monkeypatch.setattr(kernels, "rk4_step", nan_step)
        log = integrate(scn)
        assert log.abort == "non-finite state"
        assert len(log.t) == k + 1 and log.x.shape == (k + 1, 7) and len(calls) == k + 1
        assert np.all(np.isfinite(log.x))
        assert metrics_from_log(log, scn).aborted

    @pytest.mark.parametrize("name", ["fig3", "fig5"])
    def test_smooth_outer_filter_end_to_end(self, name):
        # the loader's nu reaches the outer filter: the run stays safe,
        # its slack is nonnegative and its input is not the hard filter's
        raw = {**load_scenario(name).raw, "t_final": 8.0}
        hard = integrate(scenario_from_dict(raw))
        raw["safety_filter"] = {**raw["safety_filter"], "mode": "smooth", "nu": 10.0}
        scn = scenario_from_dict(raw)
        assert scn.extended.nu == 10.0
        log = integrate(scn)
        assert log.abort is None and hard.abort is None
        assert log.h_mode.min() >= 0.0
        assert log.residual.min() >= -1e-9
        assert not np.array_equal(log.u, hard.u)

    def test_speed_norm_invariant_along_log(self):
        scn = scenario_from_dict(make_raw(t_final=2.0))
        log = integrate(scn)
        for row in log.x[::50]:
            st = state_from_array(row)
            assert np.linalg.norm(velocity(st)) == pytest.approx(st.V_T, rel=1e-12)


# Upper bounds on the fwrta Python frames a control step enters, on the
# comprehension frames among them and on all Python frames it enters (the
# dataclass-generated ``__init__``s, which live in "<string>", included), on a
# 2 s horizon (a generator counts once per resume).  Measured on CPython 3.11
# with the per-step vectors and inner products written as explicit components,
# the goal evaluated by one method call, every composition of the members one
# softmin plus plain loops in member order, ``ControlInput`` a slotted class,
# the log row a flat tuple, ``track`` one frame per call, and each per-step
# value computed once and passed on as an argument: the goal track's jet, the
# composition with its member jets (which the filters and the model-free safe
# command read) and the model-free filter's zeroth order (one
# ``FilterResult.__init__``), which the safe command, one dataclass per step,
# extends: fig3 29.00 / 0.00 / 32.01, fig4 27.00 / 0.00 / 30.01, fig5
# 50.00 / 0.00 / 54.01, fig6 39.00 / 0.00 / 44.01, step_offset
# 17.00 / 0.00 / 19.00; the fractions are the run's own frames (``integrate``,
# ``make_controller`` and ``row_columns``) spread over its steps.  Each bound is
# the measured count's whole part plus one.  No comprehension is left in a
# step.  CPython 3.10 enters the same frames; from 3.12 on, list comprehensions
# are inlined (PEP 709), so the counts can only read lower.
STEP_FRAME_BOUNDS = {"fig3": (30, 1, 33), "fig4": (28, 1, 31), "fig5": (51, 1, 55), "fig6": (40, 1, 45),
                     "step_offset": (18, 1, 20)}
COMPREHENSIONS = ("<listcomp>", "<genexpr>", "<setcomp>", "<dictcomp>")


class TestStepRecord:
    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6", "step_offset"])
    def test_one_record_per_mode(self, name):
        # the row at (x0, 0) is what the mode's production calls give
        scn = load_scenario(name)
        st, g = scn.x0, scn.gravity
        row = make_controller(scn)(st.as_array(), 0.0)
        cols, width = simulate.row_columns(len(scn.cset.members))
        assert type(row) is tuple and len(row) == width
        rec = {name: row[at] for name, at in cols.items()}
        tr_d = track(st, 0.0, GoalCommand(scn.goal, scn.tracking), scn.tracking, g)
        pos = compose_h_p(tr_d.ctx, scn.cset)
        if scn.mode == "off":
            u, h_mode, residual, warn = tr_d.u, pos.value, tr_d.residual, False
        elif scn.mode == "modelfree":
            tr = track(st, 0.0, SafeCommand(scn.goal, scn.tracking, scn.cset, scn.mf), scn.tracking, g)
            sv = safe_velocity(st.r, 0.0, desired_velocity(st.r, 0.0, scn.goal, scn.tracking), scn.cset, scn.mf)
            u, h_mode = tr.u, h_V(tr.V, pos.value, scn.mf, scn.tracking.lam)
            residual, warn = sv.slack, sv.infeasible
        else:
            ctx, fresh = composed(st, 0.0, scn.cset, g)
            if scn.mode == "extended":
                h_mode, res = rta_extended(ctx, tr_d.u, fresh, scn.extended)
            else:
                _, res = rta_backstepping(ctx, tr_d.u, fresh, scn.backstep)
                h_mode = h_b(ctx, fresh, scn.backstep)
            u, residual, warn = res.u, res.slack, res.infeasible
        np.testing.assert_array_equal(rec["u_d"], tr_d.u.as_array())
        np.testing.assert_array_equal(rec["u"], u.as_array())
        assert (rec["h_p"], rec["h_members"]) == (pos.value, tuple(pos.per_constraint))
        assert (rec["h_mode"], rec["residual"], rec["warn"]) == (h_mode, residual, warn)
        assert rec["intervening"] == bool(np.any(np.array(rec["u"]) != np.array(rec["u_d"])))
        # the row holds Python floats and bools, not numpy scalars or arrays
        assert all(type(v) is float for v in (*rec["u"], *rec["u_d"], *rec["h_members"]))
        assert all(type(v) is float for v in (rec["h_p"], rec["h_mode"], rec["residual"]))
        assert type(rec["warn"]) is bool and type(rec["intervening"]) is bool

    @pytest.mark.parametrize("name", ["fig3", "fig5", "fig6"])
    def test_abort_at_step_zero_keeps_column_widths(self, name, monkeypatch):
        # a run whose first control step fails logs no rows, with every column its width
        scn = scenario_from_dict({**load_scenario(name).raw, "t_final": 1.0})

        def singular_track(*args, **kwargs):
            raise SingularSpeed("V_T at the floor")

        monkeypatch.setattr(simulate, "track", singular_track)
        log = integrate(scn)
        m = len(scn.cset.members)
        assert log.abort == "SingularSpeed: V_T at the floor"
        assert log.t.shape == (0,) and log.x.shape == (0, 7)
        assert list(log.columns) == [name for name, _, _, _ in simulate.LOG_COLUMNS]
        for name, width, dtype, _ in simulate.LOG_COLUMNS:
            shape = (0,) if width == 1 else (0, m if width is simulate.MEMBERS else width)
            column = getattr(log, name)
            assert column.shape == shape and column.dtype == dtype, name
        with pytest.raises(FwrtaError, match="run produced no steps"):
            metrics_from_log(log, scn)

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6", "step_offset"])
    def test_one_frame_per_step(self, name, monkeypatch):
        # the tracker and the mode's filter read one TrackContext per control step,
        # and the step computes one goal jet (modelfree's safe track extends the
        # goal track's), one evaluation of each constraint member and one
        # composition of them, each passed on to every layer that reads it; the
        # state travels as the integrator's tuple, never as an AircraftState
        scn = scenario_from_dict({**load_scenario(name).raw, "t_final": 2.0})
        init, goal_jet = TrackContext.__init__, tracking._goal_jet
        state_init = AircraftState.__init__
        separation, h_geofence = constraints._separation, constraints.h_geofence
        builds, jets, separations, distances, states = [], [], [], [], []

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        def counted_state(self, *args, **kwargs):
            states.append(args)
            state_init(self, *args, **kwargs)

        def counted_jet(*args):
            jets.append(args)
            return goal_jet(*args)

        def counted_separation(*args):
            separations.append(args)
            return separation(*args)

        def counted_distance(*args):
            distances.append(args)
            return h_geofence(*args)

        monkeypatch.setattr(TrackContext, "__init__", counted)
        monkeypatch.setattr(AircraftState, "__init__", counted_state)
        monkeypatch.setattr(tracking, "_goal_jet", counted_jet)
        monkeypatch.setattr(constraints, "_separation", counted_separation)
        monkeypatch.setattr(constraints, "h_geofence", counted_distance)
        # calls by code object, whatever name the caller imported them under
        watched = {f.__code__: f.__name__ for f in (constraints._unit_along, filters.softplus,
                                                     constraints.softmin_weights, constraints.member_jet,
                                                     modelfree._filter0)}
        calls = dict.fromkeys(watched.values(), 0)
        package = os.path.dirname(constraints.__file__) + os.sep
        frames = comprehensions = python_frames = 0

        def profile(frame, event, arg):
            nonlocal frames, comprehensions, python_frames
            if event == "call":
                code = frame.f_code
                # every frame but this test's own counting wrappers
                python_frames += code.co_filename != __file__
                if code in watched:
                    calls[watched[code]] += 1
                if code.co_filename.startswith(package):
                    frames += 1
                    comprehensions += code.co_name in COMPREHENSIONS

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            log = integrate(scn)
        finally:
            sys.setprofile(previous)
        assert log.abort is None and len(log.t) == round(2.0 / scn.dt) + 1
        assert len(builds) == len(jets) == len(log.t)
        assert states == []
        planes = sum(isinstance(m, constraints.GeofencePlane) for m in scn.cset.members)
        obstacles = len(scn.cset.members) - planes
        assert len(separations) == obstacles * len(log.t)
        assert len(distances) == planes * len(log.t)
        n = len(log.t)
        # no per-element comprehension builds a 3- or 7-vector of the step
        frame_bound, comprehension_bound, python_bound = STEP_FRAME_BOUNDS[name]
        assert frames / n <= frame_bound
        assert comprehensions / n <= comprehension_bound
        assert python_frames / n <= python_bound
        if name == "fig5":
            # the backstepping rate reads each obstacle's jet and second order through
            # frame projections (a plane's rates are closed form) and the filter step's
            # one softplus; the softmin composes the position barrier and the extension
            assert calls == {"_unit_along": obstacles * n, "softplus": n, "softmin_weights": 2 * n,
                             "member_jet": obstacles * n, "_filter0": 0}
        elif name == "fig6":
            # the safe command's second order extends each obstacle's member jet once,
            # without another tangent of its separation, and its first order the
            # step's composition; the filter's zeroth order, with its one softplus,
            # is evaluated once, by the step's filter, and the safe track's jet
            # extends the one the step passes it
            assert calls == {"_unit_along": obstacles * n, "softplus": n, "softmin_weights": n,
                             "member_jet": obstacles * n, "_filter0": n}
        else:
            assert calls["_filter0"] == 0


class TestExport:
    def test_csv_header_contract(self):
        assert (
            csv_header(3)
            == "t,n,e,d,phi,theta,psi,V_T,A_T_d,P_d,Q_d,A_T,P,Q,h_p,h_1,h_2,h_3,h_mode,intervening"
        )

    def test_csv_deterministic_bytes(self, tmp_path):
        scn1 = scenario_from_dict(make_raw(t_final=2.0))
        scn2 = scenario_from_dict(make_raw(t_final=2.0))
        p1 = write_csv(integrate(scn1), tmp_path / "a.csv")
        p2 = write_csv(integrate(scn2), tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_roundtrip(self, tmp_path):
        scn = scenario_from_dict(make_raw(t_final=1.0))
        log, met = run_scenario(scn)
        p = write_json(log, met, tmp_path / "log.json")
        text = p.read_text()
        assert "\n" not in text  # one line, from the C encoder
        doc = json.loads(text)
        assert doc["schema"] == "fwrta-log/1"
        assert len(doc["columns"]["t"]) == len(log.t)
        assert doc["metrics"]["aborted"] is False

    @pytest.mark.parametrize("name", ["fig5", "fig6", "step_offset"])
    def test_json_columns_follow_the_table(self, name, tmp_path):
        # t, then every log column by its table name in the table's order (x first); the
        # filter's slack (the tracker's residual when off) as logged, the flags as 0/1
        scn = scenario_from_dict({**load_scenario(name).raw, "t_final": 0.5})
        log, met = run_scenario(scn)
        cols = json.loads(write_json(log, met, tmp_path / "log.json").read_text())["columns"]
        assert list(cols) == ["t", *(column for column, _, _, _ in simulate.LOG_COLUMNS)]
        assert cols["residual"] == log.residual.tolist()
        for flag in ("intervening", "warn"):
            assert all(type(v) is int for v in cols[flag])
            assert cols[flag] == [int(v) for v in getattr(log, flag)]
        if name == "fig6":
            assert set(cols["intervening"]) == {1}

    def test_svg_smoke(self, tmp_path):
        scn = load_scenario("fig3")
        scn.t_final = 1.0
        log, met = run_scenario(scn)
        p = write_svg(log, scn, tmp_path / "plot.svg")
        text = p.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")
        assert "polyline" in text


    def test_svg_lines_at_pixel_resolution(self):
        # a point is drawn only when it lies half a pixel or more from the last point drawn
        panel = _Panel(10, 20, 100, 50, (0.0, 100.0), (0.0, 50.0), "panel")
        xs = np.arange(0.0, 20.0, 0.125)
        panel.line(xs, np.zeros_like(xs), "#000")
        points = panel.parts[0].split('points="')[1].split('"')[0].split(" ")
        assert points == [f"{10.0 + x:.2f},70.00" for x in np.arange(0.0, 20.0, 0.5)]
        # a diagonal step of 0.3 px in each axis (0.42 px) is dropped, two of them are not
        panel.parts.clear()
        panel.line([0.0, 0.3, 0.6], [0.0, 0.3, 0.6], "#000")
        assert 'points="10.00,70.00 10.60,69.40"' in panel.parts[0]


class TestChecks:
    def test_step_offset_passes(self):
        scn = load_scenario("step_offset")
        scn.t_final = 40.0
        log, met = run_scenario(scn)
        scn.checks = {"max_final_pos_err": 30.0, "no_warnings": True}
        passed, lines = evaluate_checks(scn, log, met)
        assert passed and len(lines) == 2

    def test_threshold_violation_detected(self):
        scn = scenario_from_dict(make_raw(t_final=2.0))
        log, met = run_scenario(scn)
        scn.checks = {"max_final_pos_err": 1e-9}
        passed, lines = evaluate_checks(scn, log, met)
        assert not passed
        assert any(name == "max_final_pos_err" and not ok for name, ok, _ in lines)

    def test_unexpected_abort_fails(self):
        raw = make_raw(t_final=30.0, dt=0.01)
        raw["initial_state"]["V_T"] = 2.0
        raw["goal"]["v_g"] = [0.5, 0.0, 0.0]
        raw["initial_state"]["psi"] = 0.0
        scn = scenario_from_dict(raw)
        log, met = run_scenario(scn)
        passed, lines = evaluate_checks(scn, log, met)
        assert not passed
        assert any(name == "no_abort" for name, _, _ in lines)


class TestSweep:
    def test_parameter_range(self):
        raw = make_raw(t_final=1.0)
        rows = list(sweep(raw, "constraints.kappa", 0.005, 0.01, 2))
        assert len(rows) == 2
        assert rows[0][0] == pytest.approx(0.005)
        assert rows[1][0] == pytest.approx(0.01)

    def test_failing_value_keeps_the_rows_that_ran(self, tmp_path, capsys):
        # fig6 does not load at nu_v = 0.001: the three values before it are written,
        # and the sweep exits with the value's message
        raw = json.loads(bundled_scenario_path("fig6").read_text())
        src = tmp_path / "fig6.json"
        src.write_text(json.dumps({**raw, "t_final": 1.0}))
        out = tmp_path / "out"
        argv = ["sweep", "--scenario", str(src), "--param", "modelfree.nu_v", "--min", "0.007", "--max", "0.001"]
        assert cli_main([*argv, "--steps", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "scenario error: sweep(modelfree.nu_v=0.001): "
            "initial state violates the monitor barrier: h_V(0) = -64380.2\n"
        )
        table = (out / "fig6_sweep_modelfree_nu_v.csv").read_text().splitlines()
        assert table[0] == ",".join(("value", *SWEEP_FIELDS))
        assert [float(line.split(",")[0]) for line in table[1:]] == pytest.approx([0.007, 0.005, 0.003])

    @pytest.mark.parametrize("param, stem", [("notes.a/b", "notes_a_b"), ("notes.a b\\c:é", "notes_a_b_c__"),
                                             ("constraints.members[0].margin", "constraints_members_0_margin"),
                                             ("dt", "dt")])
    def test_param_path_as_file_name(self, param, stem, tmp_path):
        # a notes key is free-form: a character outside [A-Za-z0-9_] is written as "_",
        # so every value runs and its rows are written, not lost to an io error
        src = tmp_path / "scn.json"
        src.write_text(json.dumps(make_raw(t_final=0.05, notes={"a/b": 1.0, "a b\\c:é": 1.0})))
        out = tmp_path / "out"
        argv = ["sweep", "--scenario", str(src), "--param", param, "--min", "0.01", "--max", "0.02"]
        assert cli_main([*argv, "--steps", "2", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == [f"step_offset_sweep_{stem}.csv"]
        assert len((out / f"step_offset_sweep_{stem}.csv").read_text().splitlines()) == 3

    def test_list_index_path(self):
        raw = make_raw(t_final=1.0)
        out = set_by_path(raw, "constraints.members[0].margin", 5.0)
        assert out["constraints"]["members"][0]["margin"] == 5.0
        assert raw["constraints"]["members"][0]["margin"] == 0.0

    def test_bad_path_raises(self):
        with pytest.raises(FwrtaError, match="sweep path"):
            set_by_path(make_raw(), "nope.missing", 1.0)


class TestCli:
    def test_run_writes_csv(self, tmp_path):
        code = cli_main(
            ["run", "--scenario", "step_offset", "--out", str(tmp_path), "--horizon", "1.0"]
        )
        assert code == 0
        files = list(tmp_path.glob("*.csv"))
        assert len(files) == 1
        header = files[0].read_text().splitlines()[0]
        assert header == csv_header(1)

    def test_run_svg_format(self, tmp_path):
        code = cli_main(
            ["run", "--scenario", "step_offset", "--out", str(tmp_path), "--horizon", "1.0", "--format", "svg"]
        )
        assert code == 0
        assert list(tmp_path.glob("*.svg"))

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"fwrta-scenario/1\"}")
        assert cli_main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            ("--dt", "0"),
            ("--dt", "-0.01"),
            ("--dt", "nan"),
            ("--horizon", "0.01"),
            ("--dt", "1e-300"),
            ("--dt", "1e-300", "--horizon", "1e300"),
        ],
    )
    def test_invalid_override_exit_code(self, override, tmp_path):
        # fig3 steps at dt = 0.01, so a 0.01 s horizon does not exceed it;
        # dt = 1e-300 asks for more than MAX_STEPS steps (1e300 / 1e-300 overflows)
        assert cli_main(["run", "--scenario", "fig3", "--out", str(tmp_path), *override]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "path, value",
        [
            # (bundled base scenario, key path...), value
            (("fig3", "t_final"), float("inf")),
            (("fig3", "dt"), float("nan")),
            (("fig3", "initial_state", "V_T"), float("nan")),
            (("fig3", "constraints", "members", 0, "center", 0), float("nan")),
            # finite but overflowing: the initial certificate is non-finite
            (("fig6", "goal", "v_g", 0), 1e300),
            (("fig6", "tracking", "K_r"), 1e300),
            (("fig6", "tracking", "K_v"), 1e300),
            (("fig6", "modelfree", "sigma"), 1e300),
            (("fig6", "goal", "r0", 0), 1e300),
            (("fig3", "gravity"), 0),
            (("fig3", "gravity"), -1),
            # more than MAX_STEPS steps
            (("fig3", "dt"), 1e-300),
            # the goal command's certificate V(0) overflows outside modelfree
            (("fig3", "tracking", "K_r"), 1e300),
            (("fig5", "tracking", "K_r"), 1e300),
            (("fig3", "goal", "r0", 0), 1e300),
            (("fig5", "goal", "r0", 0), 1e300),
            (("step_offset", "goal", "v_g", 0), 1e300),
        ],
    )
    def test_non_finite_number_exit_code(self, path, value, tmp_path):
        base, *keys = path
        raw = json.loads(bundled_scenario_path(base).read_text())
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        assert cli_main(["check", "--scenario", str(src)]) == 2

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize(
        "base, path",
        [(name, ("safety_filter", "gamma")) for name in ("fig3", "fig4", "fig5", "fig6", "step_offset")]
        + [("fig5", ("backstepping", key)) for key in ("gamma_e", "nu_e", "mu_e")]
        + [("fig6", ("modelfree", key)) for key in ("gamma_p", "sigma", "Gamma_v", "nu_v")]
        + [("fig3", ("tracking", key)) for key in ("mu", "lambda")],
    )
    def test_decay_gain_must_be_positive(self, base, path, value, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path(base).read_text())
        raw[path[0]][path[1]] = value
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        assert cli_main(["check", "--scenario", str(src)]) == 2
        assert f"field '{path[0]}': {path[1]} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value", [(("backstepping", "W_e"), [1.0, 0.0, 1.0]), (("safety_filter", "W"), [6.0, 0.6, 0.0])]
    )
    def test_singular_weight_names_its_field(self, path, value, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path("fig5").read_text())
        raw[path[0]][path[1]] = value
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        assert cli_main(["check", "--scenario", str(src)]) == 2
        assert f"field '{path[0]}': {path[1]} must be invertible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, path, scale",
        [("fig5", ("backstepping", "W_e"), 1e-120), ("fig5", ("backstepping", "W_e"), 1e120),
         ("fig3", ("safety_filter", "W"), 1e200)],
    )
    def test_weight_scale_exit_code(self, base, path, scale, tmp_path, capsys):
        # invertibility does not depend on the factor's scale; an extreme scale
        # fails as a schema or numerical error at worst, never with a traceback
        raw = json.loads(bundled_scenario_path(base).read_text())
        raw["t_final"] = 1.0
        raw[path[0]][path[1]] = [scale] * 3
        src = tmp_path / "scaled.json"
        src.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["check", "--scenario", str(src)])
        assert code in (0, 1, 2, 3)
        assert "must be invertible" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, None], ids=repr)
    @pytest.mark.parametrize(
        "base, path, field",
        [
            ("fig5", ("initial_state",), "initial_state"),
            ("fig5", ("goal",), "goal"),
            ("fig5", ("tracking",), "tracking"),
            ("fig5", ("constraints",), "constraints"),
            ("fig5", ("constraints", "members", 1), "constraints.members[1]"),
            ("fig5", ("safety_filter",), "safety_filter"),
            ("fig5", ("extended",), "extended"),
            ("fig5", ("backstepping",), "backstepping"),
            ("fig6", ("modelfree",), "modelfree"),
        ],
    )
    def test_non_object_section_exit_code(self, base, path, field, value, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path(base).read_text())
        raw["t_final"] = 0.05
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        for argv in (["run", "--out", str(tmp_path / "out")], ["check"]):
            assert cli_main([argv[0], "--scenario", str(src), *argv[1:]]) == 2
            assert f"field '{field}' must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "base, path, field",
        [
            ("fig3", ("gravty",), "gravty"),
            ("fig3", ("safety_filter", "mdoe"), "safety_filter.mdoe"),
            ("fig3", ("initial_state", "V"), "initial_state.V"),
            ("fig3", ("goal", "vg"), "goal.vg"),
            ("fig3", ("tracking", "notes"), "tracking.notes"),
            ("fig5", ("constraints", "kapa"), "constraints.kapa"),
            ("fig5", ("constraints", "members", 0, "radus"), "constraints.members[0].radus"),
            # a plane carrying an obstacle field
            ("fig5", ("constraints", "members", 1, "radius"), "constraints.members[1].radius"),
            ("fig5", ("extended", "gamma"), "extended.gamma"),
            ("fig5", ("backstepping", "nu"), "backstepping.nu"),
            ("fig6", ("modelfree", "Gamma"), "modelfree.Gamma"),
        ],
    )
    def test_unknown_field_exit_code(self, base, path, field, command, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path(base).read_text())
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 3.0
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli_main([command, "--scenario", str(src), *out]) == 2
        assert f"field '{field}' is not a known field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_deeply_nested_notes(self, tmp_path):
        # only the swept path is copied, so a deep value elsewhere does not recurse
        text = json.dumps(make_raw(t_final=0.05, notes=None))
        src = tmp_path / "scn.json"
        src.write_text(text.replace('"notes": null', '"notes": ' + "[" * 900 + "]" * 900))
        argv = ["sweep", "--scenario", str(src), "--param", "dt", "--min", "0.01", "--max", "0.02"]
        assert cli_main([*argv, "--steps", "2", "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b", "", ".", "..", [1], 5, None], ids=repr)
    def test_bad_name_exit_code(self, name, tmp_path, capsys):
        # the name is the file stem of every export
        src = tmp_path / "scn.json"
        src.write_text(json.dumps(make_raw(name=name, t_final=0.05)))
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(src), "--out", str(out)]) == 2
        assert "field 'name'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json"]

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["utf16-bom", "deep-nesting"]
    )
    def test_unreadable_file_exit_code(self, command, content, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_bytes(content)
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli_main([command, "--scenario", str(src), *out]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param, steps, lo, hi",
        [
            pytest.param("constraints.kappa", "1", "0.005", "0.01", id="constraints.kappa-1"),
            pytest.param("constraints.kappa", "0", "0.005", "0.01", id="constraints.kappa-0"),
            pytest.param("constraints.kappa", "-3", "0.005", "0.01", id="constraints.kappa--3"),
            pytest.param("constraints.nope", "2", "0.005", "0.01", id="constraints.nope-2"),
            pytest.param("constraints..kappa", "2", "0.005", "0.01", id="constraints..kappa-2"),
            pytest.param("constraints.members[9].radius", "2", "0.005", "0.01", id="constraints.members[9].radius-2"),
            pytest.param("initial_state.n[0]", "2", "0.005", "0.01", id="initial_state.n[0]-2"),
            # rejected before any value is spaced: neither an allocation nor a numpy warning
            pytest.param("dt", "100000000000000000000", "0.005", "0.01", id="dt-steps-1e20"),
            pytest.param("dt", "10001", "0.005", "0.01", id="dt-steps-10001"),
            pytest.param("dt", "2", "inf", "0.01", id="dt-min-inf"),
            pytest.param("dt", "2", "0.005", "nan", id="dt-max-nan"),
            pytest.param("dt", "2", "0.005", "inf", id="dt-max-inf"),
        ],
    )
    def test_sweep_usage_error_exit_code(self, param, steps, lo, hi, tmp_path, capsys):
        src = tmp_path / "scn.json"
        src.write_text(json.dumps(make_raw(t_final=0.05)))
        out = tmp_path / "out"
        argv = ["sweep", "--scenario", str(src), "--param", param, "--min", lo, "--max", hi]
        assert cli_main([*argv, "--steps", steps, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "sweep" in err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["check", "--scenario", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command, checks, code", [
        pytest.param("run", {}, 3, id="run"),
        pytest.param("check", {}, 3, id="check"),
        pytest.param("check", {"allow_abort": True}, 0, id="check-allow_abort"),
    ])
    def test_run_abort_exit_code(self, command, checks, code, tmp_path):
        # the abort comes after step 0; both commands report its kind, and check exits 3
        # on its failing no_abort line, which allow_abort replaces with a passing one
        raw = make_raw(t_final=30.0, dt=0.01, checks=checks)
        raw["initial_state"]["psi"] = 0.0
        raw["initial_state"]["V_T"] = 2.0
        raw["goal"]["v_g"] = [0.5, 0.0, 0.0]
        src = tmp_path / "brake.json"
        src.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert cli_main([command, "--scenario", str(src), *out]) == code

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTA_OUT_DIR", str(tmp_path / "envout"))
        code = cli_main(["run", "--scenario", "step_offset", "--horizon", "1.0"])
        assert code == 0
        assert list((tmp_path / "envout").glob("*.csv"))

    @pytest.mark.parametrize(
        "field, value",
        [("modelfree.gamma_p", v) for v in (0.2, 0.5, 2, 50, 1e6, 1e300)] + [("tracking.lambda", 1e-300)],
    )
    def test_gain_ordering_exit_code(self, field, value, tmp_path, capsys):
        # the monitor h_V needs tracking.lambda > modelfree.gamma_p: bad input, not a numerical abort
        raw = json.loads(bundled_scenario_path("fig6").read_text())
        raw["t_final"] = 0.05
        section, key = field.split(".")
        raw[section][key] = value
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        for argv in (["run", "--out", str(tmp_path / "out")], ["check"]):
            assert cli_main([argv[0], "--scenario", str(src), *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert err.startswith("scenario error:")
            assert "modelfree.gamma_p" in err and "tracking.lambda" in err
        assert not (tmp_path / "out").exists()

    def test_gain_ordering_sweep_exit_code(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path("fig6").read_text())
        raw["t_final"] = 0.05
        src = tmp_path / "scn.json"
        src.write_text(json.dumps(raw))
        argv = ["sweep", "--scenario", str(src), "--param", "modelfree.gamma_p", "--min", "0.1", "--max", "0.5"]
        assert cli_main([*argv, "--steps", "2", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "modelfree.gamma_p" in err and "tracking.lambda" in err

    def test_sweep_error_names_the_value(self, tmp_path, capsys):
        # fig6 does not load at nu_v = 0.001 (nor at 0.002): the sweep stops at the first
        # value and says which one
        argv = ["sweep", "--scenario", "fig6", "--param", "modelfree.nu_v", "--min", "0.001", "--max", "0.002"]
        assert cli_main([*argv, "--steps", "2", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "scenario error: sweep(modelfree.nu_v=0.001): "
            "initial state violates the monitor barrier: h_V(0) = -64380.2\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("base", ["fig3", "fig5", "fig6"])
    def test_start_on_obstacle_center_exit_code(self, base, command, tmp_path, capsys):
        # a start at an obstacle's center lies inside it: an invalid initial state
        raw = json.loads(bundled_scenario_path(base).read_text())
        raw["t_final"] = 0.05
        x0 = raw["initial_state"]
        raw["constraints"]["members"][0]["center"] = [x0["n"], x0["e"], x0["d"]]
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli_main([command, "--scenario", str(src), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: initial_state invalid: position within")
        assert not (tmp_path / "out").exists()

    def test_invalid_initial_speed_rejected(self):
        raw = make_raw()
        raw["initial_state"]["V_T"] = 0.5
        with pytest.raises(ScenarioError, match="initial_state"):
            scenario_from_dict(raw)

    def test_sweep_writes_table(self, tmp_path):
        src = tmp_path / "scn.json"
        src.write_text(json.dumps(make_raw(t_final=1.0)))
        code = cli_main(
            ["sweep", "--scenario", str(src), "--param", "constraints.kappa",
             "--min", "0.005", "--max", "0.01", "--steps", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        table = list(tmp_path.glob("*sweep*.csv"))[0].read_text().splitlines()
        assert table[0].startswith("value,min_h_p")
        assert len(table) == 3


LEAF_VALUES = [0, -1, float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 1e-300, "x", True, None]


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, path + (key,))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", LEAF_VALUES, ids=repr)
@pytest.mark.parametrize("base", ["fig3", "fig4", "fig5", "fig6", "step_offset"])
def test_leaf_mutation_exit_codes(base, value, tmp_path, capsys):
    """Every numeric leaf set to an extreme or a wrong type: no traceback,
    and a non-finite or non-numeric value is a schema error (exit 2)."""
    original = json.loads(bundled_scenario_path(base).read_text())
    must_reject = not (isinstance(value, (int, float)) and not isinstance(value, bool) and np.isfinite(value))
    src = tmp_path / "leaf.json"
    failures = []
    for path in _numeric_leaves(original):
        raw = copy.deepcopy(original)
        if path != ("t_final",):
            raw["t_final"] = 0.05
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        src.write_text(json.dumps(raw))
        for argv in (["run", "--horizon", "0.05", "--out", str(tmp_path / "out")], ["check"]):
            try:
                code = cli_main([argv[0], "--scenario", str(src), *argv[1:]])
            except Exception as exc:  # any escape is the failure under test
                failures.append((path, argv[0], f"{type(exc).__name__}: {exc}"))
                continue
            if must_reject and code != 2:
                failures.append((path, argv[0], f"exit {code}"))
    capsys.readouterr()
    assert not failures

