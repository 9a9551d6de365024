import copy
import json

import numpy as np
import pytest

from fwrta import simulate
from fwrta.cli import main as cli_main
from fwrta.errors import FwrtaError, ScenarioError
from fwrta.export import csv_header, write_csv, write_json, write_svg
from fwrta.model import AircraftState, ControlInput, velocity
from fwrta.scenario import bundled_scenario_path, load_scenario, scenario_from_dict
from fwrta.simulate import (
    evaluate_checks,
    integrate,
    metrics_from_log,
    run_scenario,
    set_by_path,
    sweep,
)

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
        # "seed" is not part of the schema: ignored like any unknown top-level key
        for seed in ("abc", None):
            assert scenario_from_dict(make_raw(seed=seed)).name == "step_offset"

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

    def test_speed_norm_invariant_along_log(self):
        scn = scenario_from_dict(make_raw(t_final=2.0))
        log = integrate(scn)
        for row in log.x[::50]:
            st = AircraftState.from_array(row)
            assert np.linalg.norm(velocity(st)) == pytest.approx(st.V_T, rel=1e-12)


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
        doc = json.loads(p.read_text())
        assert doc["schema"] == "fwrta-log/1"
        assert len(doc["columns"]["t"]) == len(log.t)
        assert doc["metrics"]["aborted"] is False

    def test_svg_smoke(self, tmp_path):
        scn = load_scenario("fig3")
        scn.t_final = 1.0
        log, met = run_scenario(scn)
        p = write_svg(log, scn, tmp_path / "plot.svg")
        text = p.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")
        assert "polyline" in text


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
        rows = sweep(raw, "constraints.kappa", 0.005, 0.01, 2)
        assert len(rows) == 2
        assert rows[0][0] == pytest.approx(0.005)
        assert rows[1][0] == pytest.approx(0.01)

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

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["check", "--scenario", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_run_abort_exit_code(self, command, tmp_path):
        # the abort comes after step 0; both commands report its kind
        raw = make_raw(t_final=30.0, dt=0.01)
        raw["initial_state"]["psi"] = 0.0
        raw["initial_state"]["V_T"] = 2.0
        raw["goal"]["v_g"] = [0.5, 0.0, 0.0]
        src = tmp_path / "brake.json"
        src.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert cli_main([command, "--scenario", str(src), *out]) == 3

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTA_OUT_DIR", str(tmp_path / "envout"))
        code = cli_main(["run", "--scenario", "step_offset", "--horizon", "1.0"])
        assert code == 0
        assert list((tmp_path / "envout").glob("*.csv"))

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

