"""The scenario loader's contract: its exact messages, no escaping exception,
and a check line for every threshold it accepts."""

import copy
import json

import pytest

import loader_cases
from fwrta import scenario
from fwrta.errors import ScenarioError
from fwrta.scenario import bundled_scenario_path, scenario_from_dict
from fwrta.simulate import evaluate_checks, run_scenario

DELETE = object()
NAME_RULE = "field 'name' must be a non-empty string without '/', '\\' or NUL, and not '.' or '..'"
MODES_RULE = "field 'rta_mode' must be one of ('off', 'extended', 'backstepping', 'modelfree')"
GAIN_RULE = "must be a finite scalar or a list of 3 finite diagonal entries"
SMOOTH = (("safety_filter", "mode"), "smooth")


def edited(base: str, *edits) -> dict:
    """Bundled scenario ``base`` with each ``(path, value)`` of ``edits`` applied (``DELETE`` removes)."""
    raw = json.loads(bundled_scenario_path(base).read_text())
    for path, value in edits:
        node = raw
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return raw


# one single-fault input per message template: (base, edits, message)
MESSAGES = [
    ("fig3", [(("schema",), "other/9")], "field 'schema' must be 'fwrta-scenario/1'"),
    # missing and unknown fields, at the top level, in a section and in a member
    ("fig3", [(("dt",), DELETE)], "missing field 'dt'"),
    ("fig3", [(("seed",), 1)], "field 'seed' is not a known field"),
    ("fig3", [(("tracking", "mu"), DELETE)], "missing field 'tracking.mu'"),
    ("fig3", [(("tracking", "bogus"), 1.0)], "field 'tracking.bogus' is not a known field"),
    ("fig5", [(("constraints", "members", 0, "radius"), DELETE)], "missing field 'constraints.members[0].radius'"),
    ("fig5", [(("constraints", "members", 0, "type"), DELETE)], "missing field 'constraints.members[0].type'"),
    ("fig5", [(("constraints", "members", 1, "radius"), 1.0)],
     "field 'constraints.members[1].radius' is not a known field"),
    ("fig5", [(("backstepping", "W_e"), DELETE)], "missing field 'backstepping.W_e'"),
    # non-object sections and members, and the member list
    ("fig3", [(("goal",), [])], "field 'goal' must be an object"),
    ("fig5", [(("backstepping",), "x")], "field 'backstepping' must be an object"),
    ("fig5", [(("constraints", "members", 2), None)], "field 'constraints.members[2]' must be an object"),
    ("fig3", [(("constraints", "members"), [])], "field 'constraints.members' must be a non-empty list"),
    ("fig3", [(("constraints", "members"), {})], "field 'constraints.members' must be a non-empty list"),
    # bad numbers, 3-vectors, gains and weights
    ("fig3", [(("initial_state", "V_T"), "x")], "field 'initial_state.V_T' must be a finite number"),
    ("fig3", [(("tracking", "lambda"), float("nan"))], "field 'tracking.lambda' must be a finite number"),
    ("fig5", [(("constraints", "members", 0, "radius"), True)],
     "field 'constraints.members[0].radius' must be a finite number"),
    ("fig3", [(("goal", "v_g"), [1.0, 2.0])], "field 'goal.v_g' must be a list of 3 finite numbers"),
    ("fig5", [(("constraints", "members", 1, "normal"), [1.0, float("inf"), 0.0])],
     "field 'constraints.members[1].normal' must be a list of 3 finite numbers"),
    ("fig3", [(("tracking", "K_v"), [1.0, True, 1.0])], f"field 'tracking.K_v' {GAIN_RULE}"),
    ("fig3", [(("tracking", "K_r"), None)], f"field 'tracking.K_r' {GAIN_RULE}"),
    ("fig3", [(("safety_filter", "W"), [1.0, 0.0, 1.0])], "field 'safety_filter': W must be invertible"),
    ("fig5", [(("backstepping", "W_e"), [0.0, 0.0, 0.0])], "field 'backstepping': W_e must be invertible"),
    # a constructor's error, in each section
    ("fig3", [(("gravity",), 0)], "field 'gravity': g_d must be positive and finite"),
    ("fig3", [(("tracking", "mu"), -1)], "field 'tracking': mu must be positive"),
    ("fig3", [(("tracking", "K_r"), [1.0, -1.0, 1.0])], "field 'tracking': K_r must be positive definite"),
    ("fig3", [(("tracking", "lambda"), 1.0)], "field 'tracking': lam must not exceed the smallest eigenvalue of K_v"),
    ("fig3", [(("constraints", "kappa"), 0)], "field 'constraints': kappa must be positive"),
    ("fig3", [(("constraints", "members", 0, "radius"), -1)], "field 'constraints': obstacle radius must be positive"),
    ("fig4", [(("constraints", "members", 0, "normal"), [0, 0, 0])],
     "field 'constraints': geofence normal must be nonzero"),
    ("fig4", [(("constraints", "members", 0, "margin"), -1)],
     "field 'constraints': geofence margin must be nonnegative"),
    ("fig3", [(("safety_filter", "gamma"), 0)], "field 'safety_filter': gamma must be positive"),
    ("fig3", [(("extended", "gamma_p"), -1)], "field 'extended': gamma_p must be positive"),
    ("fig5", [(("backstepping", "mu_e"), 0)], "field 'backstepping': mu_e must be positive"),
    ("fig6", [(("modelfree", "sigma"), 0)], "field 'modelfree': sigma must be positive"),
    # fixed choices and the smoothing of a smooth filter
    ("fig3", [(("goal", "type"), "circle")], "field 'goal.type' must be 'linear'"),
    ("fig5", [(("constraints", "members", 0, "type"), "wall")],
     "field 'constraints.members[0].type' must be 'obstacle' or 'plane'"),
    ("fig5", [(("constraints", "members", 1, "type"), [])],
     "field 'constraints.members[1].type' must be 'obstacle' or 'plane'"),
    ("fig3", [(("safety_filter", "mode"), "soft")], "field 'safety_filter.mode' must be 'hard' or 'smooth'"),
    ("fig3", [(("safety_filter", "mode"), {})], "field 'safety_filter.mode' must be 'hard' or 'smooth'"),
    ("fig3", [SMOOTH], "missing field 'safety_filter.nu'"),
    ("fig3", [SMOOTH, (("safety_filter", "nu"), 0)], "field 'safety_filter.nu' must be positive"),
    ("fig3", [SMOOTH, (("safety_filter", "nu"), "x")], "field 'safety_filter.nu' must be a finite number"),
    # rules across sections
    ("fig5", [(("extended",), DELETE)], "field 'backstepping' requires the 'extended' section (gamma_p)"),
    ("step_offset", [(("rta_mode",), "extended")], "rta_mode 'extended' requires the 'extended' section"),
    ("fig3", [(("rta_mode",), "backstepping")], "rta_mode 'backstepping' requires the 'backstepping' section"),
    ("fig3", [(("rta_mode",), "modelfree")], "rta_mode 'modelfree' requires the 'modelfree' section"),
    ("fig6", [(("modelfree", "gamma_p"), 0.5)],
     "field 'modelfree.gamma_p' = 0.5 must be below 'tracking.lambda' = 0.2"),
    # each kind of threshold
    ("fig3", [(("checks",), [])], "field 'checks' must be an object"),
    ("fig3", [(("checks", "min_h_p"), "x")], "field 'checks.min_h_p' must be a finite number"),
    ("fig3", [(("checks", "no_warnings"), 1)], "field 'checks.no_warnings' must be true or false"),
    ("fig3", [(("checks", "bogus"), 1.0)], "field 'checks.bogus' is not a known threshold"),
    # the top-level fields
    ("fig3", [(("name",), "a/b")], NAME_RULE),
    ("fig3", [(("name",), "..")], NAME_RULE),
    ("fig3", [(("name",), 3)], NAME_RULE),
    ("fig3", [(("dt",), 0)], "field 'dt' must be positive"),
    ("fig3", [(("dt",), "x")], "field 'dt' must be a finite number"),
    ("fig3", [(("t_final",), 0.01)], "field 't_final' must exceed 'dt'"),
    ("fig3", [(("t_final",), 1e5)], "fields 't_final' / 'dt' give more than 1000000 steps"),
    ("fig3", [(("rta_mode",), "on")], MODES_RULE),
    ("fig3", [(("rta_mode",), [])], MODES_RULE),
    ("fig3", [(("gravity",), "x")], "field 'gravity' must be a finite number"),
]


@pytest.mark.parametrize("base, edits, message", MESSAGES, ids=[m for _, _, m in MESSAGES])
def test_loader_message(base, edits, message):
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(edited(base, *edits))
    assert str(exc.value) == message


def test_non_object_scenario_message():
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict([], origin="fig3.json")
    assert str(exc.value) == "fig3.json: scenario must be a JSON object"


def test_hard_filter_reads_no_nu():
    # nu smooths only a smooth filter; a hard one loads with any value or none
    for nu in ("x", None, -1.0, []):
        assert scenario_from_dict(edited("fig3", (("safety_filter", "nu"), nu))).extended.nu is None


@pytest.mark.parametrize("name", loader_cases.NAMES)
def test_no_exception_escapes(name):
    """Every node, object, list or leaf, set to each JSON type: the loader returns or raises ScenarioError."""
    escapes = []
    for case, raw in loader_cases.set_cases(name, ([], {}, "x", None, True)):
        try:
            scenario_from_dict(raw)
        except ScenarioError:
            pass
        except Exception as exc:  # any other exception is the failure under test
            escapes.append(f"{case}: {type(exc).__name__}: {exc}")
    assert not escapes


THRESHOLDS = {key: True if th.parse is scenario._flag else 0.0 for key, th in scenario.THRESHOLDS.items()}
SPEED_FLOOR = "SingularSpeed: V_T = 0.999262 m/s at or below floor 1.0 m/s"
# each key's one line at the value above, in the order evaluate_checks gives them: on
# the 1 s fig3 run, allow_abort's on the speed-floor abort
THRESHOLD_LINES = {
    "allow_abort": ("allow_abort", True, f"aborted as expected: {SPEED_FLOOR}"),
    "min_h_p": ("min_h_p", True, "min h_p = 2896.5 (floor 0.0)"),
    "min_h_members": ("min_h_members", True, "worst member min = 2896.5 (floor 0.0)"),
    "min_h_mode": ("min_h_mode", True, "min mode barrier = 1677.42 (floor 0.0)"),
    "p_transparent": ("p_transparent", True, "max |P - P_d| = 0"),
    "roll_intervention_exceeds": ("roll_intervention", False, "max |P - P_d| = 0 (> 0.0)"),
    "v_t_drops_below": ("v_t_drops_below", False, "min V_T = 161.32 (< 0.0)"),
    "max_abs_down": ("max_abs_down", False, "max |d| = 50 (<= 0.0)"),
    "no_warnings": ("no_warnings", True, "0 warning steps"),
    "max_final_pos_err": ("max_final_pos_err", False, "final error = 49.8243 m"),
}


def test_every_threshold_yields_one_check_line():
    """Each threshold key the loader accepts yields its one line of ``evaluate_checks``; set
    together they keep the table's order, and an abort the scenario does not allow
    yields the ``no_abort`` line."""
    fig3 = edited("fig3", (("t_final",), 1.0))
    aborting = edited("step_offset", (("t_final",), 30.0), (("initial_state", "psi"), 0.0),
                      (("initial_state", "V_T"), 2.0), (("goal", "v_g"), [0.5, 0.0, 0.0]))
    runs = {}
    for raw in (fig3, aborting):
        log, met = run_scenario(scenario_from_dict(raw))
        runs[met.aborted] = (log, met)
    assert set(runs) == {False, True}
    assert set(THRESHOLDS) == set(THRESHOLD_LINES)

    def lines_of(base, checks, aborted):
        raw = copy.deepcopy(base)
        raw["checks"] = checks
        return evaluate_checks(scenario_from_dict(raw), *runs[aborted])[1]

    for key, value in THRESHOLDS.items():
        aborted = key == "allow_abort"
        assert lines_of(aborting if aborted else fig3, {key: value}, aborted) == [THRESHOLD_LINES[key]], key
    together = [key for key in THRESHOLD_LINES if key != "allow_abort"]
    lines = lines_of(fig3, {key: THRESHOLDS[key] for key in together}, False)
    assert lines == [THRESHOLD_LINES[key] for key in together]
    assert lines_of(aborting, {}, True) == [("no_abort", False, f"run aborted: {SPEED_FLOOR}")]
