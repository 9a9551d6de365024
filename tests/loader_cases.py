"""Single-fault variants of the bundled scenarios and the loader's outcome on each.

Each case changes one thing in one bundled scenario: a node (an object,
a list or a leaf) set to another value, a field or list entry deleted,
an unknown field added to an object, another ``rta_mode``, or another
``safety_filter.mode`` with another ``nu``.  :func:`outcome` reads the
loader's result as one line: the exception type and message, or the
constructed :class:`fwrta.scenario.Scenario`'s fields.

Run as a script, it writes one ``case<TAB>outcome`` line per case, so two
checkouts of the loader can be compared case by case::

    PYTHONPATH=src python tests/loader_cases.py outcomes.txt
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import warnings

from fwrta.scenario import MODES, bundled_scenario_path, scenario_from_dict

NAMES = ("fig3", "fig4", "fig5", "fig6", "step_offset")
# what a node is set to: numbers of each sign and scale, the non-finite
# floats, every other JSON type, and a 3-vector of each kind
VALUES = (0, -1, 0.5, 2, 1e300, -1e300, 1e-300, float("nan"), float("inf"), -float("inf"),
          "x", True, None, [], {}, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
FILTER_MODES = ("hard", "smooth", "soft")
NUS = ("absent", 0.5, 0, -1, float("nan"), "x", None)


def bundled(name: str) -> dict:
    return json.loads(bundled_scenario_path(name).read_text())


def nodes(node, path=()):
    """The path (keys and list indices) of every node below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from nodes(child, path + (key,))


def dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _at(raw: dict, path):
    for key in path:
        raw = raw[key]
    return raw


def set_cases(name: str, values=VALUES):
    """``(case, raw)`` for every node of scenario ``name`` set to each of ``values``."""
    original = bundled(name)
    for path in nodes(original):
        for value in values:
            raw = copy.deepcopy(original)
            _at(raw, path[:-1])[path[-1]] = value
            yield f"{name} set {dotted(path)}={json.dumps(value)}", raw


def cases(values=VALUES):
    """Every single-fault ``(case, raw)`` of the bundled scenarios, each scenario as it is first."""
    for name in NAMES:
        original = bundled(name)
        yield f"{name} as is", original
        yield from set_cases(name, values)
        for path in nodes(original):
            raw = copy.deepcopy(original)
            del _at(raw, path[:-1])[path[-1]]
            yield f"{name} delete {dotted(path)}", raw
        for path in [(), *nodes(original)]:
            raw = copy.deepcopy(original)
            node = _at(raw, path)
            if isinstance(node, dict):
                node["bogus"] = 1.0
                yield f"{name} add {dotted((*path, 'bogus'))}", raw
        for mode in MODES:
            yield f"{name} rta_mode={mode}", {**copy.deepcopy(original), "rta_mode": mode}
        for mode in FILTER_MODES:
            for nu in NUS:
                raw = copy.deepcopy(original)
                raw["safety_filter"]["mode"] = mode
                raw["safety_filter"].pop("nu", None)
                if nu != "absent":
                    raw["safety_filter"]["nu"] = nu
                yield f"{name} safety_filter.mode={mode} nu={json.dumps(nu)}", raw


def outcome(raw) -> str:
    """The loader's result on ``raw``: ``Type: message``, or ``ok`` and the scenario's fields."""
    try:
        scn = scenario_from_dict(raw)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok " + repr([getattr(scn, f.name) for f in dataclasses.fields(scn) if f.name != "raw"])


def main(out: str) -> None:
    warnings.simplefilter("ignore")
    n = 0
    with open(out, "w") as fh:
        for case, raw in cases():
            fh.write(f"{case}\t{outcome(raw)}\n")
            n += 1
    print(f"{n} cases written to {out}")


if __name__ == "__main__":
    main(sys.argv[1])
