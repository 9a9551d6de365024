"""Command-line interface: ``run``, ``check`` and ``sweep``.

Exit codes: 0 ok, 1 threshold violation, 2 schema/IO/usage error, 3 numerical
abort (``check`` included, unless the scenario sets ``allow_abort``).
``RTA_OUT_DIR`` supplies the default output root.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from .errors import FwrtaError, ScenarioError
from .export import export
from .scenario import load_scenario, scenario_from_dict
from .simulate import evaluate_checks, run_scenario, sweep


def _out_dir(args) -> str:
    """``--out`` if given, else ``RTA_OUT_DIR``, else ``out``."""
    return os.environ.get("RTA_OUT_DIR", "out") if args.out is None else args.out


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    overrides = {k: v for k, v in (("dt", args.dt), ("t_final", args.horizon)) if v is not None}
    if overrides:
        # rebuild so the overrides pass the loader's validation
        scn = scenario_from_dict({**scn.raw, **overrides}, origin=args.scenario)
    log, met = run_scenario(scn)
    path = export(log, met, scn, args.format, _out_dir(args))
    print(f"wrote {path}")
    print(
        f"{scn.name} [{scn.mode}]  min h_p = {met.min_h_p:.4g}  "
        f"min mode barrier = {met.min_h_mode:.4g}  "
        f"intervention = {met.intervention_time:.2f} s  "
        f"max |A_T|,|P|,|Q| = {met.max_abs_A_T:.4g}, {met.max_abs_P:.4g}, {met.max_abs_Q:.4g}"
    )
    if met.warning_count:
        print(f"warning steps: {met.warning_count}")
    if met.aborted:
        print(f"aborted: {met.abort_reason}")
        return 3
    return 0


def _cmd_check(args) -> int:
    scn = load_scenario(args.scenario)
    log, met = run_scenario(scn)
    passed, lines = evaluate_checks(scn, log, met)
    for name, ok, detail in lines:
        print(f"[{'PASS' if ok else 'FAIL'}] {scn.name}:{name}  {detail}")
    if not lines:
        print(f"[PASS] {scn.name}: no thresholds embedded")
    if any(name == "no_abort" and not ok for name, ok, _ in lines):
        return 3
    return 0 if passed else 1


# the Metrics fields a sweep row gives after the swept value, in column order; the
# aborted flag is written as 0/1
SWEEP_FIELDS = ("min_h_p", "min_h_mode", "intervention_time", "max_abs_A_T", "max_abs_P", "max_abs_Q",
                "final_pos_err", "warning_count", "aborted")


def _cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    rows = sweep(scn.raw, args.param, args.min, args.max, args.steps)
    lines = [",".join(("value", *SWEEP_FIELDS))]
    try:
        for v, met in rows:
            cells = (v, *(getattr(met, name) for name in SWEEP_FIELDS))
            lines.append(",".join(repr(int(c) if type(c) is bool else c) for c in cells))
    finally:
        # the values that ran are written also when a later one fails
        if len(lines) > 1:
            out = Path(_out_dir(args))
            out.mkdir(parents=True, exist_ok=True)
            # the path's "]" dropped and each other character outside [A-Za-z0-9_] written as
            # "_" ("constraints.members[0].radius" as "constraints_members_0_radius"), one
            # name per schema path (sweep refuses the free-form notes)
            path = out / f"{scn.name}_sweep_{re.sub(r'[^A-Za-z0-9_]', '_', args.param.replace(']', ''))}.csv"
            path.write_text("\n".join(lines) + "\n")
            print(f"wrote {path}")
            for line in lines:
                print(line)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; the output root's
    default is resolved per command (:func:`_out_dir`), so the parser holds no
    environment."""
    ap = argparse.ArgumentParser(prog="fwrta", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario and export the log")
    run_p.add_argument("--scenario", required=True, help="path or bundled name (fig3..fig6)")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    run_p.add_argument("--dt", type=float, default=None, help="override step size (s)")
    run_p.add_argument("--horizon", type=float, default=None, help="override horizon (s)")
    run_p.set_defaults(func=_cmd_run)

    chk = sub.add_parser("check", help="run and evaluate embedded thresholds")
    chk.add_argument("--scenario", required=True)
    chk.set_defaults(func=_cmd_check)

    sw = sub.add_parser("sweep", help="run across a parameter range")
    sw.add_argument("--scenario", required=True)
    sw.add_argument("--param", required=True, help="dotted path, e.g. constraints.kappa")
    sw.add_argument("--min", type=float, required=True)
    sw.add_argument("--max", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except FwrtaError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
