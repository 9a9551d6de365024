"""Closed-loop step benchmark of fwrta.

Run from the repository root:

    python3 perfbench/run.py --workload intruder-extended --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result
object; a readable summary precedes it, and the full record (slices,
checks, environment, spans) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fwrta" / "__init__.py").is_file():
        print(f"perfbench: fwrta sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, code = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if code == 0:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
