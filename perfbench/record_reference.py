"""Record the key metrics of every workload for the reference seeds.

Run from the repository root, on the commit the reference belongs to:

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``; ``checks.py`` compares each
benchmark run against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fwrta import scenario, simulate  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def main() -> None:
    doc = {"recorded_at": bench.git_sha(), "key_metrics": list(checks.KEY_METRICS), "workloads": {}}
    for name in WORKLOADS:
        table = doc["workloads"][name] = {}
        for seed in range(checks.REF_SEEDS):
            scn = scenario.scenario_from_dict(generate(name, seed))
            log = simulate.integrate(scn)
            table[str(seed)] = checks.key_metrics(simulate.metrics_from_log(log, scn))
        print(f"{name}: {checks.REF_SEEDS} seeds recorded")
    checks.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
