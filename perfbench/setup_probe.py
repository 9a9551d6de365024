"""Set-up time of one fresh interpreter, printed in seconds.

Reads a scenario dict as JSON on stdin, then times ``import fwrta``
through the scenario build (with its validation), ``make_controller``
and the first control call.  ``bench.py`` starts this with ``src`` on
``PYTHONPATH``.
"""

import json
import sys
import time


def main() -> None:
    raw = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    import fwrta  # noqa: F401  (the import is what is being timed)
    from fwrta import scenario, simulate

    scn = scenario.scenario_from_dict(raw)
    control = simulate.make_controller(scn)
    control(scn.x0.as_array(), 0.0)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
