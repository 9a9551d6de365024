"""One-shot spelling of the run's log.

A plain loop over :func:`fwrta.simulate.make_controller` and
:func:`fwrta.kernels.rk4_step` that keeps every row the control law returns
in a list and makes the table with one ``np.array(rows)`` at the end.
:func:`fwrta.simulate.integrate` packs each row into the table as it is
returned, so this is the oracle its log is checked against, not a second
run-time path.
"""

from __future__ import annotations

import math

import numpy as np

from fwrta import kernels
from fwrta.errors import FwrtaError
from fwrta.simulate import LOG_COLUMNS, make_controller, row_columns


def log_arrays(scn):
    """``(t, columns, abort)`` of the scenario's run: ``columns`` by their
    :data:`~fwrta.simulate.LOG_COLUMNS` names, each in its dtype."""
    control = make_controller(scn)
    cols, width = row_columns(len(scn.cset.members))
    n_steps = int(round(scn.t_final / scn.dt))
    t, rows, abort = [], [], None
    x = tuple(scn.x0)
    for k in range(n_steps + 1):
        if not all(map(math.isfinite, x)):
            abort = "non-finite state"
            break
        try:
            row = control(x, k * scn.dt)
        except FwrtaError as exc:
            abort = f"{type(exc).__name__}: {exc}"
            break
        t.append(k * scn.dt)
        rows.append(row)
        if k < n_steps:
            x = kernels.rk4_step(x, row[cols["u"]], scn.dt, scn.gravity.g_d)
    table = np.array(rows, dtype=float).reshape(len(rows), width)
    columns = {name: table[:, cols[name]].astype(dtype) for name, _, dtype, _ in LOG_COLUMNS}
    return np.array(t, dtype=float), columns, abort
