"""One-shot spellings of the CSV and JSON writers.

Each builds its whole file as one string, in one call: the JSON by one
``json.dumps`` of the whole document, the CSV by one ``tolist()`` per column.
:mod:`fwrta.export` writes the same bytes a block of rows at a time, so
these are the oracle its chunk boundaries are checked against, not a second
run-time path.
"""

from __future__ import annotations

import dataclasses
import json

from fwrta.export import _written, csv_header
from fwrta.simulate import LOG_COLUMNS


def csv_text(log) -> str:
    arrays = [log.t] + [_written(log.columns[name]) for name, _, _, csv in LOG_COLUMNS if csv is not None]
    fields = [map(repr, c) for a in arrays for c in (a.T.tolist() if a.ndim == 2 else [a.tolist()])]
    return "\n".join([csv_header(log.member_count), *map(",".join, zip(*fields))]) + "\n"


def json_text(log, met) -> str:
    doc = {
        "schema": "fwrta-log/1",
        "scenario": log.scenario,
        "mode": log.mode,
        "dt": log.dt,
        "abort": log.abort,
        "columns": {"t": log.t.tolist(), **{name: _written(c).tolist() for name, c in log.columns.items()}},
        "metrics": {k: v for k, v in dataclasses.asdict(met).items() if k != "p_dev_bit_exact"},
    }
    return json.dumps(doc)
