"""A run holds the log's own arrays and no row beyond them, and the exports are
written a block of rows at a time, holding one block beyond the log's arrays.

``log_oracle`` keeps the one-shot run and ``export_oracle`` the one-shot
writers: the log must equal the first's in every array, and every chunk
boundary must give the second's bytes.  The memory bounds were measured
first, with tracemalloc on fig3.  Between 3001 and 12001 steps,
``integrate``'s peak grows by 162 B per step, the log's own bytes per row,
and each export's peak by at most 2 B per row; at 3001 steps the peaks are
0.49 MB (``integrate``), 1.19 MB (CSV) and 1.04 MB (JSON).  At the smaller
export blocks and horizons of :class:`TestMemory`, each traced run preceded
by an untraced one, they grow by 161.97, -0.7 to 0.1 (CSV) and 6.3 to 6.5
(JSON) B, run alone, in this module and in the whole suite (CPython 3.11).
The 0.03 B short of 162 is 16 B over the 512 rows the two runs differ by:
the log object's instance dictionary, which CPython sizes 16 B smaller for
each of a process's first few logs, so it only lowers the slope.  A run
that keeps every row as a tuple until its end, and the one-shot writers,
grow by 751, 1152 (CSV) and 1269 (JSON) B.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import export_oracle
import log_oracle
from conftest import speed_floor
from fwrta import export, simulate
from fwrta.errors import SingularSpeed
from fwrta.export import BLOCK, write_csv, write_json
from fwrta.scenario import load_scenario, scenario_from_dict
from fwrta.simulate import TrajectoryLog, integrate, metrics_from_log


def fig3(rows: int):
    """fig3 cut to a horizon of ``rows`` logged rows."""
    scn = load_scenario("fig3")
    return scenario_from_dict({**scn.raw, "t_final": (rows - 1) * scn.dt})


def singular_track(*args, **kwargs):
    raise SingularSpeed("V_T at the floor")


def head(log: TrajectoryLog, n: int) -> TrajectoryLog:
    """The log's first ``n`` rows."""
    return dataclasses.replace(log, t=log.t[:n], columns={k: c[:n] for k, c in log.columns.items()})


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.fixture(scope="module")
def run():
    scn = fig3(2 * BLOCK + 1)
    log = integrate(scn)
    return log, metrics_from_log(log, scn)


def written(log, met, tmp_path):
    return (write_csv(log, tmp_path / "log.csv").read_text(), write_json(log, met, tmp_path / "log.json").read_text())


class TestChunks:
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_bytes_at_chunk_boundaries(self, run, n, tmp_path):
        log, met = run
        log = head(log, n)
        assert written(log, met, tmp_path) == (export_oracle.csv_text(log), export_oracle.json_text(log, met))

    def test_non_finite_values_and_flags(self, run, tmp_path):
        # NaN and +-inf in a float column and in the state, on both sides of a chunk
        # boundary, both values of both flags, and quotes in the abort reason: each
        # spelled as the one-shot writers spell it (nan/inf in the CSV, NaN/Infinity in
        # the JSON)
        log, met = run
        log = head(log, BLOCK + 2)
        log = dataclasses.replace(log, columns={k: c.copy() for k, c in log.columns.items()},
                                  abort='SingularSpeed: "V_T" below the floor')
        for k, v in ((0, math.nan), (BLOCK - 1, math.inf), (BLOCK, -math.inf), (BLOCK + 1, math.nan)):
            log.h_p[k] = v
            log.x[k, 6] = -v
        log.intervening[::2] = True
        log.intervening[1::2] = False
        log.warn[::3] = True
        met = dataclasses.replace(met, min_h_p=math.nan, max_abs_P=math.inf)
        csv, doc = written(log, met, tmp_path)
        assert (csv, doc) == (export_oracle.csv_text(log), export_oracle.json_text(log, met))
        assert ",nan," in csv and ",inf," in csv and ",-inf," in csv
        assert "NaN" in doc and "Infinity" in doc and "-Infinity" in doc
        assert '"intervening": [1, 0, 1,' in doc and '"warn": [1, 0, 0, 1,' in doc


class TestMemory:
    # At the real BLOCK, fig3's 3001- and 12001-step runs show the same slopes (module
    # docstring), but traced they take about 12 s; here the export blocks are smaller
    # and the horizons whole multiples of them.
    SMALL = 64

    def peaks(self, rows, tmp_path):
        """tracemalloc peaks of integrate, write_csv and write_json on fig3, and the log's
        bytes per row.

        One untraced run of the same scenario comes first, so the interpreter's caches
        and free lists are in the same state when each traced run starts, whatever ran
        before: the two runs' constant overheads then cancel in the slope."""
        scn = fig3(rows)
        integrate(scn)
        tracemalloc.start()
        try:
            log = integrate(scn)
            run = tracemalloc.get_traced_memory()[1]
            met = metrics_from_log(log, scn)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            write_csv(log, tmp_path / "log.csv")
            csv = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            write_json(log, met, tmp_path / "log.json")
            json = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(log.t) == rows and log.abort is None
        owners = {id(a): a for a in map(owner, (log.t, *log.columns.values()))}
        # the float columns, the state included, are views of the one row array
        assert len({id(owner(c)) for c in log.columns.values() if c.dtype == float}) == 1
        return np.array([run, csv, json]), sum(a.nbytes for a in owners.values()) / rows

    def test_peak_per_step(self, monkeypatch, tmp_path):
        monkeypatch.setattr(export, "BLOCK", self.SMALL)
        short, long = 2 * self.SMALL + 1, 10 * self.SMALL + 1
        (p0, _), (p1, retained) = self.peaks(short, tmp_path), self.peaks(long, tmp_path)
        run, csv, json = (p1 - p0) / (long - short)
        assert retained == 162  # t, the row array (19 columns, x included) and two flags
        assert run <= retained, f"integrate's peak grows {run:.0f} B/step"
        assert csv < 16 and json < 16, f"export peaks grow {csv:.0f} (CSV) and {json:.0f} (JSON) B/row"

    @pytest.mark.parametrize("block", [BLOCK, 100])
    def test_aborted_run_holds_its_rows(self, block, monkeypatch, tmp_path):
        # the speed floor's abort after 484 rows and an abort at step 0: the arrays hold
        # the run's rows, not the horizon's, and export blocks of ``block`` rows (the 484
        # within the first block, or after four whole blocks of 100) give the one-shot
        # writers' bytes
        monkeypatch.setattr(export, "BLOCK", block)
        scn = speed_floor()
        logs = [integrate(scn)]
        met = metrics_from_log(logs[0], scn)
        assert written(logs[0], met, tmp_path) == (export_oracle.csv_text(logs[0]), export_oracle.json_text(logs[0], met))
        monkeypatch.setattr(simulate, "track", singular_track)
        logs.append(integrate(fig3(3001)))
        assert write_csv(logs[1], tmp_path / "empty.csv").read_text() == export_oracle.csv_text(logs[1])
        for log in logs:
            assert "SingularSpeed" in log.abort
            n = len(log.t)
            for a in (log.t, *log.columns.values()):
                assert owner(a).shape[0] == n
        assert len(logs[0].t) == 484 and len(logs[1].t) == 0


class TestLog:
    @pytest.mark.parametrize("run", ["fig3", "fig4", "fig5", "fig6", "step_offset", "speed floor", "step 0"])
    def test_log_equals_one_shot_oracle(self, run, monkeypatch):
        # every array of the log, in dtype, shape and bytes, and the abort: the bundled
        # scenarios at 2 s horizons, the speed floor's abort and an abort at step 0
        if run == "speed floor":
            scn = speed_floor()
        elif run == "step 0":
            monkeypatch.setattr(simulate, "track", singular_track)
            scn = fig3(3001)
        else:
            scn = scenario_from_dict({**load_scenario(run).raw, "t_final": 2.0})
        log = integrate(scn)
        t, columns, abort = log_oracle.log_arrays(scn)
        assert log.abort == abort and (abort is None) == (run not in ("speed floor", "step 0"))
        assert list(log.columns) == list(columns)
        for name, a, b in (("t", log.t, t), *((name, log.columns[name], c) for name, c in columns.items())):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
