"""Trajectory log export: CSV (fixed column contract), JSON and SVG.

The CSV and the JSON follow :data:`~fwrta.simulate.LOG_COLUMNS`, the one
table of the log's columns: each writes ``t`` first and then the table's
columns in its order, the state ``x`` first, the CSV only those that carry
a CSV header.
The CSV's columns, in order::

    t,n,e,d,phi,theta,psi,V_T,A_T_d,P_d,Q_d,A_T,P,Q,h_p,h_1..h_N,h_mode,intervening

The JSON's ``columns`` hold every column of the log by its table name.
Flags are written as 0/1, and floats with shortest round-trip ``repr``
(the JSON's by the standard library's C encoder, on one line), so
identical runs produce byte-identical files.

Both writers open the file once and format and write :data:`BLOCK` rows
at a time, each chunk as soon as it is formatted, so neither holds the
whole file, or a Python object per value of the log, at once.  The JSON is
the bytes ``json.dumps`` gives for the whole document: the envelope and each
column chunk are encoded by it, and a column's chunks are joined by its item
separator ``", "``.  Measured with tracemalloc on fig3 between 3001 and
12001 rows, each extra row adds 2 B to ``write_csv``'s peak and 0.75 B to
``write_json``'s, which are 1.19 and 1.04 MB at 3001 rows.

Both are close to the cost of formatting alone.  On the ``intruder-extended``
benchmark log (seed 0, 3001 rows; min of 15 on a 2-vCPU host),
``write_csv`` takes 28.2 ms against 25.2 ms for a bare ``repr`` of its
54018 values, and ``write_json`` 31.7 ms against 30.2 ms for one
``json.dumps`` of its 60020 values.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .constraints import GeofencePlane, MovingObstacle
from .scenario import Scenario
from .simulate import LOG_COLUMNS, MEMBERS, Metrics, TrajectoryLog

# Rows the CSV and JSON writers format and write at a time: an export's memory beyond
# the log's arrays is bounded by one block.
BLOCK = 1024


def _written(column: np.ndarray) -> np.ndarray:
    """A log column as the exports write it: a flag as 0/1."""
    return column.astype(int) if column.dtype == bool else column


def csv_header(member_count: int) -> str:
    names = ["t"]
    for _, width, _, csv in LOG_COLUMNS:
        if csv is not None:
            names.append(",".join(csv.format(i + 1) for i in range(member_count)) if width is MEMBERS else csv)
    return ",".join(names)


def write_csv(log: TrajectoryLog, path: str | Path) -> Path:
    path = Path(path)
    arrays = [log.t] + [log.columns[name] for name, _, _, csv in LOG_COLUMNS if csv is not None]
    with path.open("w") as fh:
        fh.write(csv_header(log.member_count) + "\n")
        for i in range(0, len(log.t), BLOCK):
            # one tolist() per CSV column of the block: its values are Python floats
            # and ints, whose repr is the format
            chunks = [_written(a[i:i + BLOCK]) for a in arrays]
            fields = [map(repr, c) for a in chunks for c in (a.T.tolist() if a.ndim == 2 else [a.tolist()])]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
    return path


def write_json(log: TrajectoryLog, met: Metrics, path: str | Path) -> Path:
    path = Path(path)
    head = {"schema": "fwrta-log/1", "scenario": log.scenario, "mode": log.mode, "dt": log.dt, "abort": log.abort}
    metrics = {k: v for k, v in dataclasses.asdict(met).items() if k != "p_dev_bit_exact"}
    with path.open("w") as fh:
        # the document {**head, "columns": {...}, "metrics": metrics}, one column chunk at a time
        fh.write(json.dumps(head)[:-1] + ', "columns": {')
        for j, (name, column) in enumerate({"t": log.t, **log.columns}.items()):
            fh.write(f'{", " if j else ""}{json.dumps(name)}: [')
            for i in range(0, len(column), BLOCK):
                fh.write((", " if i else "") + json.dumps(_written(column[i:i + BLOCK]).tolist())[1:-1])
            fh.write("]")
        fh.write('}, "metrics": ' + json.dumps(metrics) + "}")
    return path


class _Panel:
    """Minimal line-plot panel with linear data-to-pixel mapping."""

    def __init__(self, x0, y0, w, h, xlim, ylim, title):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.xmin, self.xmax = xlim
        self.ymin, self.ymax = ylim
        if self.xmax <= self.xmin:
            self.xmax = self.xmin + 1.0
        if self.ymax <= self.ymin:
            self.ymax = self.ymin + 1.0
        self.title = title
        self.parts: list[str] = []

    def line(self, xs, ys, color, width=1.2, dash=None):
        """A polyline through the points, each pixel position taken once: a point is
        kept only when it lies at least half a pixel from the last point kept."""
        px = (self.x0 + (np.asarray(xs, dtype=float) - self.xmin) / (self.xmax - self.xmin) * self.w).tolist()
        py = (self.y0 + self.h - (np.asarray(ys, dtype=float) - self.ymin) / (self.ymax - self.ymin) * self.h).tolist()
        pts, kx, ky = [], math.inf, math.inf  # the first point is always kept
        for x, y in zip(px, py):
            if (x - kx) * (x - kx) + (y - ky) * (y - ky) >= 0.25:
                kx, ky = x, y
                pts.append(f"{x:.2f},{y:.2f}")
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{d} points="{" ".join(pts)}"/>'
        )

    def hline(self, y, color, dash="4 3"):
        self.line([self.xmin, self.xmax], [y, y], color, width=0.8, dash=dash)

    def svg(self):
        frame = (
            f'<rect x="{self.x0}" y="{self.y0}" width="{self.w}" height="{self.h}" '
            f'fill="white" stroke="#555"/>'
            f'<text x="{self.x0 + 4}" y="{self.y0 + 14}" font-size="12" fill="#333">{self.title}</text>'
            f'<text x="{self.x0}" y="{self.y0 + self.h + 12}" font-size="9" fill="#777">'
            f"x: [{self.xmin:.4g}, {self.xmax:.4g}]  y: [{self.ymin:.4g}, {self.ymax:.4g}]</text>"
        )
        return frame + "".join(self.parts)


def write_svg(log: TrajectoryLog, scn: Scenario, path: str | Path) -> Path:
    """Ground track with constraint geometry, barrier traces and inputs."""
    path = Path(path)
    W, H, pad = 820, 900, 45
    ph = (H - 4 * pad) / 3

    n, e = log.x[:, 0], log.x[:, 1]
    t_end = float(log.t[-1]) if len(log.t) else 1.0

    # panel 1: ground track (east on x, north on y)
    obs_paths = []
    for m in scn.cset.members:
        if isinstance(m, MovingObstacle):
            pts = np.array([m.trajectory(t)[0] for t in np.linspace(0.0, t_end, 50)])
            obs_paths.append(pts)
    all_e = np.concatenate([e] + [p[:, 1] for p in obs_paths]) if obs_paths else e
    all_n = np.concatenate([n] + [p[:, 0] for p in obs_paths]) if obs_paths else n
    mgn = 0.05 * max(np.ptp(all_e), np.ptp(all_n), 1.0)
    ground = _Panel(
        pad, pad, W - 2 * pad, ph,
        (all_e.min() - mgn, all_e.max() + mgn),
        (all_n.min() - mgn, all_n.max() + mgn),
        f"ground track  ({log.scenario}, {log.mode})",
    )
    for m in scn.cset.members:
        if isinstance(m, GeofencePlane):
            nv = np.asarray(m.normal[:2])  # (n, e) components
            if np.linalg.norm(nv) < 1e-12:
                continue
            base = np.asarray(m.point[:2]) + m.rho * nv
            tang = np.array([-nv[1], nv[0]])
            tang /= np.linalg.norm(tang)
            span = 4.0 * max(ground.xmax - ground.xmin, ground.ymax - ground.ymin)
            a = base - span * tang
            b = base + span * tang
            ground.line([a[1], b[1]], [a[0], b[0]], "#c0392b", width=1.5, dash="6 4")
    for pts in obs_paths:
        ground.line(pts[:, 1], pts[:, 0], "#8e44ad", width=1.0, dash="2 3")
    ground.line(e, n, "#1f77b4", width=1.6)

    # panel 2: barrier traces
    hs = [log.h_p, log.h_mode] + [log.h_members[:, i] for i in range(log.member_count)]
    lo = min(min(h.min() for h in hs), 0.0)
    hi = max(h.max() for h in hs)
    barriers = _Panel(pad, 2 * pad + ph, W - 2 * pad, ph, (0.0, t_end), (lo, hi), "barriers h(t)")
    barriers.hline(0.0, "#999")
    colors = ["#2ca02c", "#ff7f0e", "#17becf", "#bcbd22", "#e377c2"]
    for i in range(log.member_count):
        barriers.line(log.t, log.h_members[:, i], colors[(i + 2) % len(colors)], width=0.9)
    barriers.line(log.t, log.h_p, colors[0], width=1.4)
    barriers.line(log.t, log.h_mode, colors[1], width=1.4, dash="5 3")

    # panel 3: inputs
    us = [log.u[:, i] for i in range(3)] + [log.u_d[:, i] for i in range(3)]
    lo3 = min(u.min() for u in us)
    hi3 = max(u.max() for u in us)
    inputs = _Panel(pad, 3 * pad + 2 * ph, W - 2 * pad, ph, (0.0, t_end), (lo3, hi3), "inputs u(t) (desired dashed)")
    for i, c in enumerate(("#1f77b4", "#d62728", "#2ca02c")):
        inputs.line(log.t, log.u_d[:, i], c, width=0.8, dash="3 3")
        inputs.line(log.t, log.u[:, i], c, width=1.3)

    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}"><rect width="{W}" height="{H}" fill="#fafafa"/>'
        + ground.svg() + barriers.svg() + inputs.svg() + "</svg>"
    )
    path.write_text(doc)
    return path


def export(log: TrajectoryLog, met: Metrics, scn: Scenario, fmt: str, out_dir: str | Path) -> Path:
    """Write one artifact of the requested format into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = out / f"{log.scenario}_{log.mode}"
    if fmt == "csv":
        return write_csv(log, base.with_suffix(".csv"))
    if fmt == "json":
        return write_json(log, met, base.with_suffix(".json"))
    if fmt == "svg":
        return write_svg(log, scn, base.with_suffix(".svg"))
    raise ValueError(f"unknown export format: {fmt!r}")
