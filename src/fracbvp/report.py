"""Convergence reports and flat-file emission (CSV, JSON, Markdown)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

CSV_HEADER = "M,err_max,err_l2,rate,wall_seconds"


@dataclass
class ReportRow:
    M: int
    err_max: float
    err_l2: float
    rate: Optional[float]  # log(E_prev/E)/log(M/M_prev); None on the first row
    wall_seconds: float


@dataclass
class ConvergenceReport:
    """Rows of per-grid errors plus the study metadata that produced them."""

    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[int, float, float, float]],
                  metadata: dict) -> "ConvergenceReport":
        """Build from (M, err_max, err_l2, seconds) tuples, filling rates."""
        out: list[ReportRow] = []
        prev: Optional[tuple[int, float]] = None
        for M, emax, el2, secs in rows:
            rate = None
            if prev is not None and emax > 0.0 and prev[1] > 0.0:
                rate = float(np.log2(prev[1] / emax) / np.log2(M / prev[0]))
            out.append(ReportRow(int(M), float(emax), float(el2), rate, float(secs)))
            prev = M, emax
        return cls(rows=out, metadata=dict(metadata))


def _fmt(v: float) -> str:
    return format(float(v), ".16e")


def _meta_lines(metadata: dict) -> list[str]:
    return [f"# {k}={metadata[k]}" for k in sorted(metadata)]


def emit_report(report: ConvergenceReport, fmt: str, path) -> Path:
    """Write a report as csv, json or markdown; returns the path.  An
    unknown format is refused before anything is written."""
    if fmt == "csv":
        lines = _meta_lines(report.metadata) + [CSV_HEADER]
        for r in report.rows:
            rate = "" if r.rate is None else _fmt(r.rate)
            lines.append(f"{r.M},{_fmt(r.err_max)},{_fmt(r.err_l2)},{rate},{_fmt(r.wall_seconds)}")
    elif fmt == "json":
        doc = {
            "metadata": report.metadata,
            "rows": [
                {"M": r.M, "err_max": r.err_max, "err_l2": r.err_l2,
                 "rate": r.rate, "wall_seconds": r.wall_seconds}
                for r in report.rows
            ],
        }
        lines = [json.dumps(doc, indent=2, sort_keys=True)]
    elif fmt == "markdown":
        lines = _meta_lines(report.metadata)
        lines += ["", "| M | E_max | E_l2 | rate | wall (s) |",
                  "|---:|---:|---:|---:|---:|"]
        for r in report.rows:
            rate = "" if r.rate is None else f"{r.rate:.2f}"
            lines.append(f"| {r.M} | {r.err_max:.3e} | {r.err_l2:.3e} "
                         f"| {rate} | {r.wall_seconds:.2f} |")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def parse_report_json(path) -> ConvergenceReport:
    """Inverse of :func:`emit_report` for the json format."""
    doc = json.loads(Path(path).read_text())
    rows = [ReportRow(r["M"], r["err_max"], r["err_l2"], r["rate"],
                      r["wall_seconds"]) for r in doc["rows"]]
    return ConvergenceReport(rows=rows, metadata=doc["metadata"])


def emit_nodal(path, header: str, x, column, metadata: Optional[dict] = None) -> Path:
    """Write a CSV file of one column of per-node values after the nodes
    ``x``, under the metadata and the column ``header``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = _meta_lines(metadata or {}) + [header]
    lines += [f"{_fmt(xi)},{_fmt(vi)}" for xi, vi in zip(x, column)]
    path.write_text("\n".join(lines) + "\n")
    return path
