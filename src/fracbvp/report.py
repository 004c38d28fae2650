"""Convergence reports and flat-file emission (CSV, JSON, Markdown)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .grids import GridFunction

CSV_HEADER = "M,err_max,err_l2,rate,wall_seconds"


@dataclass
class ReportRow:
    M: int
    err_max: float
    err_l2: float
    rate: Optional[float]  # log2(E(2h)/E(h)); None on the first row
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
        prev: Optional[float] = None
        for M, emax, el2, secs in rows:
            rate = None
            if prev is not None and emax > 0.0 and prev > 0.0:
                rate = float(np.log2(prev / emax))
            out.append(ReportRow(int(M), float(emax), float(el2), rate, float(secs)))
            prev = emax
        return cls(rows=out, metadata=dict(metadata))

    def errors(self) -> list[float]:
        return [r.err_max for r in self.rows]

    def rates(self) -> list[float]:
        return [r.rate for r in self.rows if r.rate is not None]


def _fmt(v: float) -> str:
    return format(float(v), ".16e")


def _meta_lines(metadata: dict) -> list[str]:
    return [f"# {k}={metadata[k]}" for k in sorted(metadata)]


def emit_report(report: ConvergenceReport, fmt: str, path) -> Path:
    """Write a report as csv, json or markdown; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = _meta_lines(report.metadata) + [CSV_HEADER]
        for r in report.rows:
            rate = "" if r.rate is None else _fmt(r.rate)
            lines.append(f"{r.M},{_fmt(r.err_max)},{_fmt(r.err_l2)},{rate},{_fmt(r.wall_seconds)}")
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        doc = {
            "metadata": report.metadata,
            "rows": [
                {"M": r.M, "err_max": r.err_max, "err_l2": r.err_l2,
                 "rate": r.rate, "wall_seconds": r.wall_seconds}
                for r in report.rows
            ],
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif fmt == "markdown":
        lines = _meta_lines(report.metadata)
        lines += ["", "| M | E_max | E_l2 | rate | wall (s) |",
                  "|---:|---:|---:|---:|---:|"]
        for r in report.rows:
            rate = "" if r.rate is None else f"{r.rate:.2f}"
            lines.append(f"| {r.M} | {r.err_max:.3e} | {r.err_l2:.3e} "
                         f"| {rate} | {r.wall_seconds:.2f} |")
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def parse_report_json(path) -> ConvergenceReport:
    """Inverse of :func:`emit_report` for the json format."""
    doc = json.loads(Path(path).read_text())
    rows = [ReportRow(r["M"], r["err_max"], r["err_l2"], r["rate"],
                      r["wall_seconds"]) for r in doc["rows"]]
    return ConvergenceReport(rows=rows, metadata=doc["metadata"])


def emit_pointwise_error(solution: GridFunction, exact_or_reference, path,
                         metadata: Optional[dict] = None) -> Path:
    """Write per-node absolute errors as an ``x,abs_error`` CSV file.

    ``exact_or_reference`` is either a callable/PowerSum evaluated at the
    solution's nodes or a :class:`GridFunction` on the same grid.
    """
    x = solution.grid.nodes()
    if isinstance(exact_or_reference, GridFunction):
        if exact_or_reference.grid != solution.grid:
            raise ValueError("reference grid does not match the solution grid")
        ref = exact_or_reference.values
    else:
        ref = np.asarray(exact_or_reference(x), dtype=float)
    err = np.abs(solution.values - ref)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = _meta_lines(metadata or {}) + ["x,abs_error"]
    lines += [f"{_fmt(xi)},{_fmt(ei)}" for xi, ei in zip(x, err)]
    path.write_text("\n".join(lines) + "\n")
    return path
