"""Convergence reports: rates and CSV, Markdown and JSON emission."""

import pytest

from fracbvp.report import CSV_HEADER, ConvergenceReport, emit_report, parse_report_json

ROWS = [(64, 1.6e-3, 4.0e-4, 0.5), (128, 4.0e-4, 1.0e-4, 1.25)]
META = {"problem": "ex1-case1", "beta": 1.5, "corrected": False}


def _report():
    return ConvergenceReport.from_rows(ROWS, META)


def test_rates_from_rows():
    report = _report()
    assert report.errors() == [1.6e-3, 4.0e-4]
    assert report.rows[0].rate is None
    assert report.rates() == [pytest.approx(2.0)]


def test_csv(tmp_path):
    lines = emit_report(_report(), "csv", tmp_path / "r.csv").read_text().splitlines()
    assert lines[:4] == ["# beta=1.5", "# corrected=False", "# problem=ex1-case1",
                         CSV_HEADER]
    first = lines[4].split(",")
    assert first[0] == "64" and first[3] == ""
    assert float(first[1]) == 1.6e-3 and float(first[4]) == 0.5
    second = lines[5].split(",")
    assert second[0] == "128" and float(second[3]) == pytest.approx(2.0)
    assert len(lines) == 6


def test_markdown(tmp_path):
    text = emit_report(_report(), "markdown", tmp_path / "r.md").read_text()
    assert "| M | E_max | E_l2 | rate | wall (s) |" in text
    assert "| 64 | 1.600e-03 | 4.000e-04 |  | 0.50 |" in text
    assert "| 128 | 4.000e-04 | 1.000e-04 | 2.00 | 1.25 |" in text


def test_json_round_trip(tmp_path):
    report = _report()
    back = parse_report_json(emit_report(report, "json", tmp_path / "r.json"))
    assert back.rows == report.rows
    assert back.metadata == report.metadata


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(_report(), "xml", tmp_path / "r.xml")
