"""The command-line interface in-process: exit codes, reports, reference cache."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from fracbvp import cli, study
from fracbvp.catalog import catalog
from fracbvp.report import parse_report_json
from fracbvp.solver import SchemeKind, SolverError
from fracbvp.study import reference_solution

EPS = np.finfo(float).eps

ROOT = Path(__file__).resolve().parents[1]

#: Frozen ex1-case2 rows (beta=1.5, WSGD, corrected, level-15 reference):
#: (M, err_max, err_l2) of the corrected fine field on grid 2M.
EX1_CASE2_ROWS = [
    (64, 2.1392300232625505e-05, 3.812911049744924e-06),
    (128, 5.546560985669746e-06, 7.175431894478194e-07),
    (256, 1.5137218454253087e-06, 1.3884930697663206e-07),
    (512, 4.1892490862394105e-07, 2.7353171875360176e-08),
]


@pytest.mark.parametrize("extra", [[], ["--alpha", "0"]])
def test_solve_on_krylov_grid(tmp_path, extra):
    out = tmp_path / "u.csv"
    argv = ["solve", "--example", "ex1-case1", "--grids", "8192", *extra,
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == "x,abs_error"
    assert len(rows) == 1 + 8193


def test_study_with_level15_reference_matches_frozen_rows(tmp_path, fresh_cache):
    out = tmp_path / "study.json"
    argv = ["study", "--example", "ex1-case2", "--correct", "--format", "json",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    report = parse_report_json(out)
    assert report.metadata["reference"] == "level-15"
    assert report.metadata["backward_error_bound"] == 2.0 ** -42
    assert [r.M for r in report.rows] == [M for M, _, _ in EX1_CASE2_ROWS]
    for row, (M, e_max, e_l2) in zip(report.rows, EX1_CASE2_ROWS):
        floor = EPS * (2 * M) ** 1.5
        for got, want in ((row.err_max, e_max), (row.err_l2, e_l2)):
            assert abs(got - want) <= 1e-6 * abs(want) + floor, (M, got, want)


def test_decreasing_grids_are_a_config_error():
    argv = ["study", "--example", "ex1-case1", "--grids", "128", "64"]
    assert cli.main(argv) == cli.EXIT_CONFIG


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise SolverError("no convergence")

    monkeypatch.setattr(cli, "solve_bvp", fail)
    argv = ["solve", "--example", "ex1-case1", "--grids", "64",
            "--out", str(tmp_path / "u.csv")]
    assert cli.main(argv) == cli.EXIT_SOLVER


def test_reference_cache_in_memory_then_on_disk(tmp_path, monkeypatch, fresh_cache):
    spec = catalog("ex1-case2", 1.5)
    first = reference_solution(spec, SchemeKind.WSGD, 8, cache_dir=str(tmp_path))

    def solve_again(*args, **kwargs):
        raise AssertionError("the reference was solved again")

    monkeypatch.setattr(study, "_solve_reference", solve_again)
    from_memory = reference_solution(spec, SchemeKind.WSGD, 8)
    np.testing.assert_array_equal(from_memory.values, first.values)

    fresh_cache.clear()
    from_disk = reference_solution(spec, SchemeKind.WSGD, 8, cache_dir=str(tmp_path))
    np.testing.assert_array_equal(from_disk.values, first.values)

    fresh_cache.clear()
    with pytest.raises(AssertionError):
        reference_solution(spec, SchemeKind.WSGD, 8)


def test_time_study_matches_benchmark_rows(tmp_path):
    out = tmp_path / "timestudy.json"
    argv = ["timestudy", "--grids", "16", "64", "--correct", "--steps", "1000",
            "--format", "json", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    rows = parse_report_json(out).rows
    assert [r.M for r in rows] == [16, 64]
    for row in rows:
        spec = expected["operations"][f"ex3/M{row.M}/corrected"]
        ((M, e_max, e_l2),) = spec["rows"]
        # the benchmark's gate: |e - e0| <= 1e-6 |e0| + eps * (factor M)**beta
        floor = EPS * (spec["grid_factor"] * M) ** spec["beta"]
        for got, want in ((row.err_max, e_max), (row.err_l2, e_l2)):
            assert abs(got - want) <= 1e-6 * abs(want) + floor, (M, got, want)


def test_solve_without_exact_solution_writes_values(tmp_path):
    out = tmp_path / "u.csv"
    argv = ["solve", "--example", "ex1-case2", "--grids", "64", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == "x,u"
    assert len(rows) == 1 + 65


def test_exact_study_needs_no_reference_level(tmp_path, fresh_cache):
    out = tmp_path / "study.csv"
    argv = ["study", "--example", "ex1-case1", "--grids", "16384", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert not fresh_cache


def test_method_option_is_gone(tmp_path):
    argv = ["study", "--example", "ex1-case1", "--method", "dense",
            "--out", str(tmp_path / "study.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG


def _readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    usage = text.split("## Usage", 1)[1].split("\n## ", 1)[0]
    commands, pending = [], ""
    for line in usage.splitlines():
        line = line.strip()
        if pending or line.startswith("fracbvp "):
            pending += line
            if pending.endswith("\\"):
                pending = pending[:-1]
            else:
                commands.append(shlex.split(pending))
                pending = ""
    return commands


def test_readme_commands_succeed(tmp_path, monkeypatch, fresh_cache):
    commands = _readme_commands()
    assert [argv[1] for argv in commands] == ["solve", "study", "timestudy"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "fracbvp"
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
