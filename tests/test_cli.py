"""The command-line interface in-process: exit codes, reports, reference cache."""

import json
import os
import resource
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracbvp import cli, study
from fracbvp.catalog import catalog
from fracbvp.report import parse_report_json
from fracbvp.solver import PATHS, SchemeKind, SolverError, solve_bvp
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


def test_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    # argparse choices refuse an unknown --example before the catalog is
    # asked, so a KeyError that reaches main comes from a defect
    def fail(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(cli, "run_study", fail)
    argv = ["study", "--example", "ex1-case1", "--grids", "16",
            "--out", str(tmp_path / "s.csv")]
    with pytest.raises(KeyError):
        cli.main(argv)


def test_reference_cache_in_memory(monkeypatch, fresh_cache):
    first = reference_solution(catalog("ex1-case2", 1.5), SchemeKind.WSGD, 8)

    def solve_again(*args, **kwargs):
        raise AssertionError("the reference was solved again")

    monkeypatch.setattr(study, "_solve_reference", solve_again)
    # an equal problem built anew finds the cached values
    from_memory = reference_solution(catalog("ex1-case2", 1.5), SchemeKind.WSGD, 8)
    np.testing.assert_array_equal(from_memory.values, first.values)

    fresh_cache.clear()
    with pytest.raises(AssertionError):
        reference_solution(catalog("ex1-case2", 1.5), SchemeKind.WSGD, 8)


def test_reference_cache_tells_callable_rhs_apart(fresh_cache):
    base = catalog("ex1-case2", 1.5)
    one = replace(base, rhs=lambda x: np.full_like(x, 1.0))
    two = replace(base, rhs=lambda x: np.full_like(x, 2.0))
    u1 = reference_solution(one, SchemeKind.WSGD, 8).values
    u2 = reference_solution(two, SchemeKind.WSGD, 8).values
    np.testing.assert_array_equal(u2[1:-1] / u1[1:-1], 2.0)


def test_time_study_matches_benchmark_rows(tmp_path):
    out = tmp_path / "timestudy.json"
    argv = ["timestudy", "--grids", "16", "64", "--correct", "--tau", "1e-3",
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
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert values.shape == (65, 2)
    assert np.isfinite(values).all()


def test_solve_writes_the_pointwise_error_of_the_solve(tmp_path):
    # the .16e format round-trips every double, so the column is |u - exact|
    # of the same solve, bit for bit
    out = tmp_path / "u.csv"
    argv = ["solve", "--example", "ex1-case1", "--grids", "64", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == "x,abs_error"
    problem = catalog("ex1-case1", 1.5)
    u = solve_bvp(problem, 64, SchemeKind.WSGD)
    x = u.grid.nodes()
    written = np.loadtxt(rows[1:], delimiter=",")
    assert np.array_equal(written[:, 0], x)
    assert np.array_equal(written[:, 1], np.abs(u.values - problem.exact(x)))


@pytest.mark.parametrize("example,theta,rho_left,rho_right", [
    ("ex1-case1", "1", "0.5", "1.0"),
    ("ex1-case2", "0", "1.0", "0.5"),
])
def test_solve_header_records_the_problem_solved(tmp_path, example, theta,
                                                 rho_left, rho_right):
    out = tmp_path / "u.csv"
    argv = ["solve", "--example", example, "--alpha", "0", "--theta", theta,
            "--grids", "64", "--correct", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    header = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                  if line.startswith("# "))
    assert header == {"problem": example, "alpha": "0.0", "beta": "1.5",
                      "theta": f"{float(theta)}", "scheme": "wsgd",
                      "corrected": "True", "M": "64", "rho_left": rho_left,
                      "rho_right": rho_right, "guard_activations": "0"}


def test_solve_records_the_nodes_left_uncorrected(tmp_path):
    # at beta = 1.01 the guard fires on the 9 coarse nodes next to x = 1 of
    # the pair (4096, 8192): the corrected solve writes the raw errors there
    headers, errors = [], []
    for extra in ([], ["--correct"]):
        out = tmp_path / f"u{len(extra)}.csv"
        argv = ["solve", "--example", "ex1-case1", "--beta", "1.01",
                "--grids", "4096", *extra, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        headers.append(dict(line[2:].split("=", 1) for line in lines
                            if line.startswith("# ")))
        rows = [line for line in lines if line and not line.startswith("#")]
        errors.append(np.loadtxt(rows[1:], delimiter=",")[:, 1])
    assert [h["guard_activations"] for h in headers] == ["0", "9"]
    np.testing.assert_array_equal(errors[1][4087:4096], errors[0][4087:4096])
    assert np.all(errors[1][1:4087] != errors[0][1:4087])


def test_exact_study_needs_no_reference_level(tmp_path, fresh_cache):
    out = tmp_path / "study.csv"
    argv = ["study", "--example", "ex1-case1", "--grids", "16384", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert not fresh_cache


def test_method_option_is_gone(tmp_path):
    argv = ["study", "--example", "ex1-case1", "--method", "dense",
            "--out", str(tmp_path / "study.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["study", "--example", "ex1-case1", "--cache-dir", "x"],
    # the singular exponents are derived from beta and theta
    ["study", "--example", "ex1-case1", "--singular-exponent", "0.7"],
    # the time-dependent march takes no scheme or problem overrides
    ["timestudy", "--scheme", "fcd"],
    ["timestudy", "--theta", "0.5"],
    ["timestudy", "--alpha", "3"],
    ["timestudy", "--singular-exponent", "0.7"],
    # N = round(T / tau) reaches every step count
    ["timestudy", "--steps", "40"],
    # a solve writes nodal CSV only
    ["solve", "--example", "ex1-case1", "--format", "json"],
    # the reference level is derived from the grids
    ["study", "--example", "ex1-case2", "--ref-level", "15"],
])
def test_removed_options_are_config_errors(tmp_path, argv):
    argv = [*argv, "--grids", "16", "--out", str(tmp_path / "r.csv")]
    if argv[0] == "timestudy":
        argv += ["--tau", "0.25"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("option", [["--tau", "0"], ["--tau", "-1"], ["--tau", "inf"],
                                    ["--tau", "nan"], ["--tau", "1e-400"],
                                    ["--tau", "-0.0"]])
def test_invalid_time_step_is_a_config_error(tmp_path, capsys, option):
    out = tmp_path / "t.csv"
    argv = ["timestudy", "--grids", "16", *option, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "time step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau,code,steps", [("2", cli.EXIT_CONFIG, None),
                                             ("1", cli.EXIT_OK, 1)])
def test_time_step_of_no_steps_is_a_config_error(tmp_path, capsys, tau, code, steps):
    # round(T / tau) = 0 steps is refused; one step still marches
    out = tmp_path / "t.csv"
    argv = ["timestudy", "--grids", "16", "--tau", tau, "--out", str(out)]
    assert cli.main(argv) == code
    if steps is None:
        assert "time step 2.0 takes round(T / tau) = 0 steps to T = 1.0" in \
            capsys.readouterr().err
        assert not out.exists()
    else:
        assert f"# steps={steps}" in out.read_text().splitlines()


@pytest.mark.parametrize("tau", ["1e-300", "5e-324", "9.99e-7"])
def test_too_many_time_steps_is_a_config_error(tmp_path, tau):
    # the march would never end: in a subprocess with a timeout, so that a
    # march that starts fails here instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "t.csv"
    argv = ["timestudy", "--grids", "16", "--tau", tau, "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "fracbvp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_CONFIG, done.stderr
    assert f"more than MAX_STEPS = {study.MAX_STEPS}" in done.stderr
    assert not out.exists()


def _limit_address_space():
    # 2 GiB: room for the interpreter and numpy, but not for the 4 GiB of
    # nodes of a level-30 reference grid
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


@pytest.mark.parametrize("argv,error", [
    # the output's parent directory is a file
    (["study", "--example", "ex1-case1", "--grids", "16", "32",
      "--out", "{tmp}/file/x.csv"], "FileExistsError"),
    # grid 2**28 needs the level-30 reference
    (["study", "--example", "ex1-case2", "--grids", "268435456",
      "--out", "{tmp}/s.csv"], "MemoryError"),
])
def test_os_and_memory_errors_are_config_errors(tmp_path, argv, error):
    (tmp_path / "file").touch()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    done = subprocess.run([sys.executable, "-m", "fracbvp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert done.returncode == cli.EXIT_CONFIG, done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("fracbvp: configuration error: ") and error in line


@pytest.mark.parametrize("argv", [
    ["solve", "--example", "ex1-case2", "--grids", str(2 ** 63 - 1)],
    ["solve", "--example", "ex1-case2", "--grids", str(2 ** 63 - 2)],
    ["study", "--example", "ex1-case1", "--grids", str(2 ** 63 - 1)],
    # grid 2**62 needs the level-64 reference
    ["study", "--example", "ex1-case2", "--grids", str(2 ** 62)],
])
def test_grid_numpy_cannot_address_is_a_config_error(tmp_path, capsys,
                                                     fresh_cache, argv):
    out = tmp_path / "r.csv"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "numpy cannot address" in capsys.readouterr().err
    assert not out.exists() and not fresh_cache


@pytest.mark.parametrize("M", ["4", "6"])
def test_corrected_study_on_fewer_than_eight_intervals(tmp_path, capsys,
                                                       fresh_cache, M):
    # refused before the level-15 reference is built
    argv = ["study", "--example", "ex1-case2", "--grids", M, "8", "--correct",
            "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "even interval count >= 8" in capsys.readouterr().err
    assert not fresh_cache


def test_corrected_study_at_general_theta(tmp_path, fresh_cache):
    out = tmp_path / "s.json"
    argv = ["study", "--example", "ex2-case2", "--theta", "0.3", "--correct",
            "--grids", "16", "32", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    report = parse_report_json(out)
    assert (report.metadata["theta"], report.metadata["reference"]) == (0.3, "level-15")
    assert all(np.isfinite(row.err_max) for row in report.rows)


@pytest.mark.parametrize("M", ["4", "6"])
def test_corrected_march_on_fewer_than_eight_intervals(tmp_path, capsys, M):
    argv = ["timestudy", "--grids", M, "--tau", "0.25", "--correct",
            "--out", str(tmp_path / "t.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "even interval count >= 8" in capsys.readouterr().err


def test_most_time_steps_are_marched(monkeypatch, tmp_path):
    # the cap itself is allowed
    monkeypatch.setattr(study, "MAX_STEPS", 40)
    argv = ["timestudy", "--grids", "16", "--tau", "0.025",
            "--out", str(tmp_path / "t.json"), "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    assert parse_report_json(tmp_path / "t.json").metadata["steps"] == 40


@pytest.mark.parametrize("argv", [
    ["study"],  # no --example
    ["study", "--example", "ex3"],
    ["solve", "--example", "ex3"],
    ["study", "--example", "ex1-case1", "--beta"],  # no order
    ["study", "--example", "ex1-case1", "--beta", "1.5", "1.5"],
    ["timestudy", "--beta", "1.5", "1.5"],
])
def test_problem_selection_errors(tmp_path, argv):
    out = tmp_path / "r.csv"
    assert cli.main([*argv, "--grids", "64", "--out", str(out)]) == cli.EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_study_writes_one_report_per_order(tmp_path, capsys):
    argv = ["study", "--example", "ex1-case1", "--alpha", "0", "--beta", "1.3", "1.7",
            "--grids", "64", "128", "--format", "json", "--out", str(tmp_path / "s.json")]
    assert cli.main(argv) == cli.EXIT_OK
    paths = [tmp_path / "s-beta1.3.json", tmp_path / "s-beta1.7.json"]
    assert capsys.readouterr().out.split() == [str(p) for p in paths]
    metadata = [parse_report_json(p).metadata for p in paths]
    assert [(m["alpha"], m["beta"]) for m in metadata] == [(0.0, 1.3), (0.0, 1.7)]


@pytest.mark.parametrize("fmt,suffix", [("csv", ".csv"), ("json", ".json"),
                                        ("markdown", ".md")])
@pytest.mark.parametrize("argv", [
    ["study", "--example", "ex1-case1", "--grids", "16", "32"],
    ["timestudy", "--grids", "16", "32", "--tau", "0.1"],
], ids=["study", "timestudy"])
def test_default_output_name_follows_the_format(tmp_path, monkeypatch, capsys,
                                                argv, fmt, suffix):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--format", fmt]) == cli.EXIT_OK
    name = argv[0] + suffix
    assert capsys.readouterr().out.split() == [name]
    assert [p.name for p in tmp_path.iterdir()] == [name]
    if fmt == "json":
        assert [r.M for r in parse_report_json(name).rows] == [16, 32]


def test_default_output_names_of_several_orders(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["study", "--example", "ex1-case1", "--beta", "1.3", "1.7",
            "--grids", "16", "32", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    names = ["study-beta1.3.json", "study-beta1.7.json"]
    assert capsys.readouterr().out.split() == names
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert [parse_report_json(n).metadata["beta"] for n in names] == [1.3, 1.7]


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
    assert [argv[1] for argv in commands] == ["solve", "study", "study",
                                              "timestudy"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "fracbvp"
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv


# Runs the CLI with every import of scipy failing, lazy ones included, and
# prints the exit codes and the solve paths taken.
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from fracbvp import cli
from fracbvp.solver import ToeplitzSolver

paths, init = set(), ToeplitzSolver.__init__

def spy(solver, *args, **kwargs):
    init(solver, *args, **kwargs)
    paths.add(solver.path)

ToeplitzSolver.__init__ = spy
out = sys.argv[1]
runs = [["solve", "--example", "ex2-case1", "--grids", "64"],
        ["study", "--example", "ex1-case1", "--correct", "--grids", "1024", "2048"],
        ["timestudy", "--grids", "16", "512", "--tau", "0.025"]]
codes = [cli.main([*argv, "--out", f"{out}/{i}.csv"]) for i, argv in enumerate(runs)]
print(json.dumps({"codes": codes, "paths": sorted(paths)}))
"""


def test_runtime_needs_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [cli.EXIT_OK] * 3
    # GMRES, the Gohberg-Semencul product and the explicit inverse all ran
    assert set(result["paths"]) == set(PATHS)


@pytest.mark.parametrize("alpha", ["1e307", "1.7e308"])
def test_huge_rhs_solves_in_seconds(tmp_path, alpha):
    # unscaled, the Strang product of this right-hand side overflows and
    # the first GMRES iterate is not finite; in a subprocess with a
    # timeout, so that a solve that cycles on it fails here instead of
    # hanging the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "u.csv"
    argv = ["solve", "--example", "ex1-case1", "--alpha", alpha, "--grids", "64",
            "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "fracbvp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert done.stderr == ""
    lines = [line for line in out.read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "x,abs_error"
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(errors) == 65
    assert np.max(errors) <= 1e-14
