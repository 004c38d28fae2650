"""The study harness: configuration checks, error restriction, report paths."""

from dataclasses import replace

import numpy as np
import pytest

from fracbvp import study
from fracbvp.analytic import PowerSum, PowerTerm, singular_exponents
from fracbvp.catalog import catalog, manufactured
from fracbvp.correction import correct
from fracbvp.grids import Grid, GridFunction
from fracbvp.report import ConvergenceReport
from fracbvp.solver import FracParams, SchemeKind, ToeplitzSolver
from fracbvp.study import (
    ConfigError,
    StudyConfig,
    _restrict_errors,
    emit_reports,
    run_study,
    run_time_study,
)


class TestStudyConfig:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(M_list=(2, 8)), "at least 4 intervals"),
        (dict(M_list=(64, 128, 255), corrected=True),
         "even interval count >= 8, got 255"),
        (dict(M_list=()), "strictly increasing"),
        (dict(M_list=(64, 64)), "strictly increasing"),
        (dict(M_list=(128, 64)), "strictly increasing"),
        (dict(M_list=(4, 8), corrected=True), "even interval count >= 8, got 4"),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            StudyConfig(problem=catalog("ex1-case1", 1.5), **kwargs)

    def test_smallest_valid_reference_level(self, fresh_cache):
        run_study(StudyConfig(problem=catalog("ex1-case2", 1.5), M_list=(64, 512),
                              ref_level=11))
        # an exact solution needs no reference, so no level is too small
        run_study(StudyConfig(problem=catalog("ex1-case1", 1.5), M_list=(64, 512),
                              ref_level=10))

    def test_reference_level_must_clear_the_grids(self, fresh_cache):
        config = StudyConfig(problem=catalog("ex1-case2", 1.5), M_list=(64, 512),
                             ref_level=10)
        with pytest.raises(ConfigError, match="reference level 10"):
            run_study(config)
        assert not fresh_cache  # rejected before any reference solve


@pytest.mark.parametrize("grids,corrected", [((24, 48), False), ((24, 48), True),
                                              ((64, 96), False)])
def test_reference_must_nest_the_grids(fresh_cache, grids, corrected):
    config = StudyConfig(problem=catalog("ex1-case2", 1.5), corrected=corrected,
                         M_list=grids)
    with pytest.raises(ConfigError, match="reference level 15"):
        run_study(config)
    assert not fresh_cache  # rejected before any reference solve


def test_restrict_errors_against_nested_reference():
    fine = Grid(0.0, 1.0, 256)
    reference = GridFunction(fine, fine.nodes() ** 2)
    coarse = Grid(0.0, 1.0, 64)
    err = _restrict_errors(GridFunction(coarse, np.zeros(coarse.M + 1)), None, reference)
    np.testing.assert_array_equal(err.values, -coarse.nodes() ** 2)


def test_emit_reports_suffixes_each_order(tmp_path):
    reports = [ConvergenceReport.from_rows([(64, 1e-3, 1e-4, 0.0)], {"beta": beta})
               for beta in (1.3, 1.7)]
    paths = emit_reports(reports, "csv", str(tmp_path / "study.csv"))
    assert paths == [tmp_path / "study-beta1.3.csv", tmp_path / "study-beta1.7.csv"]
    assert all(p.is_file() for p in paths)
    (single,) = emit_reports(reports[:1], "csv", str(tmp_path / "one.csv"))
    assert single == tmp_path / "one.csv"


def test_emit_reports_refuses_two_reports_at_one_order(tmp_path):
    reports = [ConvergenceReport.from_rows([(64, 1e-3, 1e-4, 0.0)],
                                           {"beta": 1.5, "scheme": scheme})
               for scheme in ("wsgd", "fcd")]
    with pytest.raises(ConfigError, match="one path"):
        emit_reports(reports, "csv", str(tmp_path / "s.csv"))
    assert list(tmp_path.iterdir()) == []


def test_time_study_needs_an_exact_solution():
    config = StudyConfig(problem=replace(catalog("ex3", 1.5), exact=None), M_list=(8,))
    with pytest.raises(ConfigError, match="exact solution"):
        run_time_study(config)


def test_time_study_refuses_fcd_before_the_march(monkeypatch):
    # the march is Crank-Nicolson WSGD: an FCD study used to march WSGD
    # and report it as cn-wsgd
    marched = []
    monkeypatch.setattr(study, "cn_wsgd_solve", lambda *a, **k: marched.append(a))
    config = StudyConfig(problem=catalog("ex3", 1.5), scheme=SchemeKind.FCD,
                         M_list=[16], tau=0.1)
    with pytest.raises(ConfigError, match="WSGD"):
        run_time_study(config)
    assert marched == []


@pytest.mark.parametrize("run,name", [(run_study, "ex3"), (run_time_study, "ex1-case1")])
def test_study_kind_must_match_the_problem(run, name):
    with pytest.raises(ConfigError):
        run(StudyConfig(problem=catalog(name, 1.5), M_list=(8,)))


@pytest.mark.parametrize("name", ["ex1-case1", "ex1-case2", "ex2-case1", "ex2-case2"])
def test_stationary_catalog_specs_are_cache_keys(name):
    # the reference cache is keyed by value: a rebuilt spec must find it
    assert catalog(name, 1.5) == catalog(name, 1.5)
    assert hash(catalog(name, 1.5)) == hash(catalog(name, 1.5))


BOUND = 2.0 ** -42


@pytest.mark.parametrize("name,reference", [("ex1-case1", "exact"),
                                            ("ex2-case2", "level-8")])
@pytest.mark.parametrize("corrected", [False, True])
def test_study_report_metadata(fresh_cache, name, reference, corrected):
    config = StudyConfig(problem=catalog(name, 1.5), corrected=corrected,
                         M_list=(16, 32), ref_level=8)
    (report,) = run_study(config)
    theta = 1.0 if name == "ex1-case1" else 0.5
    assert report.metadata == {
        "problem": name, "beta": 1.5, "theta": theta, "alpha": 1.0,
        "scheme": "wsgd", "corrected": corrected,
        "error_grid": "2M" if corrected else "M", "reference": reference,
        "backward_error_bound": BOUND, "guard_activations": 0}


@pytest.mark.parametrize("theta", [0.3, 0.8])
@pytest.mark.parametrize("beta", [1.2, 1.5, 1.8])
def test_plain_rates_at_general_theta_follow_the_weaker_end(beta, theta):
    # x^2 (1-x)^2 + w has the closed-form rhs of the derived singular term
    # w; a wrong constant in that rhs would stall the error at a floor
    gamma, other = singular_exponents(beta, theta)
    exact = PowerSum(0.0, 1.0, (PowerTerm(1.0, 2.0, 2.0), PowerTerm(1.0, gamma, other)))
    problem = manufactured("gen", FracParams(1.0, beta, theta), exact)
    (report,) = run_study(StudyConfig(problem=problem,
                                      M_list=(64, 128, 256, 512, 1024)))
    rates = [row.rate for row in report.rows[1:]]
    assert np.allclose(rates, min(gamma, other), rtol=0.0, atol=0.05), rates


@pytest.mark.parametrize("corrected", [False, True])
def test_time_study_report_metadata(corrected):
    config = StudyConfig(problem=catalog("ex3", 1.5), corrected=corrected,
                         M_list=(8, 16), tau=0.05)
    (report,) = run_time_study(config)
    meta = dict(report.metadata)
    # the largest backward error of a step is a rounding residue
    assert 0.0 < meta.pop("backward_error_max") <= BOUND
    assert meta == {
        "problem": "ex3", "beta": 1.5, "theta": 1.0, "scheme": "cn-wsgd",
        "error_grid": "M", "corrected": corrected, "tau": 0.05, "steps": 20,
        "final_time": 1.0, "backward_error_bound": BOUND, "refinements": 0,
        "guard_activations": 0}


def test_reports_sum_counts_over_the_grids(monkeypatch):
    # guard activations and refinements add up over the rows, and the
    # largest backward error is the largest of any grid
    problem = catalog("ex1-case1", 1.5)
    solution = correct(problem, 16, SchemeKind.WSGD)
    monkeypatch.setattr(study, "correct",
                        lambda *args: replace(solution, guard_activations=2))
    (report,) = run_study(StudyConfig(problem=problem, corrected=True,
                                      M_list=(16,)))
    assert report.metadata["guard_activations"] == 2
    field = GridFunction(Grid(0.0, 1.0, 8), np.zeros(9))
    runs = iter([(1, 3e-16, 4), (2, 1e-16, 0)])

    def march(problem, M, time_grid, corrected, diagnostics):
        refinements, eta, guards = next(runs)
        diagnostics.update(refinements=refinements, backward_error_max=eta,
                           guard_activations=guards)
        return field

    monkeypatch.setattr(study, "cn_wsgd_solve", march)
    (report,) = run_time_study(StudyConfig(problem=catalog("ex3", 1.5),
                                           M_list=(8, 16), tau=0.5))
    assert (report.metadata["refinements"], report.metadata["backward_error_max"],
            report.metadata["guard_activations"]) == (3, 3e-16, 4)


# the grids each solver set-up is made on: a row's coarse, then fine grid,
# unless an earlier row solved it
@pytest.mark.parametrize("grids,setups", [((16, 32, 64), [16, 32, 64, 128]),
                                          ((16, 24, 32), [16, 32, 24, 48, 64])])
def test_corrected_rows_share_grid_solves(monkeypatch, grids, setups):
    # each grid is solved once, by the first row that needs it; the errors
    # are those of separate pairs
    problem = catalog("ex1-case1", 1.5)
    want = []
    for M in grids:
        sol = correct(problem, M, SchemeKind.WSGD)
        err = _restrict_errors(sol.corrected_fine, problem.exact, None)
        want.append((M, err.max_norm(), err.l2_norm()))
    init, made = ToeplitzSolver.__init__, []

    def spy(self, *args, **kwargs):
        made.append(len(args[0]) + 1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ToeplitzSolver, "__init__", spy)
    (report,) = run_study(StudyConfig(problem=problem, corrected=True,
                                      M_list=grids))
    assert [(r.M, r.err_max, r.err_l2) for r in report.rows] == want
    assert made == setups
