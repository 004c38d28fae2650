"""The study harness: configuration checks, error restriction, report paths."""

import numpy as np
import pytest

from fracbvp.catalog import catalog
from fracbvp.grids import Grid, GridFunction
from fracbvp.report import ConvergenceReport
from fracbvp.solver import SchemeKind
from fracbvp.study import (
    ConfigError,
    StudyConfig,
    _reference_key,
    _restrict_errors,
    emit_reports,
    run_time_study,
)


class TestStudyConfig:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(M_list=(2, 8)), "at least 4 intervals"),
        (dict(M_list=(64, 128, 255), corrected=True), "even interval counts"),
        (dict(M_list=(64, 512), ref_level=10), "reference level 10"),
        (dict(betas=()), "at least one order"),
        (dict(M_list=(128, 64)), "strictly increasing"),
        (dict(example=None), "example name or an inline problem"),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            StudyConfig(**{"example": "ex1-case1", **kwargs})

    def test_smallest_valid_reference_level(self):
        StudyConfig(example="ex1-case1", M_list=(64, 512), ref_level=11)


def test_restrict_errors_needs_nested_grids():
    reference = GridFunction.zeros(Grid(0.0, 1.0, 256))
    with pytest.raises(ConfigError, match="does not nest"):
        _restrict_errors(GridFunction.zeros(Grid(0.0, 1.0, 48)), None, reference)


def test_restrict_errors_against_nested_reference():
    fine = Grid(0.0, 1.0, 256)
    reference = GridFunction(fine, fine.nodes() ** 2)
    coarse = Grid(0.0, 1.0, 64)
    err = _restrict_errors(GridFunction.zeros(coarse), None, reference)
    np.testing.assert_array_equal(err.values, -coarse.nodes() ** 2)


def test_emit_reports_suffixes_each_order(tmp_path):
    reports = [ConvergenceReport.from_rows([(64, 1e-3, 1e-4, 0.0)], {"beta": beta})
               for beta in (1.3, 1.7)]
    paths = emit_reports(reports, "csv", str(tmp_path / "study.csv"))
    assert paths == [tmp_path / "study-beta1.3.csv", tmp_path / "study-beta1.7.csv"]
    assert all(p.is_file() for p in paths)
    (single,) = emit_reports(reports[:1], "csv", str(tmp_path / "one.csv"))
    assert single == tmp_path / "one.csv"


def test_time_study_steps_override_tau():
    config = StudyConfig(example="ex3", M_list=(8, 16), tau=0.5, steps=4)
    (report,) = run_time_study(config)
    assert report.metadata["steps"] == 4
    assert report.metadata["tau"] == 0.25
    assert [row.M for row in report.rows] == [8, 16]


def test_reference_key_is_stable():
    # on-disk reference caches are named by this key
    key = _reference_key(catalog("ex1-case2", 1.5), SchemeKind.WSGD, 8)
    assert key == "3bb1255d69f68b336209afe64e2a7689ddba7b395916ac0270e2d59b28926a41"
