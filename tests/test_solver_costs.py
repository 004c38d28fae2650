"""The noise rule and the solve paths of scripts/solver_costs.py."""

import importlib.util
from pathlib import Path

import pytest

from fracbvp.solver import BACKWARD_ERROR_BOUND, PATHS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def costs():
    spec = importlib.util.spec_from_file_location(
        "solver_costs", ROOT / "scripts" / "solver_costs.py")
    module = importlib.util.module_from_spec(spec)
    # the script pins its BLAS threads in the environment when loaded
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        spec.loader.exec_module(module)
    return module


BASELINE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_clear_gain_is_resolved(costs):
    change = [b - 0.1 for b in BASELINE]
    assert costs._compare(BASELINE, change) == {"wins": 10, "pairs": 10,
                                                "resolved": True}


def test_nine_wins_in_ten_suffice(costs):
    change = [b - 0.1 for b in BASELINE[:9]] + [BASELINE[9] + 0.1]
    assert costs._compare(BASELINE, change)["resolved"]
    change[0] = BASELINE[0] + 0.1
    assert costs._compare(BASELINE, change) == {"wins": 8, "pairs": 10,
                                                "resolved": False}


def test_a_gain_inside_the_baseline_spread_is_noise(costs):
    # the change wins every pair, by less than the baseline's IQR
    change = [b - 0.01 for b in BASELINE]
    assert costs._compare(BASELINE, change) == {"wins": 10, "pairs": 10,
                                                "resolved": False}


def test_higher_is_better(costs):
    assert costs.METRICS["ok_frac"] == "higher"
    assert costs._compare([1.0] * 10, [1.0] * 10, "higher")["wins"] == 0
    change = [b + 0.1 for b in BASELINE]
    assert costs._compare(BASELINE, change, "higher")["resolved"]
    assert not costs._compare(change, BASELINE, "higher")["resolved"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("system", ["stationary", "crank-nicolson"])
def test_every_path_meets_the_bound(costs, system, path):
    assert set(costs.SYSTEMS) == {"stationary", "crank-nicolson"}
    entry = costs.path_costs(16, 1.5, system, path)
    assert entry["path"] == path
    assert entry["backward_error"] <= BACKWARD_ERROR_BOUND
