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
    # a direct path also times the unchecked product a march step pays
    assert ("apply_s" in entry) == (path != "gmres")


def test_direct_setups_are_timed_on_both_sides(costs, monkeypatch):
    # this checkout stands in for the baseline: two rounds, one size
    monkeypatch.setattr(costs, "ROUNDS", 2)
    monkeypatch.setattr(costs, "SETUP_SIZES", [16])
    monkeypatch.setattr(costs, "SETUP_REPEATS", 1)
    entries = costs.direct_setups(ROOT)
    assert [(e["M"], e["beta"], e["path"]) for e in entries] == [
        (16, beta, path) for beta in costs.BETAS
        for path in ("explicit", "gohberg-semencul")]
    for entry in entries:
        for side in ("baseline", "change"):
            assert len(entry[side]["setup_s"]["runs"]) == 2
        assert entry["compare"]["setup_s"]["pairs"] == 2


def _never(*args, **kwargs):
    raise AssertionError("measured before the arguments were checked")


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_too_few_pairs_are_refused_before_measuring(costs, monkeypatch, tmp_path,
                                                    pairs):
    monkeypatch.setattr(costs, "path_costs", _never)
    with pytest.raises(SystemExit) as exc:
        costs.main(["--out", str(tmp_path / "b.json"), "--baseline", str(ROOT),
                    "--pairs", pairs])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_baseline_without_a_checkout_is_refused_before_measuring(
        costs, monkeypatch, tmp_path):
    monkeypatch.setattr(costs, "path_costs", _never)
    with pytest.raises(SystemExit) as exc:
        costs.main(["--out", str(tmp_path / "b.json"), "--baseline", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_krylov_and_march_snippets_run_on_this_checkout(costs):
    krylov = costs._rounds(costs.KRYLOV_CODE, [[64, 1.5]], 1, None)
    assert list(krylov) == ["change"]
    seconds, iterations = krylov["change"][0]["64/1.5"]
    assert seconds > 0.0 and iterations >= 1
    march = costs._rounds(costs.MARCH_CODE, [[16, False]], 1, None)
    wall, cpu, raised = march["change"][0]["16/False"]
    assert wall > 0.0 and cpu > 0.0 and raised is None
