"""Smoke tests of the benchmark, on tiny instances of every workload.

    python3 -m pytest perfbench

They sit outside the package's ``tests/`` collection and take about 20 s.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, tmp_path, seed=7):
    workload = workloads.WORKLOADS[name](seed, tmp_path, small=True)
    inputs = workload.inputs(0)
    return workload, inputs, workload.operate(inputs)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_matches_its_reference(name, tmp_path):
    workload, inputs, result = tiny(name, tmp_path)
    assert workload.check(inputs, result) == []


def test_every_workload_in_benchmark_json_is_implemented():
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_follow_the_seed(name, tmp_path):
    first = workloads.WORKLOADS[name](3, tmp_path / "a", small=True).inputs(1)["gamma"]
    again = workloads.WORKLOADS[name](3, tmp_path / "b", small=True).inputs(1)["gamma"]
    other = workloads.WORKLOADS[name](4, tmp_path / "c", small=True).inputs(1)["gamma"]
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_solve_check_catches_a_changed_slice(tmp_path):
    workload, inputs, bundle = tiny("solve-2d", tmp_path)
    path = inputs["out"] / "trajectory.csv"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data[3, 5] *= 1.0 + 1e-6
    header = path.read_text().splitlines()[0]
    np.savetxt(path, data, delimiter=",", fmt="%.17g", header=header, comments="")
    assert any("reference march" in e for e in workload.check(inputs, bundle))


def test_oracle_check_catches_a_changed_entry(tmp_path):
    workload, inputs, bundle = tiny("oracle-2d", tmp_path)
    path = inputs["out"] / "qmatrix.npy"
    q = np.load(path)
    q[2, 1] += 1e-9
    np.save(path, q)
    assert any("Q_ref" in e for e in workload.check(inputs, bundle))


def test_validate_check_catches_a_wrong_margin(tmp_path):
    workload, inputs, bundle = tiny("validate-2d", tmp_path)
    bundle.report["checks"][0]["detail"]["min_absorption"] = 0.39
    assert any("min_absorption" in e for e in workload.check(inputs, bundle))


def test_timedep_check_catches_a_wrong_zeta(tmp_path):
    workload, inputs, report = tiny("timedep-1d", tmp_path)
    wrong = types.SimpleNamespace(zeta=report.zeta * (1.0 + 1e-6), trajectory=report.trajectory)
    assert workload.check(inputs, wrong)


def test_untraced_run_reports_the_end_to_end_metrics(capsys):
    result = run.run_workload("timedep-1d", 5, 0.0, traced=False, small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    run.print_result(result)
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_for_a_seed(name):
    first = run.run_workload(name, 5, 0.0, traced=True, small=True)
    second = run.run_workload(name, 5, 0.0, traced=True, small=True)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == expected
    assert first["correct"] and first["failed"] == 0
    for key in run.COUNT_METRICS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["propagator.marches"]["value"] > 0
    assert first["metrics"]["propagator.factorizations"]["value"] > 0


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
