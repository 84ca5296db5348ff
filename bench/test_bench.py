"""Smoke tests of the benchmark itself, at a few hundred points per workload.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = {"count", "flop", "B"}


def run(workload, trace, seed=5, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3 and result["failed"] == 0
    return lines, result


def check_metrics(lines, result, spec_metrics):
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value, name
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (n=" in line
                   for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = result_of(run(workload, trace=0))
    check_metrics(lines, result, SPEC["end_to_end"])
    assert any(line.startswith("metric failed_frac = 0.0 frac") for line in lines)
    assert any(line.startswith("metric flagged_frac = ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "scipy", "seed", "thread_env"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exact_counts(workload):
    lines, first = result_of(run(workload, trace=1))
    check_metrics(lines, first, SPEC["per_layer"])
    _, second = result_of(run(workload, trace=1))
    exact = {name: m["value"] for name, m in first["metrics"].items()
             if m["unit"] in EXACT_UNITS}
    assert exact == {name: second["metrics"][name]["value"] for name in exact}
    assert exact["estimator.point_calls"] > 0
    assert exact["estimator.pairs"] > exact["estimator.point_calls"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path,
               script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
