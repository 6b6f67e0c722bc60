"""Checks on the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Runs each workload twice with the same seed, traced, and requires the layer
counts to repeat exactly and every checked output to pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

COUNTS = ("architecture.solves_per_a3_eval", "calibrate.evals_per_fit",
          "pdn_grid.solve_dc.nodes", "pdn_grid.build_problem.refined",
          "pdn_grid.solve_dc.calls", "pdn_grid.sparse_solve.calls",
          "architecture.evaluate.calls")


def run_bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_and_nothing_fails(workload):
    first, second = (run_bench(workload, 7, trace=1) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == declared("per_layer")
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_end_to_end_metrics():
    result = run_bench("calib_a1_spread", 7, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_seed_draws_referenced_inputs():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        for seed in range(200):
            inputs = workloads.make_inputs(workload, seed)
            assert inputs == workloads.make_inputs(workload, seed)
            if workload == "compare10":
                keys = [f"{a}/{t}" for a in inputs["archs"] for t in inputs["topologies"]]
            elif workload == "calib_a1_spread":
                keys = ["{:g}:{:g}".format(*inputs["window"])]
            else:
                keys = [f"{a}/{r}" for a, r in inputs["points"]]
            assert all(k in reference[workload] for k in keys), (workload, seed)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compare10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
