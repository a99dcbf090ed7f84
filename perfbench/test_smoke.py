"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must run and pass its checks on several seeds, a corrupted
output must count as a failed job, every per-layer metric named in
BENCHMARK.json must be produced by some workload, and the command must
print a result line in the agreed shape, or fail without one when the
package is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from mftroute import PolicyKernel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(name: str, seed: int, tmp_path: Path, traced: bool, workload=None):
    workload = workload or workloads.WORKLOADS[name]
    tmp_path.mkdir(parents=True, exist_ok=True)
    workload.generate(seed, tmp_path, workloads.TINY[name])
    inputs = workload.load(tmp_path)
    return run.measure(workload, inputs, tmp_path, 0.0, traced)


def test_spec_and_settings_name_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [HERE.name]
    settings = json.loads((HERE / "settings.json").read_text())
    assert list(settings["workloads"]) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, seed, tmp_path):
    jobs, _ = _tiny_run(name, seed, tmp_path, traced=False)
    assert [j.problems for j in jobs] == [[]]
    assert jobs[0].counts and all(v > 0 for v in jobs[0].counts.values())


def test_corrupted_policy_row_counts_as_failed(tmp_path):
    stationary = workloads.WORKLOADS["grid-stationary"]

    def corrupting_job(inputs, workdir, span):
        out = stationary.job(inputs, workdir, span)
        probs = out["policy"].probs.copy()
        probs[0, 0] += 1e-6
        out["policy"] = PolicyKernel(probs)
        return out

    broken = dataclasses.replace(stationary, job=corrupting_job)
    jobs, _ = _tiny_run("grid-stationary", 0, tmp_path, traced=False, workload=broken)
    assert len(jobs) == 1 and any("row sum" in p for p in jobs[0].problems)


def test_every_per_layer_metric_comes_from_some_workload(tmp_path):
    produced = set()
    for name in workloads.WORKLOADS:
        jobs, tracer = _tiny_run(name, 0, tmp_path / name, traced=True)
        assert jobs[0].traced and not jobs[0].problems
        produced |= {k for k, v in run.per_layer(jobs, tracer).items() if v != 0}
    missing = {m["name"] for m in SPEC["per_layer"]} - produced - {"trace.overhead_s"}
    assert not missing


def test_spans_split_job_time_by_layer(tmp_path):
    jobs, tracer = _tiny_run("grid-rushhour", 0, tmp_path, traced=True)
    per_job = tracer.per_job("job")[0]
    assert set(per_job["self"]) == {"scenario", "kl_solver", "mean_field", "cli"}
    assert sum(per_job["self"].values()) <= jobs[0].wall_s
    assert "cli.read_policy_csv" in tracer.per_job("check")[0]["calls"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.job = 0
    with tracer.span("job"):
        with tracer.span("mean_field.mfe_solve"):
            with tracer.span("kl_solver.backward_pass"):
                sum(range(10000))
    stats = tracer.per_job("job")[0]
    calls = stats["calls"]
    assert stats["self"]["kl_solver"] == calls["kl_solver.backward_pass"]
    assert stats["self"]["mean_field"] == pytest.approx(calls["mean_field.mfe_solve"] - calls["kl_solver.backward_pass"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    command = SPEC["command"] + ["--workload", "route-game", "--seed", "3", "--seconds", "0", "--trace", trace]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + ["--workload", "route-game", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
