"""Tests of the benchmark harness: output contract, gates and tracing.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def zero_precond(P):
    return lambda r: np.zeros_like(r)


def test_spec_and_harness_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == units


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result, info = harness.run_workload(workload, 5, 0.2, trace, smoke=True)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in want})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_prints_the_result_object_last():
    proc = run_cli("--workload", "many-rhs-l32", "--seed", "5",
                   "--seconds", "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    env = json.loads(lines[-2])["info"]["env"]
    assert env["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(lib["threads"] == 1 for lib in env["blas"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workload", ["compare-l32", "many-rhs-l32"])
def test_wrong_preconditioner_trips_the_gate(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](smoke=True, seed=1)
    wl.prepare(tmp_path)
    rnd = harness.run_round(wl, zero_precond)
    assert rnd.attempted >= 1
    assert len(rnd.failures) / rnd.attempted > 0


def test_traced_round_restores_wrappers_and_splits_self_time():
    targets = harness.trace_targets()
    before = [getattr(module, attr) for module, attr, _ in targets]
    rnd, tracer = harness.traced_round(workloads.CompareL32(smoke=True))
    assert [getattr(module, attr) for module, attr, _ in targets] == before
    assert not rnd.failures
    totals = tracer.totals()
    calls, gmres_total, gmres_self = totals["gmres"]
    assert calls == 8
    children = (totals["system.operator_apply"][1]
                + totals["precond.apply"][1])
    assert gmres_self + children == pytest.approx(gmres_total, rel=1e-9)
    metrics = harness.layer_metrics(rnd, tracer)
    assert metrics["precond.build_calls"] == 8
    assert metrics["precond.factor_bytes"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".mm-*"))
    proc = run_cli("--workload", "krylov-l16", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
