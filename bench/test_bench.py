"""Smoke test of the benchmark itself: every workload at minimal length, once
untraced and once traced.

    python3 -m pytest bench/test_bench.py -q

Checks that the command exits 0 with a correct result, that the last line
names exactly the metrics BENCHMARK.json declares, each with its unit, and
that the counts match their closed forms.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sortblock as sb  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

STEPS, BLOCKS = 50, 12
STEP_LIST = sb.uniform_step_list(1000, STEPS)
FULL_EVALS = STEPS * BLOCKS
CACHED_EVALS = sb.expected_eval_count(STEP_LIST, sb.inner_window(STEP_LIST, 0.8), 5, BLOCKS, rho=0.3)
BLOCK_EVALS = {"plain_sampler": FULL_EVALS, "cached_default": CACHED_EVALS,
               "analyze_roundtrip": FULL_EVALS}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def check_declared(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    metrics = run_bench(workload, 0)
    check_declared(metrics, SPEC["end_to_end"])
    assert metrics["eval_speedup"]["value"] == FULL_EVALS / BLOCK_EVALS[workload]
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["latency_ms_tail"]["value"] >= metrics["latency_ms_p50"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    metrics = run_bench(workload, 1)
    check_declared(metrics, SPEC["per_layer"])
    assert metrics["dit.block_evals"]["value"] == BLOCK_EVALS[workload]
    assert metrics["engine.predictions"]["value"] == FULL_EVALS - CACHED_EVALS
    assert metrics["trace.files_written"]["value"] == STEPS * (BLOCKS + 1) + 2
    assert metrics["engine.ranked_waste_ratio"]["value"] == sb.recompute_quota(0.3, BLOCKS) / BLOCKS
