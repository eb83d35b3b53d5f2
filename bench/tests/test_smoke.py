"""Every workload end to end at smoke size, and the run without a program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_every_check(workload, trace, tmp_path):
    small = harness.smoke(harness.WORKLOADS[workload])
    result, failed = harness.measure(small, 3, 0.0, trace, tmp_path / "run")
    assert failed == []
    assert result["correct"] and result["failed"] == 0
    # One untraced round, then a timing and an allocation round if traced.
    ops = harness.round_ops(small) + 2 * trace * harness.round_ops(small, True)
    assert result["attempted"] == ops + 8
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(harness.WORKLOADS)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
