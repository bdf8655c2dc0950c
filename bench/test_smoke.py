"""Smoke test of the benchmark at reduced sizes.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
Each workload runs once plainly and once traced on the "smoke" profile; the
last output line must follow the result format and report exactly the
metrics BENCHMARK.json lists for that mode.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--profile", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_run_is_a_function_of_the_seed():
    outputs = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "exact-small", "--seed", "5", "--seconds", "0",
                         "--trace", "1", "--profile", "smoke")
        assert proc.returncode == 0, proc.stderr
        detail = json.loads((ROOT / ".bench_out" / "exact-small-seed5-trace1.json").read_text())
        outputs.append((detail["counts"], detail["metrics"]["exact_ratio"]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0], "the traced exact-small run should list per-instance counts"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "exact-small", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
