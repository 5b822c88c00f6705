"""Smoke test of the benchmark harness.

Runs every workload in smoke mode, plain and traced, and checks that the last
output line carries every metric BENCHMARK.json names, with its unit, and that
the benchmark seed changes the generated job seeds and nothing else.

    python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs_and_nothing_else(name):
    wl = workloads.WORKLOADS[name]
    jobs = {seed: list(islice(workloads.plan(wl, seed), 12)) for seed in (1, 2)}
    again = list(islice(workloads.plan(wl, 1), 12))
    assert again == jobs[1]
    for a, b in zip(jobs[1], jobs[2]):
        assert a.seed != b.seed
        assert dataclasses.replace(a, seed=0) == dataclasses.replace(b, seed=0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
