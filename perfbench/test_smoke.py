"""Smoke test for the benchmark itself: every workload at a minimal size.

Run from the repository root:

    python3 -m pytest perfbench -q

Each workload, including the two that BENCHMARK.json does not list, runs
for one second untraced and once traced.  The last stdout line must carry
exactly the metrics BENCHMARK.json lists, with no failed unit, and the
printed table must name every end-to-end metric.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["train", "solve", "exact", "classic"]
TABLE_ONLY = ("fail_ratio", "agent_gain")


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, table = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert result["metrics"][name]["value"] > 0, name
    for name in names + list(TABLE_ONLY):
        assert f" {name} " in table, name
    fail_line = next(line for line in table.splitlines() if " fail_ratio " in line)
    assert float(fail_line.split()[2]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, _ = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert result["metrics"]["units"]["value"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        for f in (ROOT / path).rglob("*"):
            rel = f.relative_to(ROOT)
            if f.is_file() and not {"__pycache__", "out"} & set(rel.parts):
                dest = tmp_path / rel
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
