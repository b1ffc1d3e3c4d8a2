"""Tiny-size self-test of the benchmark.

Every workload runs untraced and traced at toy sizes, passes its own
correctness checks, and yields every metric BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from bench_runner import measure  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "eval-stream": {"train": 300, "calibration": 300, "eval": 1000, "batch": 250},
    "gain-study": {"train": 300, "study": 300, "targets": (2.0,), "sweep": 3},
    "text-pipeline": {"train": 120, "eval": 120, "folds": 2, "seeds": 1, "epochs": 2},
}


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload(name, trace, tmp_path):
    result = measure(name, 3, 0.0, trace, tmp_path / "work", **TINY[name])
    info = result["info"]
    assert result["correct"], (info["problems"], info["errors"])
    assert info["attempted"] >= 1 and info["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert math.isfinite(value), metric["name"]
    assert not (tmp_path / "work").exists()


def test_traced_run_covers_the_round(tmp_path):
    result = measure("eval-stream", 3, 0.0, True, tmp_path / "work", **TINY["eval-stream"])
    metrics = result["metrics"]
    assert metrics["trace.self_coverage"] > 0.9
    assert metrics["cascade.run_cascade.instances"] == 1000
    assert metrics["cascade.stage_evals"] == metrics["classifier.predict.calls"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-stream", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
