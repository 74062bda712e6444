"""Smoke test of the benchmark itself at tiny N.

    python3 -m pytest bench

Each case copies the checkout's ``src``, ``bench`` and ``BENCHMARK.json``
into a temporary directory and runs the benchmark there, so nothing is
written into the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Appended to the copied package: every pushed sample is off by one, so
# every S over more than one sample is wrong.
CORRUPT_PUSH = """

_exact_push = Cascade.push
Cascade.push = lambda self, sample: _exact_push(self, sample + 1)
"""


def make_checkout(root: Path, with_src: bool = True) -> Path:
    shutil.copy(REPO / "BENCHMARK.json", root)
    ignore = shutil.ignore_patterns("__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, root / path, ignore=ignore)
    if with_src:
        shutil.copytree(REPO / "src", root / "src", ignore=ignore)
    return root


def run_bench(root: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess[str], dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1"]
        + ["--trace", str(trace), "--scale", "0.001"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc, json.loads(lines[-1]) if lines else {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(tmp_path: Path, workload: str, trace: int) -> None:
    proc, result = run_bench(make_checkout(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_share" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_sum_is_reported_as_failed(tmp_path: Path, workload: str) -> None:
    root = make_checkout(tmp_path)
    with open(root / "src" / "powsum" / "__init__.py", "a", encoding="utf-8") as init:
        init.write(CORRUPT_PUSH)
    proc, result = run_bench(root, workload, 0)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    proc, result = run_bench(make_checkout(tmp_path, with_src=False), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert result == {}
