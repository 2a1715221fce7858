"""Smoke test of the benchmark itself, on shipped shapes only.

    python3 -m pytest bench/test_smoke.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import instances  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the per-command metrics printed above the result line
COMMAND_METRICS = {"validate_s": "s", "solve_s": "s", "verify_s": "s", "polyhedron_s": "s",
                   "render_s": "s", "fail_frac": "ratio"}


def bench(trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture
def work():
    """A scratch directory inside the checkout, which the benchmark never
    writes outside of."""
    path = ROOT / ".bench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


@pytest.fixture(scope="module")
def traced_twice():
    return bench(1), bench(1)


def test_end_to_end_metrics_printed_with_units():
    head, result = bench(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 7
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in head if line.startswith("  ")}
    assert {k: printed.get(k) for k in COMMAND_METRICS} == COMMAND_METRICS


def test_per_layer_metrics_printed_with_units(traced_twice):
    (_, first), (_, second) = traced_twice
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k, u in want.items() if u == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}


def test_corrupted_radius_counts_as_failed(work):
    """A verify-only chain on a solved pattern passes; the same pattern
    with one radius scaled by 1.1 is a failed command, not a wrong one."""
    inst = instances.generate("smoke", 0)[0]
    inst.write(work / "solve")
    assert pipeline.run_pass([inst], ROOT / "src", time.perf_counter() + 60).failed() == 0
    data = json.loads(Path(inst.paths["pattern"]).read_text())

    fractions = []
    for scale in (1.0, 1.1):
        data["circles"][3]["radius"] *= scale
        check = instances.Instance("verify-only", "triangulation", inst.faces, inst.edges,
                                   inst.theta, "g5", inst.steps[1:2], inst.n)
        check.write(work / str(scale))
        Path(check.paths["pattern"]).write_text(json.dumps(data))
        result = pipeline.run_pass([check], ROOT / "src", time.perf_counter() + 60)
        assert not any(o.wrong for o in result.outcomes)
        fractions.append(run.command_report([result])["fail_frac"])
    assert fractions == [0.0, 1.0]
