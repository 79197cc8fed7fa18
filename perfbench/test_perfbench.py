"""Tests of the benchmark itself: a tiny run of every workload emits
each metric ``BENCHMARK.json`` names, with its unit, and passes every
output check.

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import LAYER_METRICS
from perfbench.run import WORKLOADS
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"]
            for name, value in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(value["value"] > 0
                   for value in result["metrics"].values())


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] \
        == [(name, unit, better)
            for name, unit, better, _moves, _workload in LAYER_METRICS]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for _name, _unit, _better, moves, workload in LAYER_METRICS:
        assert moves in end_to_end or moves == "sim.cycle_speedup_geomean"
        assert workload in WORKLOADS or workload == "all"


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "compile_cold", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_and_uncovered_share():
    tracer = Tracer()
    with tracer.span("op.compile"):
        with tracer.span("frontend.parse"):
            with tracer.span("ir.lower"):
                pass
    op, parse, lower = (next(s for s in tracer.spans if s.name == name)
                        for name in ("op.compile", "frontend.parse",
                                     "ir.lower"))
    times = tracer.self_times()
    assert times[("frontend.parse", "op.compile")] == pytest.approx(
        parse.duration - lower.duration)
    assert parse.op == lower.op == op.id
    assert tracer.uncovered_share() == pytest.approx(
        (op.duration - parse.duration) / op.duration)
