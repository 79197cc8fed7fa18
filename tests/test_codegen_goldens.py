"""Exact codegen contract for the benchmark corpus.

For every corpus kernel x shipped processor x {optimized, baseline},
``codegen_goldens.json`` pins the SHA-256 of the emitted C and the
integer compiled-simulator cycle count on ``inputs(0)``.  A refactor
that claims "same behaviour" must leave every entry untouched; a change
that means to alter codegen updates the JSON in the same commit, using
the values this test prints on a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.asip.isa_library import available_processors
from repro.compiler import CompilerOptions, compile_source

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import default_workloads  # noqa: E402

GOLDENS = Path(__file__).parent / "codegen_goldens.json"
MODES = {"optimized": CompilerOptions, "baseline": CompilerOptions.baseline}
WORKLOADS = {w.name: w for w in default_workloads()}
CONFIGS = [(kernel, processor, mode)
           for kernel in WORKLOADS
           for processor in available_processors()
           for mode in MODES]


def _key(kernel: str, processor: str, mode: str) -> str:
    return f"{kernel}/{processor}/{mode}"


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_exactly_the_corpus(goldens):
    assert sorted(goldens) == sorted(_key(*c) for c in CONFIGS)


@pytest.mark.parametrize("kernel,processor,mode", CONFIGS,
                         ids=[_key(*c) for c in CONFIGS])
def test_codegen_matches_golden(goldens, kernel, processor, mode):
    workload = WORKLOADS[kernel]
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry, processor=processor,
                            options=MODES[mode](), use_cache=False)
    actual = {
        "c_sha256": hashlib.sha256(
            result.c_source().encode("utf-8")).hexdigest(),
        "cycles": result.simulate(workload.inputs(0),
                                  backend="compiled").report.total,
    }
    expected = goldens.get(_key(kernel, processor, mode))
    assert actual == expected, (
        f"codegen changed for kernel={kernel} processor={processor} "
        f"mode={mode}: expected {expected}, got {json.dumps(actual)}")
