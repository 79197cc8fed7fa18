"""Shared test helpers: differential execution of MATLAB programs.

The central helper, :func:`check_program`, runs one MATLAB program four
ways — golden interpreter, simulated baseline IR, simulated optimized
IR, and (optionally) gcc-compiled generated C — and asserts they agree.
Most correctness tests in this suite reduce to a call to it.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.ir.verifier import verify_module
from repro.mlab.interp import MatlabInterpreter
from repro.sim.machine import Simulator

HAVE_GCC = shutil.which("gcc") is not None

requires_gcc = pytest.mark.skipif(not HAVE_GCC, reason="gcc not available")


def golden_outputs(source: str, entry: str, inputs: list, nargout: int = 1):
    interp = MatlabInterpreter(source)
    return interp.call(entry, list(inputs), nargout=nargout)


def compile_both(source: str, args, entry: str | None = None,
                 processor: str = "vliw_simd_dsp"):
    optimized = compile_source(source, args=args, entry=entry,
                               processor=processor)
    baseline = compile_source(source, args=args, entry=entry,
                              processor=processor,
                              options=CompilerOptions.baseline())
    verify_module(optimized.module)
    verify_module(baseline.module)
    return optimized, baseline


def assert_outputs_close(actual, expected, tol: float, context: str):
    actual = np.atleast_2d(np.asarray(actual))
    expected = np.atleast_2d(np.asarray(expected))
    assert actual.shape == expected.shape, \
        f"{context}: shape {actual.shape} != expected {expected.shape}"
    assert np.allclose(actual, expected, atol=tol, rtol=tol), \
        f"{context}: values differ (max abs err " \
        f"{np.max(np.abs(actual - expected)):.3e})\n" \
        f"actual={actual}\nexpected={expected}"


def check_program(source: str, args, inputs: list,
                  entry: str | None = None, nargout: int = 1,
                  tol: float = 1e-9, with_gcc: bool = False,
                  processor: str = "vliw_simd_dsp"):
    """Differential check; returns (optimized_result, optimized_outputs)."""
    optimized, baseline = compile_both(source, args, entry, processor)
    entry_name = entry or optimized.sprog.entry.func.name
    golden = golden_outputs(source, entry_name, inputs, nargout)

    run_opt = Simulator(optimized.module, optimized.processor) \
        .run(list(inputs))
    run_base = Simulator(baseline.module, baseline.processor) \
        .run(list(inputs))
    for index, expected in enumerate(golden):
        assert_outputs_close(run_opt.outputs[index], expected, tol,
                             f"optimized output #{index}")
        assert_outputs_close(run_base.outputs[index], expected, tol,
                             f"baseline output #{index}")
    if with_gcc and HAVE_GCC:
        host = optimized.native_program().run(list(inputs)).outputs
        for index, expected in enumerate(golden):
            assert_outputs_close(host[index], expected, max(tol, 1e-7),
                                 f"gcc output #{index}")
    return optimized, run_opt.outputs
