"""E4 — the ANSI C claim.

"The generated code can be used as input to any C/C++ compiler": every
benchmark, in both baseline and optimized form, must compile with a host
C compiler in strict C89 mode (``-std=c89 -pedantic``) and — when run on
the host through the portable intrinsic fallbacks — reproduce the golden
interpreter's numbers.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from workloads import default_workloads, workload_by_name

from repro.compiler import CompilerOptions, compile_source

KERNELS = [w.name for w in default_workloads()]

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None,
                                reason="gcc not available")

HEADERS = ["kernel", "mode", "compiles_c89", "max_abs_error"]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", ["optimized", "baseline"])
def test_e4_ansi_c(kernel, mode, benchmark, record_row):
    workload = workload_by_name(kernel)
    options = CompilerOptions.baseline() if mode == "baseline" else None
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry, options=options)
    inputs = workload.inputs(seed=47)
    golden = workload.golden(inputs)

    outputs = benchmark.pedantic(
        lambda: result.native_program().run(list(inputs)).outputs,
        rounds=1, iterations=1)
    produced = np.asarray(outputs[0])
    error = float(np.max(np.abs(produced - golden)))
    record_row("E4 strict-ANSI host compilation of generated C",
               HEADERS, kernel=kernel, mode=mode, compiles_c89="yes",
               max_abs_error=f"{error:.3e}")
    scale = float(np.max(np.abs(golden))) or 1.0
    assert error <= workload.tolerance * max(scale, 1.0), \
        f"{kernel}/{mode}: gcc-run output differs from golden model"
