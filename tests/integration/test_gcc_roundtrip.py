"""Host-compilation integration: every kernel's generated C runs on gcc.

Smaller sizes than E4 (this is the regression suite, not the paper
table); strict C89 flags throughout.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from workloads import kernel_source

from repro.compiler import CompilerOptions, arg, compile_source
from repro.mlab.interp import MatlabInterpreter

from helpers import HAVE_GCC

pytestmark = pytest.mark.skipif(not HAVE_GCC, reason="gcc not available")

RNG = np.random.default_rng(9)

SMALL = {
    "fir": ([arg((1, 48), dtype="single"), arg((1, 8), dtype="single")],
            [RNG.standard_normal((1, 48)).astype(np.float32),
             (RNG.standard_normal((1, 8)) / 8).astype(np.float32)],
            2e-5),
    "iir_biquad": ([arg((1, 48)), arg((1, 3)), arg((1, 3))],
                   [RNG.standard_normal((1, 48)),
                    np.array([[0.2, 0.35, 0.2]]),
                    np.array([[1.0, -0.4, 0.15]])], 1e-9),
    "cdot": ([arg((1, 32), complex=True), arg((1, 32), complex=True)],
             [RNG.standard_normal((1, 32)) +
              1j * RNG.standard_normal((1, 32)),
              RNG.standard_normal((1, 32)) +
              1j * RNG.standard_normal((1, 32))], 1e-9),
    "fft_spectrum": ([arg((1, 32))], [RNG.standard_normal((1, 32))],
                     1e-8),
    "matmul": ([arg((8, 8)), arg((8, 8))],
               [RNG.standard_normal((8, 8)),
                RNG.standard_normal((8, 8))], 1e-9),
    "xcorr_kernel": ([arg((1, 16)), arg((1, 32))],
                     [RNG.standard_normal((1, 16)),
                      RNG.standard_normal((1, 32))], 1e-9),
}


@pytest.mark.parametrize("entry", list(SMALL))
@pytest.mark.parametrize("mode", ["optimized", "baseline"])
def test_kernel_gcc_roundtrip(entry, mode):
    args, inputs, tol = SMALL[entry]
    source = kernel_source(entry if entry != "iir_biquad" else "iir_biquad")
    options = CompilerOptions.baseline() if mode == "baseline" else None
    result = compile_source(source, args=args, entry=entry,
                            options=options)
    golden = MatlabInterpreter(source).call(entry, list(inputs))[0]
    outputs = result.native_program().run(list(inputs)).outputs
    produced = np.atleast_2d(np.asarray(outputs[0]))
    assert produced.shape == np.asarray(golden).shape
    assert np.allclose(produced, golden, atol=tol, rtol=tol), \
        f"{entry}/{mode}: gcc output mismatch"
