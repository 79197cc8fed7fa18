"""FIR filter on the SIMD ASIP: the paper's flagship benchmark, end to end.

Validates the compiled kernel three ways against the golden MATLAB
interpreter — the cycle simulator on optimized IR, the simulator on the
baseline IR, and (when gcc is available) the generated ANSI C compiled
and executed on the host — then reports the speedup and the selected
custom-instruction mix.

Run:  python examples/fir_asip.py
"""

import shutil
from pathlib import Path

import numpy as np

from repro import CompilerOptions, MatlabInterpreter, arg, compile_source

KERNEL = Path(__file__).parent / "mlab" / "fir.m"


def main() -> None:
    source = KERNEL.read_text()
    n, taps = 512, 32
    args = [arg((1, n), dtype="single"), arg((1, taps), dtype="single")]

    rng = np.random.default_rng(42)
    x = rng.standard_normal((1, n)).astype(np.float32)
    h = (rng.standard_normal((1, taps)) / taps).astype(np.float32)

    golden = np.asarray(MatlabInterpreter(source).call("fir", [x, h])[0])

    optimized = compile_source(source, args=args, processor="vliw_simd_dsp")
    baseline = compile_source(source, args=args, processor="vliw_simd_dsp",
                              options=CompilerOptions.baseline())

    run_opt = optimized.simulate([x, h])
    run_base = baseline.simulate([x, h])

    def report(label, run) -> None:
        error = np.max(np.abs(np.asarray(run.outputs[0]) - golden))
        print(f"  {label:<10} cycles={run.report.total:>9}  "
              f"max_err={error:.2e}")

    print(f"FIR {n} samples x {taps} taps (single precision)")
    report("optimized", run_opt)
    report("baseline", run_base)
    print(f"  speedup: "
          f"{run_base.report.total / run_opt.report.total:.2f}x")
    print("  instruction mix (optimized):")
    for name, count in sorted(run_opt.report.instruction_counts.items()):
        print(f"    {name:<18} x{count}")

    if shutil.which("gcc"):
        host = optimized.native_program().run([x, h]).outputs
        error = np.max(np.abs(np.asarray(host[0]) - golden))
        print(f"  gcc -std=c89 host run: max_err={error:.2e}")
    else:
        print("  (gcc not found; skipping host-compilation check)")


if __name__ == "__main__":
    main()
