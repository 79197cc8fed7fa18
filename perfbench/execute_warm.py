"""``execute_warm``: warm execution of the compiled corpus.

Set-up compiles the corpus (optimized and baseline), builds the
compiled-simulator closures and the native ``.so`` files from a cold
native cache.  Before that, the benchmark draws K input sets per
kernel from the seed and computes their interpreter goldens (not part
of ``setup_s``).  Each timed round runs, for every kernel, one
``simulate(backend="compiled")`` and a fixed batch of
``NativeProgram.run`` calls on one of those input sets, and checks
every output against the golden within the kernel's tolerance.

The end-to-end operation is one ``NativeProgram.run``, timed as the
mean over a batch of back-to-back runs so that one timer read does not
sit inside a 30 us call; the simulator runs are reported beside it
(``sim_ms``) and gate the DSE workload.
"""

from __future__ import annotations

import ctypes
import math
import random
import statistics
import time

import numpy as np

from perfbench import harness, layers, probes
from perfbench.harness import Config, Report
from perfbench.tracer import Tracer

#: Input sets drawn per kernel.
INPUT_SETS = 2
#: ``NativeProgram.run`` calls per kernel per round.
NATIVE_BATCH = 20
#: Raw wrapper calls per kernel when splitting kernel from dispatch.
RAW_CALLS = 400
#: Every kernel is one tenth of the samples, so p95 is the middle of
#: the slowest kernel's block.  A p99 of 30 us calls measured the host's
#: hiccups instead: it spread by 28% over ten runs of the same code.
TAIL_PCT = 95.0

_TINY_KERNELS = ("cdot", "bf_weights")


class _Kernel:
    """One corpus kernel with its inputs, goldens and compiled forms."""

    def __init__(self, workload, inputs, goldens):
        self.workload = workload
        self.inputs = inputs
        self.goldens = goldens
        self.optimized = None
        self.baseline = None
        self.native = None
        #: input set -> cycle count of the first simulator run.
        self.cycles: "dict[int, int]" = {}

    @property
    def name(self) -> str:
        return self.workload.name


def _matches(produced, golden, tolerance: float) -> bool:
    produced = np.atleast_2d(np.asarray(produced))
    return produced.shape == golden.shape and bool(np.allclose(
        produced, golden, atol=tolerance, rtol=tolerance))


def _prepare(cfg: Config) -> "list[_Kernel]":
    from benchmarks.workloads import default_workloads
    from repro.sim.inputs import mix_seed

    kernels = []
    for workload in default_workloads():
        if cfg.tiny and workload.name not in _TINY_KERNELS:
            continue
        inputs = [workload.inputs(mix_seed(cfg.seed,
                                           f"{workload.name}/{k}"))
                  for k in range(INPUT_SETS)]
        goldens = [np.atleast_2d(workload.golden(x)) for x in inputs]
        kernels.append(_Kernel(workload, inputs, goldens))
    return kernels


def _build(cfg: Config, kernels: "list[_Kernel]") -> None:
    """Compile, build closures and native libraries (cold)."""
    from repro.compiler import CompilerOptions, compile_source
    from repro.native import builder

    builder.configure(cache_dir=cfg.subdir("native"))
    for kernel in kernels:
        workload = kernel.workload
        for attr, options in (("optimized", None),
                              ("baseline", CompilerOptions.baseline())):
            result = compile_source(workload.source, workload.arg_types,
                                    entry=workload.entry, options=options,
                                    filename=f"{workload.entry}.m",
                                    use_cache=False)
            result.compiled_program()
            setattr(kernel, attr, result)
        kernel.native = kernel.optimized.native_program()


class _Phase:
    def __init__(self) -> None:
        self.sim: "list[float]" = []
        #: Seconds per ``NativeProgram.run``, one mean per batch.
        self.native: "list[float]" = []
        self.native_by_kernel: "dict[str, list[float]]" = {}
        #: Native runs per second of native time, one value per round.
        self.native_rates: "list[float]" = []
        self.cycles: "dict[tuple, int]" = {}


def _run_phase(report: Report, kernels, rng, seconds: float,
               tracer: "Tracer | None") -> _Phase:
    phase = _Phase()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        order = list(kernels)
        rng.shuffle(order)
        native_time = 0.0
        for kernel in order:
            k = rounds % INPUT_SETS
            _simulate(report, phase, kernel, k, tracer)
            native_time += _native_batch(report, phase, kernel, k, tracer)
        phase.native_rates.append(
            len(order) * NATIVE_BATCH / max(native_time, 1e-9))
        rounds += 1
    return phase


def _simulate(report, phase, kernel, k, tracer) -> None:
    report.attempted += 1
    args = kernel.inputs[k]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = kernel.optimized.simulate(args, backend="compiled")
        else:
            with tracer.span("op.sim"):
                result = kernel.optimized.simulate(args,
                                                   backend="compiled")
    except Exception as exc:  # counted, the run goes on
        report.fail(f"{kernel.name}: simulate: "
                    f"{type(exc).__name__}: {exc}")
        return
    phase.sim.append(time.perf_counter() - t0)
    first = kernel.cycles.setdefault(k, result.report.total)
    phase.cycles[(kernel.name, k)] = result.report.total
    if not report.check(first == result.report.total,
                        f"{kernel.name}: cycle count changed"):
        return
    report.check(_matches(result.outputs[0], kernel.goldens[k],
                          kernel.workload.tolerance),
                 f"{kernel.name}: simulator output differs from golden")


def _native_batch(report, phase, kernel, k, tracer) -> float:
    """``NATIVE_BATCH`` back-to-back runs on one input set; outputs are
    checked after the timed batch.  Returns the batch's seconds."""
    args = kernel.inputs[k]
    results = []
    report.attempted += NATIVE_BATCH
    t0 = time.perf_counter()
    try:
        for _ in range(NATIVE_BATCH):
            if tracer is None:
                results.append(kernel.native.run(args))
            else:
                with tracer.span("op.native"):
                    results.append(kernel.native.run(args))
    except Exception as exc:  # counted, the run goes on
        for _ in range(NATIVE_BATCH - len(results)):
            report.fail(f"{kernel.name}: native run: "
                        f"{type(exc).__name__}: {exc}")
        return 0.0
    elapsed = time.perf_counter() - t0
    phase.native.append(elapsed / NATIVE_BATCH)
    phase.native_by_kernel.setdefault(kernel.name, []).append(
        elapsed / NATIVE_BATCH)
    for result in results:
        report.check(_matches(result.outputs[0], kernel.goldens[k],
                              kernel.workload.tolerance),
                     f"{kernel.name}: native output differs from golden")
    return elapsed


def _speedup_geomean(report, kernels) -> float:
    """Geometric mean of baseline / optimized cycles (input set 0)."""
    logs = []
    for kernel in kernels:
        opt = kernel.optimized.simulate(kernel.inputs[0],
                                        backend="compiled")
        base = kernel.baseline.simulate(kernel.inputs[0],
                                        backend="compiled")
        report.check(_matches(base.outputs[0], kernel.goldens[0],
                              kernel.workload.tolerance),
                     f"{kernel.name}: baseline output differs from golden")
        logs.append(math.log(base.report.total / opt.report.total))
    return math.exp(sum(logs) / len(logs))


def run(cfg: Config) -> Report:
    report = Report(cfg.workload)
    kernels = _prepare(cfg)
    harness.timed_setup(report, lambda: _build(cfg, kernels))
    rng = random.Random(cfg.seed)
    seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
    plain = _run_phase(report, kernels, rng, seconds, None)
    speedup = _speedup_geomean(report, kernels)

    report.lines.append(
        f"execute_warm (closed loop, 1 caller, {len(kernels)} kernels, "
        f"{INPUT_SETS} input sets, 1 simulate + {NATIVE_BATCH} native "
        "runs per kernel per round)")
    ops_per_s = statistics.median(plain.native_rates)
    report.line("native_runs_per_s", ops_per_s, "1/s", "median over rounds")
    p50, tail = report.timing(
        "native_us", [s * 1e6 for s in plain.native], "us",
        TAIL_PCT, p50_note=f"n={len(plain.native)} batches of "
                                  f"{NATIVE_BATCH} runs, mean per run")
    report.timing("sim_ms", [s * 1e3 for s in plain.sim], "ms", TAIL_PCT)
    report.line("cycle_speedup_geomean", speedup, "ratio",
                "baseline / optimized cycles")
    report.metric("ops_per_s", ops_per_s, "1/s")
    report.metric("op_ms_p50", p50 / 1e3, "ms")
    report.metric("op_ms_tail", tail / 1e3, "ms")
    if cfg.trace:
        _traced(cfg, report, kernels, rng, seconds, plain, speedup)
    harness.finish_end_to_end(report)
    return report


def _raw_call_us(kernel) -> float:
    """Median microseconds of the bare wrapper call on pre-marshalled
    buffers (no Python-side marshalling)."""
    from repro.native import abi, builder

    module = kernel.optimized.module
    plan = abi.build_plan(module)
    lib = builder.default_cache().load(
        abi.native_source(module, kernel.optimized.processor))
    fn = getattr(lib, abi.WRAPPER_SYMBOL)
    fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                   ctypes.POINTER(ctypes.c_void_p)]
    fn.restype = None
    in_bufs = []
    for slot, value in zip(plan.params, kernel.inputs[0]):
        if slot.is_array:
            in_bufs.append(np.ascontiguousarray(
                np.ravel(np.asarray(value), order="F"), dtype=slot.dtype))
        else:
            in_bufs.append(np.full(1, np.asarray(value).item(),
                                   dtype=slot.dtype))
    out_bufs = [np.zeros(slot.numel, dtype=slot.dtype)
                for slot in plan.outputs]
    in_ptrs = (ctypes.c_void_p * max(1, len(in_bufs)))(
        *(buf.ctypes.data for buf in in_bufs))
    out_ptrs = (ctypes.c_void_p * max(1, len(out_bufs)))(
        *(buf.ctypes.data for buf in out_bufs))
    samples = []
    for _ in range(RAW_CALLS):
        t0 = time.perf_counter()
        fn(in_ptrs, out_ptrs)
        samples.append(time.perf_counter() - t0)
    return harness.percentile(samples, 50.0) * 1e6


def _traced(cfg, report, kernels, rng, seconds, plain, speedup) -> None:
    tracer = Tracer()
    probes.trace_compiler(tracer)
    probes.trace_execution(tracer)
    traced_kernels = [_Kernel(k.workload, k.inputs, k.goldens)
                      for k in kernels]
    try:
        with tracer.span("op.setup"):
            _build(cfg, traced_kernels)
        traced = _run_phase(report, traced_kernels, rng, seconds, tracer)
    finally:
        tracer.restore()
    common = traced.cycles.keys() & plain.cycles.keys()
    report.check(bool(common) and all(
        traced.cycles[key] == plain.cycles[key] for key in common),
        "cycle counts differ between traced and untraced runs")
    for kernel, twin in zip(kernels, traced_kernels):
        report.check(kernel.optimized.c_source()
                     == twin.optimized.c_source(),
                     f"{kernel.name}: emitted C differs between traced "
                     "and untraced runs")

    kernel_us, run_us = [], []
    for kernel in kernels:
        kernel_us.append(_raw_call_us(kernel))
        run_us.append(harness.percentile(
            plain.native_by_kernel[kernel.name], 50.0) * 1e6)
    mean_kernel = sum(kernel_us) / len(kernel_us)
    mean_run = sum(run_us) / len(run_us)
    sim_seconds = sum(value for (name, _kind), value
                      in tracer.self_times().items() if name == "sim.run")
    extra = {
        "native.kernel_us": mean_kernel,
        "native.dispatch_us": mean_run - mean_kernel,
        "native.dispatch_share": (mean_run - mean_kernel) / mean_run,
        "native.builds": tracer.counts["native.builds"],
        "sim.cycles_per_wall_s": tracer.counts["sim.cycles"]
        / max(sim_seconds, 1e-12),
        "sim.cycle_speedup_geomean": speedup,
        "vectorize.loops_vectorized": sum(
            probes.vectorized_loops(kernel.optimized)
            for kernel in traced_kernels),
        **probes.compiler_counts(tracer, 1),
    }
    plain_ops = len(plain.sim) + len(plain.native) * NATIVE_BATCH
    plain_seconds = sum(plain.sim) + sum(plain.native) * NATIVE_BATCH
    layers.finish_traced(report, tracer, extra, plain_seconds / plain_ops)
