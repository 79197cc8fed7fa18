"""``compile_cold``: one caller compiling the corpus with the cache off.

Each round compiles every corpus kernel with
``compile_source(..., use_cache=False)`` and then ``c_source()``, in the
optimized pipeline on ``vliw_simd_dsp`` and in
``CompilerOptions.baseline()``, in a seed-shuffled order.  No gcc, no
simulation: the run exercises frontend -> semantics -> ir -> ir.passes
-> vectorize -> backend and nothing else.  An operation is one kernel
compile, emit included.
"""

from __future__ import annotations

import random
import statistics
import time

from perfbench import harness, layers, probes
from perfbench.harness import Config, Report
from perfbench.tracer import BOOKKEEPING, Tracer

PROCESSOR = "vliw_simd_dsp"

#: ``inv3x3``'s optimized compile is 1 in 20 operations and several
#: times slower than any other; p97.5 sits inside that block, and at
#: the seed's speed a run has ~400 operations, ten of them beyond it.
TAIL_PCT = 97.5

_TINY_KERNELS = ("cdot", "bf_weights")


def _jobs(cfg: Config):
    from benchmarks.workloads import default_workloads
    from repro.compiler import CompilerOptions

    kernels = default_workloads()
    if cfg.tiny:
        kernels = [k for k in kernels if k.name in _TINY_KERNELS]
    return [(kernel, mode, CompilerOptions() if mode == "optimized"
             else CompilerOptions.baseline())
            for kernel in kernels for mode in ("optimized", "baseline")]


def _compile(kernel, options, processor):
    from repro.compiler import compile_source

    result = compile_source(kernel.source, kernel.arg_types,
                            entry=kernel.entry, processor=processor,
                            options=options,
                            filename=f"{kernel.entry}.m",
                            use_cache=False)
    return result, result.c_source()


class _Phase:
    """Whole rounds over the corpus for a fixed time."""

    def __init__(self) -> None:
        #: (kernel, mode) -> its compile times.
        self.by_key: "dict[tuple, list[float]]" = {}
        #: compiles per second of each round.
        self.round_rates: "list[float]" = []
        self.rounds = 0
        #: traced runs: operation span id -> (kernel, mode).
        self.op_keys: "dict[int, tuple]" = {}
        self.digests: "dict[tuple, str]" = {}
        #: (kernel, mode) -> bytes of emitted C.
        self.c_bytes: "dict[tuple, int]" = {}


def _run_phase(report: Report, jobs, processor, rng, seconds: float,
               tracer: "Tracer | None", after_op=None) -> _Phase:
    phase = _Phase()
    start = time.perf_counter()
    while phase.rounds == 0 or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        order = list(jobs)
        rng.shuffle(order)
        for kernel, mode, options in order:
            report.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result, c_text = _compile(kernel, options, processor)
                else:
                    with tracer.span("op.compile") as op:
                        phase.op_keys[op.id] = (kernel.name, mode)
                        result, c_text = _compile(kernel, options,
                                                  processor)
                        if after_op is not None:
                            with tracer.span(BOOKKEEPING):
                                after_op(result, c_text, mode)
            except Exception as exc:  # counted, the run goes on
                report.fail(f"{kernel.name}/{mode}: "
                            f"{type(exc).__name__}: {exc}")
                continue
            key = (kernel.name, mode)
            phase.by_key.setdefault(key, []).append(
                time.perf_counter() - t0)
            text_digest = harness.digest(c_text)
            first = phase.digests.setdefault(key, text_digest)
            phase.c_bytes.setdefault(key, len(c_text.encode("utf-8")))
            report.check(first == text_digest,
                         f"{kernel.name}/{mode}: emitted C changed "
                         "between rounds")
        phase.rounds += 1
        phase.round_rates.append(
            len(order) / (time.perf_counter() - round_start))
    return phase


def _samples(phase: _Phase) -> "list[float]":
    return [s for samples in phase.by_key.values() for s in samples]


def run(cfg: Config) -> Report:
    from repro.asip.isa_library import load_processor

    report = Report(cfg.workload)
    jobs = _jobs(cfg)

    def build():
        processor = load_processor(PROCESSOR)
        for kernel, _mode, options in jobs:
            _compile(kernel, options, processor)
        return processor

    processor = harness.timed_setup(report, build)
    rng = random.Random(cfg.seed)
    seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
    plain = _run_phase(report, jobs, processor, rng, seconds, None)

    c_bytes = sum(size - _header_size(processor)
                  for (_name, mode), size in plain.c_bytes.items()
                  if mode == "optimized")
    report.lines.append("compile_cold (closed loop, 1 caller, "
                        f"{len(jobs)} compiles per round, "
                        f"{plain.rounds} rounds)")
    per_s = statistics.median(plain.round_rates)
    report.line("compiles_per_s", per_s, "1/s", "median over rounds")
    # The corpus mixes compiles from 0.5 to 250 ms, and the pooled
    # median falls in a gap between two kernels; the median of the
    # per-kernel medians does not.
    p50, tail = report.timing(
        "compile_ms", [s * 1e3 for s in _samples(plain)], "ms", TAIL_PCT,
        p50=1e3 * statistics.median(statistics.median(samples)
                                    for samples in plain.by_key.values()),
        p50_note=f"median of {len(plain.by_key)} per-kernel medians")
    report.line("c_bytes_total", c_bytes, "bytes",
                "optimized C minus the intrinsics header")
    report.metric("ops_per_s", per_s, "1/s")
    report.metric("op_ms_p50", p50, "ms")
    report.metric("op_ms_tail", tail, "ms")
    if cfg.trace:
        _traced(report, jobs, processor, rng, seconds, plain, c_bytes)
    harness.finish_end_to_end(report)
    return report


def _header_size(processor) -> int:
    """Bytes of the intrinsics header every emitted file starts with."""
    from repro.asip.header_gen import generate_header

    return len(generate_header(processor).encode("utf-8"))


def _traced(report, jobs, processor, rng, seconds, plain,
            c_bytes) -> None:
    tracer = Tracer()
    counts = {"vectorize.loops_vectorized": 0, "ir.opt.stmts": 0}

    def after_op(result, _c_text, mode):
        counts["ir.opt.stmts"] += probes.ir_statements(result.module)
        if mode == "optimized":
            counts["vectorize.loops_vectorized"] += \
                probes.vectorized_loops(result)

    probes.trace_compiler(tracer)
    try:
        traced = _run_phase(report, jobs, processor, rng, seconds,
                            tracer, after_op)
    finally:
        tracer.restore()
    report.check(traced.digests == plain.digests,
                 "emitted C differs between traced and untraced runs")
    rounds = traced.rounds
    extra = {name: value / rounds for name, value in counts.items()}
    extra["backend.c_bytes"] = c_bytes
    extra.update(probes.compiler_counts(tracer, rounds))
    _print_slowest(report, tracer, traced)
    samples = _samples(plain)
    layers.finish_traced(report, tracer, extra,
                         sum(samples) / max(1, len(samples)))


def _print_slowest(report, tracer: Tracer, traced: _Phase) -> None:
    """Where the slowest kernel's compile time goes, by layer."""
    key = max(traced.by_key,
              key=lambda k: statistics.median(traced.by_key[k]))
    ops = {op_id for op_id, op_key in traced.op_keys.items()
           if op_key == key}
    self_s = {}
    for (name, _kind), seconds in tracer.self_times(ops).items():
        self_s[name] = self_s.get(name, 0.0) + seconds
    total = sum(self_s.values())
    top = sorted(self_s.items(), key=lambda item: -item[1])[:3]
    report.lines.append(
        f"  slowest compile {key[0]}/{key[1]}: "
        f"{1e3 * total / len(ops):.1f} ms, "
        + ", ".join(f"{name} {seconds / total:.0%}"
                    for name, seconds in top))
