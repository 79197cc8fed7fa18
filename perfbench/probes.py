"""Where the traced run puts its spans: one installer per group of
layers, each wrapping public entry points of the program's modules.

Only the traced run installs these; :meth:`Tracer.restore` removes
them.  Worker processes of the compile service are never wrapped: work
inside them is timed at the ``service`` and ``serve`` boundaries.
"""

from __future__ import annotations

import threading
import time

from perfbench.tracer import BOOKKEEPING, Tracer


def ir_statements(module) -> int:
    """IR size: lines of the module's printed form."""
    from repro.ir.printer import format_module

    return len(format_module(module).splitlines())


def vectorized_loops(result) -> int:
    """Loops the SIMD vectorizer rewrote in one compile (its passed
    remarks)."""
    return sum(1 for remark in result.remarks
               if remark.kind == "passed"
               and remark.pass_name == "simd-vectorize")


def compiler_counts(tracer: Tracer, per: float) -> "dict[str, float]":
    """The ``ir.*`` counts :func:`trace_compiler` recorded, divided by
    ``per`` (corpus rounds or set-ups)."""
    counts = {name: tracer.counts[name] / per
              for name in ("ir.lower.stmts", "ir.passes.runs",
                           "ir.passes.rounds")}
    counts["ir.passes.changed_ratio"] = \
        tracer.counts["ir.passes.changed"] / max(
            1, tracer.counts["ir.passes.runs"])
    return counts


def trace_compiler(tracer: Tracer) -> None:
    """frontend, semantics, ir (builder and passes), vectorize,
    backend."""
    import repro.backend.emitter as emitter
    import repro.compiler as compiler
    from repro.ir.passes.constant_folding import ConstantFolding
    from repro.ir.passes.cse import CommonSubexpressionElimination
    from repro.ir.passes.dce import DeadCodeElimination
    from repro.ir.passes.inline import FunctionInlining
    from repro.ir.passes.licm import LoopInvariantCodeMotion
    from repro.ir.passes.loop_fusion import LoopFusion
    from repro.ir.passes.manager import PassManager
    from repro.ir.passes.propagation import ConstantPropagation
    from repro.vectorize.complexops import ComplexInstructionSelector
    from repro.vectorize.idioms import ClipSelector, ScalarMacSelector
    from repro.vectorize.simd import SimdVectorizer

    def count_lowered(module, _args):
        with tracer.span(BOOKKEEPING):
            tracer.count("ir.lower.stmts", ir_statements(module))

    def count_pass(changed, _args):
        tracer.count("ir.passes.runs")
        tracer.count("ir.passes.changed", int(bool(changed)))

    def count_rounds(stats, _args):
        tracer.count("ir.passes.rounds",
                     sum(value for key, value in stats.items()
                         if key.startswith("rounds[")))

    tracer.wrap(compiler, "parse", "frontend.parse")
    tracer.wrap(compiler, "specialize_program", "semantics.specialize")
    tracer.wrap(compiler, "lower_program", "ir.lower",
                after=count_lowered)
    tracer.wrap(FunctionInlining, "run_module", "ir.passes.inline")
    tracer.wrap(PassManager, "run", "ir.passes.manager",
                after=count_rounds)
    for cls, short in ((ConstantPropagation, "propagation"),
                       (ConstantFolding, "folding"),
                       (LoopFusion, "fusion"),
                       (LoopInvariantCodeMotion, "licm"),
                       (DeadCodeElimination, "dce"),
                       (CommonSubexpressionElimination, "cse")):
        tracer.wrap(cls, "run", f"ir.passes.{short}", after=count_pass)
    tracer.wrap(SimdVectorizer, "run", "vectorize.simd")
    tracer.wrap(ComplexInstructionSelector, "run", "vectorize.complex")
    tracer.wrap(ScalarMacSelector, "run", "vectorize.idiom")
    tracer.wrap(ClipSelector, "run", "vectorize.idiom")
    tracer.wrap(emitter, "emit_c", "backend.emit")


def trace_execution(tracer: Tracer) -> None:
    """sim (closure build, runs) and native (build, dlopen, calls)."""
    from repro.compiler import CompilationResult
    from repro.native.builder import NativeCache
    from repro.native.program import NativeProgram
    from repro.sim.compiled import CompiledProgram

    def count_cycles(result, _args):
        tracer.count("sim.cycles", result.report.total)

    def count_build(_result, _args):
        tracer.count("native.builds")

    tracer.wrap(CompilationResult, "simulate", "sim.simulate")
    tracer.wrap(CompiledProgram, "__init__", "sim.closure_build")
    tracer.wrap(CompiledProgram, "run", "sim.run", after=count_cycles)
    tracer.wrap(NativeCache, "load", "native.load")
    # The gcc step has no public entry point of its own; wrapping it
    # splits native.load into build and dlopen.
    tracer.wrap(NativeCache, "_build", "native.build", after=count_build)
    tracer.wrap(NativeProgram, "run", "native.run")


def trace_service(tracer: Tracer) -> None:
    """service: one span per ``compile_batch``."""
    from repro.service.pool import CompileService

    def count_batch(batch, args):
        tracer.count("service.jobs", len(args[1]))
        tracer.count("service.retries",
                     sum(r.attempts - 1 for r in batch.results))
        tracer.count("service.failed",
                     sum(1 for r in batch.results if not r.ok))

    tracer.wrap(CompileService, "compile_batch", "service.batch",
                after=count_batch)


def trace_dse(tracer: Tracer) -> None:
    """dse: the search and its reference anchor."""
    from repro.dse.engine import DesignSpaceSearch

    tracer.wrap(DesignSpaceSearch, "run", "dse.search")
    # The reference anchor is a private step of ``run``; wrapping it is
    # the only way to tell its service batch from the candidates'.
    tracer.wrap(DesignSpaceSearch, "_measure_reference", "dse.reference")


def trace_serve(tracer: Tracer) -> None:
    """serve: the client round trip, the daemon's admission decision
    and the wait until an admitted ticket resolves.

    The daemon runs ``submit`` on its event-loop thread, so its spans
    are joined to the client's round trip by request content: each
    client registers its open round trip under (source, args, entry)
    and ``submit`` claims the oldest one with that content.
    """
    from repro.serve.client import ServeClient
    from repro.serve.daemon import CompileDaemon

    waiting: "dict[tuple, list]" = {}
    lock = threading.Lock()

    def make_client(original):
        def compile(self, source, args, entry=None, **kwargs):
            key = (source, tuple(args), entry)
            with tracer.span("serve.http") as span:
                with lock:
                    waiting.setdefault(key, []).append(span)
                try:
                    return original(self, source, args, entry=entry,
                                    **kwargs)
                finally:
                    with lock:
                        if span in waiting.get(key, ()):
                            waiting[key].remove(span)
        return compile

    def make_submit(original):
        def submit(self, request):
            key = (request.source, tuple(request.args), request.entry)
            with lock:
                queue = waiting.get(key)
                parent = queue.pop(0) if queue else None
            start = time.perf_counter()
            ticket = original(self, request)
            submitted = time.perf_counter()
            tracer.record("serve.daemon.submit", start, submitted, parent)
            tracer.count(f"serve.outcome.{ticket.outcome}")
            if ticket.future is not None:
                ticket.future.add_done_callback(
                    lambda _f: tracer.record(
                        "serve.daemon.resolve", submitted,
                        time.perf_counter(), parent))
            return ticket
        return submit

    tracer.patch(ServeClient, "compile", make_client)
    tracer.patch(CompileDaemon, "submit", make_submit)
