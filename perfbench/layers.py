"""The per-layer metrics of the traced run.

Every entry names the layer metric, its unit, which direction is
better, and the end-to-end metric and workload it is expected to move
(``BENCHMARK.json`` can hold only name, unit and direction, so this
table is where that prediction lives).  Layer names follow the
program's modules.

A ``.self_s`` metric is the layer's span self time summed over the
traced phase and divided by the number of benchmark operations of the
kind the spans ran under (a kernel compile, a simulator run, a native
run, a set-up, an HTTP request, a search), so it reads as seconds per
operation.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import collections

from perfbench.tracer import OP_PREFIX, Tracer

_C, _E, _S, _D = "compile_cold", "execute_warm", "serve_mixed", \
    "dse_search"

#: (name, unit, better, end-to-end metric it moves, on workload)
LAYER_METRICS = [
    ("frontend.parse.self_s", "s/op", "lower", "op_ms_p50", _C),
    ("semantics.specialize.self_s", "s/op", "lower", "op_ms_p50", _C),
    ("ir.lower.self_s", "s/op", "lower", "op_ms_p50", _C),
    ("ir.lower.stmts", "count", "lower", "op_ms_p50", _C),
    ("ir.passes.inline.self_s", "s/op", "lower", "op_ms_tail", _C),
    ("ir.passes.propagation.self_s", "s/op", "lower", "op_ms_tail", _C),
    ("ir.passes.folding.self_s", "s/op", "lower", "op_ms_tail", _C),
    ("ir.passes.fusion.self_s", "s/op", "lower", "op_ms_tail", _C),
    ("ir.passes.licm.self_s", "s/op", "lower", "op_ms_tail", _C),
    ("ir.passes.dce.self_s", "s/op", "lower", "op_ms_tail", _C),
    ("ir.passes.cse.self_s", "s/op", "lower", "op_ms_tail", _C),
    ("ir.passes.manager.self_s", "s/op", "lower", "ops_per_s", _C),
    ("ir.passes.runs", "count", "lower", "ops_per_s", _C),
    ("ir.passes.rounds", "count", "lower", "ops_per_s", _C),
    ("ir.passes.changed_ratio", "ratio", "higher", "ops_per_s", _C),
    ("ir.opt.stmts", "count", "lower", "ops_per_s", _C),
    ("vectorize.simd.self_s", "s/op", "lower", "ops_per_s", _C),
    ("vectorize.complex.self_s", "s/op", "lower", "ops_per_s", _C),
    ("vectorize.idiom.self_s", "s/op", "lower", "ops_per_s", _C),
    ("vectorize.loops_vectorized", "count", "higher",
     "sim.cycle_speedup_geomean", _E),
    ("backend.emit.self_s", "s/op", "lower", "ops_per_s", _C),
    ("backend.c_bytes", "bytes", "lower", "ops_per_s", _C),
    ("native.build.self_s", "s/op", "lower", "setup_s", _E),
    ("native.builds", "count", "lower", "setup_s", _E),
    ("native.load.self_s", "s/op", "lower", "setup_s", _E),
    ("native.kernel_us", "us", "lower", "op_ms_p50", _E),
    ("native.dispatch_us", "us", "lower", "op_ms_p50", _E),
    ("native.dispatch_share", "ratio", "lower", "op_ms_p50", _E),
    ("sim.closure_build.self_s", "s/op", "lower", "setup_s", _E),
    ("sim.simulate.self_s", "s/op", "lower", "ops_per_s", _D),
    ("sim.run.self_s", "s/op", "lower", "ops_per_s", _D),
    ("sim.cycles_per_wall_s", "1/s", "higher", "ops_per_s", _D),
    ("sim.cycle_speedup_geomean", "ratio", "higher",
     "sim.cycle_speedup_geomean", _E),
    ("cache.hits", "count", "higher", "op_ms_p50", _S),
    ("cache.misses", "count", "lower", "op_ms_p50", _S),
    ("cache.hit_ratio", "ratio", "higher", "ops_per_s", _S),
    ("service.batch.self_s", "s/op", "lower", "ops_per_s", _D),
    ("service.jobs", "count", "lower", "ops_per_s", _D),
    ("service.retries", "count", "lower", "ops_per_s", _D),
    ("service.failed", "count", "lower", "ops_per_s", _D),
    ("serve.daemon.submit.self_s", "s/op", "lower", "op_ms_p50", _S),
    ("serve.daemon.resolve_s", "s/op", "lower", "op_ms_tail", _S),
    ("serve.http.self_s", "s/op", "lower", "op_ms_p50", _S),
    ("serve.outcome.hit", "count", "higher", "op_ms_p50", _S),
    ("serve.outcome.accepted", "count", "lower", "op_ms_tail", _S),
    ("serve.outcome.coalesced", "count", "higher", "op_ms_tail", _S),
    ("serve.outcome.shed", "count", "lower", "op_ms_tail", _S),
    ("dse.reference.self_s", "s/op", "lower", "ops_per_s", _D),
    ("dse.search.self_s", "s/op", "lower", "ops_per_s", _D),
    ("dse.evaluations", "count", "lower", "ops_per_s", _D),
    ("dse.distinct_result_ratio", "ratio", "higher", "ops_per_s", _D),
    ("trace.overhead_ratio", "ratio", "lower", "ops_per_s", "all"),
    ("trace.uncovered_share", "ratio", "lower", "ops_per_s", "all"),
]

#: Layer metrics whose value is a span self time (name minus suffix),
#: except ``serve.daemon.resolve_s``, a span with no children.
_SPAN_SUFFIX = ".self_s"
_RESOLVE = "serve.daemon.resolve_s"


def _span_metrics(tracer: Tracer) -> "dict[str, float]":
    """Span name -> self seconds per operation.

    Spans outside any operation (the daemon's dispatcher thread) are
    divided by the count of the most frequent operation kind.
    """
    op_kinds = collections.Counter(op.name for op in tracer.ops())
    main_kind = op_kinds.most_common(1)[0][0] if op_kinds else ""
    seconds: "dict[str, float]" = collections.defaultdict(float)
    kinds: "dict[str, set]" = collections.defaultdict(set)
    for (name, kind), value in tracer.self_times().items():
        if name.startswith(OP_PREFIX):
            continue
        seconds[name] += value
        kinds[name].add(kind or main_kind)
    return {name: value / max(1, sum(op_kinds[k] for k in kinds[name]))
            for name, value in seconds.items()}


def per_layer_metrics(tracer: Tracer,
                      extra: "dict[str, float]") -> "dict[str, tuple]":
    """Every metric of :data:`LAYER_METRICS` -> (value, unit)."""
    spans = _span_metrics(tracer)
    out = {}
    for name, unit, _better, _moves, _workload in LAYER_METRICS:
        if name in extra:
            value = extra[name]
        elif name == _RESOLVE:
            value = spans.get("serve.daemon.resolve", 0.0)
        elif name.endswith(_SPAN_SUFFIX):
            value = spans.get(name[:-len(_SPAN_SUFFIX)], 0.0)
        else:
            value = 0.0
        out[name] = (float(value), unit)
    return out


def finish_traced(report, tracer: Tracer, extra: "dict[str, float]",
                  plain_op_s: float) -> None:
    """Fill ``report.per_layer``.  ``plain_op_s`` is the mean operation
    time of the untraced phase of the same run; the traced phase's
    mean over its operation spans is compared with it."""
    ops = [op for op in tracer.ops() if op.name != "op.setup"]
    traced_op_s = sum(op.duration for op in ops) / max(1, len(ops))
    extra = dict(extra)
    extra["trace.overhead_ratio"] = traced_op_s / plain_op_s \
        if plain_op_s > 0 else 0.0
    extra["trace.uncovered_share"] = tracer.uncovered_share()
    report.per_layer = per_layer_metrics(tracer, extra)
    report.tracer = tracer
