"""Compiled-closure execution backend for the ASIP simulator.

The tree-walking :class:`~repro.sim.machine.Simulator` dispatches on
``isinstance`` for every IR node on every iteration, so benchmark wall
time is dominated by Python interpretation overhead rather than by the
cycle accounting the experiments actually measure.  This module pays
the IR walk once: each :class:`~repro.ir.nodes.IRFunction` is translated
into one real Python function (``ForRange`` becomes a ``range`` loop,
operator nodes become the inline expressions of their
:func:`repro.sim.ops.template`), compiled with ``exec`` against a
namespace of pre-bound helpers, and reused for every subsequent run.

What nodes compute and cost comes from :mod:`repro.sim.ops`; this
module owns only the execution strategy.  Cycle accounting is batched
per basic block: during translation the :func:`repro.sim.ops.price` of
every node in a straight-line statement group (costs that are charged
unconditionally whenever the group executes) is folded into a handful
of counter increments emitted once at the head of the group, instead of
a ``CycleReport.charge`` call per node visit.  Conditionally evaluated
work — the right-hand side of a short-circuiting ``land`` / ``lor``,
``If`` branches, loop bodies — keeps its own flush so the produced
:class:`~repro.sim.cost.CycleReport` is *identical* to the
tree-walker's (same totals, same per-category breakdown, same custom
instruction counts, same per-line attribution), which the differential
test suite enforces.

Behavioural differences versus the reference executor (both only
observable on invalid IR or runaway programs):

* the ``max_steps`` guard is charged once per loop-iteration /
  ``while``-condition check rather than once per statement, so the
  limit triggers at a different (coarser) step count;
* error messages for malformed IR (unknown arrays, unassigned reads)
  are normalized through a single :class:`SimulationError` wrapper.
"""

from __future__ import annotations

import math
import re

import numpy as np

from repro.asip.model import ProcessorDescription
from repro.errors import SimulationError
from repro.ir import nodes as ir
from repro.ir.defuse import assigned_vars
from repro.ir.types import ArrayType, ScalarKind, ScalarType
from repro.sim import ops
from repro.sim.cost import CostModel, CycleReport
from repro.sim.machine import (
    ExecutionResult,
    bind_args,
    collect_outputs,
    format_emit,
)

#: Fixed counter slots for batched accounting, one per category that
#: :func:`repro.sim.ops.price` charges.
_CATEGORIES = ("move", "mem", "branch", "alu", "math", "call", "intrinsic")
_SLOTS = {category: index for index, category in enumerate(_CATEGORIES)}
_MEM = _SLOTS["mem"]


def _oob(name, size, index, extent):
    raise SimulationError(
        f"index {index} (extent {extent}) out of bounds for "
        f"array {name!r} of size {size} — generated code "
        "is invalid")


def _stepfail():
    raise SimulationError("simulation step limit exceeded "
                          "(infinite loop in generated code?)")


_BASE_NS = dict(ops.NAMESPACE, _oob=_oob, _stepfail=_stepfail,
                SimulationError=SimulationError)


def _merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        dst[key] = dst.get(key, 0) + value


def _raises_return(body: list[ir.Stmt]) -> bool:
    return any(isinstance(s, ir.Return) for s in ir.walk_statements(body))


def _can_abrupt(stmt: ir.Stmt) -> bool:
    """Can executing ``stmt`` abort the enclosing statement list?"""
    if isinstance(stmt, (ir.Break, ir.Continue, ir.Return)):
        return True
    if isinstance(stmt, ir.If):
        return any(_can_abrupt(s)
                   for s in stmt.then_body + stmt.else_body)
    if isinstance(stmt, (ir.ForRange, ir.While)):
        # Loops swallow Break/Continue but a Return propagates out.
        return _raises_return(stmt.body)
    return False


_SANITIZE = re.compile(r"\W")


class _FuncCodegen:
    """Translates one IRFunction into Python source + helper namespace."""

    def __init__(self, program: "CompiledProgram", func: ir.IRFunction):
        self.program = program
        self.func = func
        self.cost = program.cost
        self.profile = program.profile_lines
        self.ns: dict[str, object] = dict(_BASE_NS)
        self.ns["_a"] = program.acc
        self.ns["_ic"] = program.icounts
        self.ns["_lc"] = program.line_cycles
        self.ns["_t"] = program.steps
        self.ns["_MS"] = program.max_steps
        self.ns["_out"] = program.stdout
        self._uid = 0
        #: Source line of the statement currently being translated;
        #: charge closures capture it so conditionally-evaluated work
        #: attributes to the same line the tree-walker charges.
        self._cur_line = 0
        # Scalars written by Call statements must live in the S dict so
        # the callee-invocation helper can update them; everything else
        # becomes a plain Python local of the generated function.
        self.dict_scalars: set[str] = set()
        array_names = set(func.array_names())
        for stmt in ir.walk_statements(func.body):
            if isinstance(stmt, ir.Call):
                self.dict_scalars.update(
                    name for name in stmt.results if name not in array_names)
        self.array_names = array_names
        self._locals: dict[str, str] = {}
        self._local_taken: set[str] = set()
        self._arrays_used: dict[str, str] = {}

    # -- naming --------------------------------------------------------

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def local(self, name: str) -> str:
        alias = self._locals.get(name)
        if alias is None:
            alias = "v_" + _SANITIZE.sub("_", name)
            while alias in self._local_taken:
                alias += f"_{self.uid()}"
            self._local_taken.add(alias)
            self._locals[name] = alias
        return alias

    def array(self, name: str) -> str:
        alias = self._arrays_used.get(name)
        if alias is None:
            alias = "g_" + _SANITIZE.sub("_", name)
            while alias in self._local_taken:
                alias += f"_{self.uid()}"
            self._local_taken.add(alias)
            self._arrays_used[name] = alias
        return alias

    def bind(self, prefix: str, value) -> str:
        name = f"{prefix}{self.uid()}"
        self.ns[name] = value
        return name

    # -- accounting ----------------------------------------------------

    def flush_lines(self, static: dict[int, int],
                    counts: dict[str, int],
                    linecost: "dict[int, int] | None" = None) -> list[str]:
        lines = []
        for index in sorted(static):
            cycles = static[index]
            if cycles:
                lines.append(f"_a[{index}] += {cycles}")
        for name, count in counts.items():
            lines.append(f"_ic[{name!r}] = _ic.get({name!r}, 0) + {count}")
        if self.profile and linecost:
            for line in sorted(linecost):
                cycles = linecost[line]
                if cycles:
                    lines.append(f"_lc[{line}] = "
                                 f"_lc.get({line}, 0) + {cycles}")
        return lines

    def charge(self, node, static: dict[int, int],
               counts: dict[str, int]) -> int:
        """Fold ``node``'s price into a static charge set; returns its
        cycles."""
        priced = ops.price(node, self.cost)
        if priced is None:
            return 0
        category, cycles, instruction = priced
        _merge(static, {_SLOTS[category]: cycles})
        if instruction is not None:
            _merge(counts, {instruction: 1})
        return cycles

    def charge_closure(self, static: dict[int, int],
                       counts: dict[str, int]) -> str:
        acc = self.program.acc
        icounts = self.program.icounts
        pairs = [(i, c) for i, c in sorted(static.items()) if c]
        cpairs = list(counts.items())
        line_cycles = self.program.line_cycles if self.profile else None
        line = self._cur_line
        total = sum(c for _, c in pairs)

        def charge():
            for index, cycles in pairs:
                acc[index] += cycles
            for name, count in cpairs:
                icounts[name] = icounts.get(name, 0) + count
            if line_cycles is not None and total:
                line_cycles[line] = line_cycles.get(line, 0) + total
        return self.bind("_chg", charge)

    # -- static int analysis (lets Load/Store skip int() conversions) --

    def _is_int(self, expr: ir.Expr, intvars: set[str]) -> bool:
        if isinstance(expr, ir.Const):
            return isinstance(expr.value, int) and \
                not isinstance(expr.value, bool)
        if isinstance(expr, ir.VarRef):
            return expr.name in intvars
        if isinstance(expr, ir.BinOp):
            if expr.op in ("add", "sub", "mul", "min", "max"):
                return self._is_int(expr.left, intvars) and \
                    self._is_int(expr.right, intvars)
            if expr.op == "div":
                return isinstance(expr.type, ScalarType) and \
                    expr.type.kind.is_integer
            return False
        if isinstance(expr, ir.UnOp):
            return expr.op == "neg" and self._is_int(expr.operand, intvars)
        if isinstance(expr, ir.Cast):
            return isinstance(expr.type, ScalarType) and \
                expr.type.kind.is_integer
        if isinstance(expr, ir.Load):
            declared = self.func.local_type(expr.array)
            return isinstance(declared, ArrayType) and \
                declared.elem.kind.is_integer
        return False

    def operand(self, expr: ir.Expr, intvars: set[str],
                static: dict, counts: dict) -> str:
        """Code of ``expr``, its static charges merged into the caller's."""
        code, est, ecn = self.expr(expr, intvars)
        _merge(static, est)
        _merge(counts, ecn)
        return code

    def int_code(self, expr: ir.Expr, intvars: set[str],
                 static: dict, counts: dict) -> str:
        code = self.operand(expr, intvars, static, counts)
        if self._is_int(expr, intvars):
            return code
        return f"int({code})"

    # -- expressions ---------------------------------------------------

    def _array_info(self, name: str):
        declared = self.func.local_type(name)
        if isinstance(declared, ArrayType):
            return declared
        return None

    def _load_conv(self, name: str) -> str:
        declared = self._array_info(name)
        if declared is None:
            return "_fromnp"
        kind = declared.elem.kind
        if kind.is_complex:
            return "complex"
        if kind is ScalarKind.BOOL:
            return "bool"
        if kind.is_integer:
            return "int"
        return "float"

    def _size_code(self, name: str, alias: str) -> str:
        declared = self._array_info(name)
        return str(declared.numel) if declared is not None \
            else f"{alias}.size"

    def expr(self, e: ir.Expr, intvars: set[str]):
        """Return ``(code, static_charges, static_instruction_counts)``."""
        if isinstance(e, ir.Const):
            return self._const_code(e.value), {}, {}
        if isinstance(e, ir.VarRef):
            if e.name in self.dict_scalars:
                return f"S[{e.name!r}]", {}, {}
            return self.local(e.name), {}, {}
        if isinstance(e, ir.Load):
            return self._load_expr(e, intvars)
        if isinstance(e, ir.VecLoad):
            return self._vecload_expr(e, intvars)
        if isinstance(e, ir.BinOp) and e.op in ("land", "lor"):
            return self._logical_expr(e, intvars)
        template = ops.template(e)
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        parts = [self.operand(a, intvars, static, counts)
                 for a in e.children()]
        self.charge(e, static, counts)
        return template.format(*parts), static, counts

    def _const_code(self, value) -> str:
        if isinstance(value, bool):
            return repr(value)
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return self.bind("_k", value)

    def _load_expr(self, e: ir.Load, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        idx = self.int_code(e.index, intvars, static, counts)
        self.charge(e, static, counts)
        alias = self.array(e.array)
        size = self._size_code(e.array, alias)
        conv = self._load_conv(e.array)
        j = f"_j{self.uid()}"
        code = (f"({conv}({alias}[{j}]) "
                f"if 0 <= ({j} := {idx}) < {size} "
                f"else _oob({e.array!r}, {size}, {j}, 1))")
        return code, static, counts

    def _logical_expr(self, e: ir.BinOp, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        self.charge(e, static, counts)
        lcode = self.operand(e.left, intvars, static, counts)
        rcode, rst, rcn = self.expr(e.right, intvars)
        if rst or rcn:
            # Right side only evaluated (and charged) on demand.
            chg = self.charge_closure(rst, rcn)
            rcode = f"({chg}(), {rcode})[1]"
        return ops.template(e).format(lcode, rcode), static, counts

    def _vecload_expr(self, e: ir.VecLoad, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        base = self.int_code(e.base, intvars, static, counts)
        self.charge(e, static, counts)
        lanes = e.type.lanes
        alias = self.array(e.array)
        size = self._size_code(e.array, alias)
        j = f"_j{self.uid()}"
        slice_code = f"{alias}[{j}:{j} + {lanes}]"
        if e.reverse:
            slice_code += "[::-1]"
        code = (f"({slice_code}.copy() "
                f"if 0 <= ({j} := {base}) <= {size} - {lanes} "
                f"else _oob({e.array!r}, {size}, {j}, {lanes}))")
        return code, static, counts

    # -- statements ----------------------------------------------------

    def stmt(self, s: ir.Stmt, intvars: set[str]):
        """Return ``(lines, static_charges, static_counts)``."""
        self._cur_line = s.line
        if isinstance(s, ir.AssignVar):
            return self._assign_stmt(s, intvars)
        if isinstance(s, ir.Store):
            return self._store_stmt(s, intvars)
        if isinstance(s, ir.VecStore):
            return self._vecstore_stmt(s, intvars)
        if isinstance(s, ir.IntrinsicStmt):
            code, static, counts = self.expr(s.call, intvars)
            return [code], static, counts
        if isinstance(s, ir.ForRange):
            return self._for_stmt(s, intvars)
        if isinstance(s, ir.While):
            return self._while_stmt(s, intvars)
        if isinstance(s, ir.If):
            return self._if_stmt(s, intvars)
        if isinstance(s, ir.Break):
            return ["break"], {}, {}
        if isinstance(s, ir.Continue):
            return ["continue"], {}, {}
        if isinstance(s, ir.Return):
            return self.epilogue_lines() + ["return"], {}, {}
        if isinstance(s, ir.Call):
            return self._call_stmt(s, intvars)
        if isinstance(s, ir.Emit):
            return self._emit_stmt(s, intvars)
        if isinstance(s, ir.CopyArray):
            return self._copy_stmt(s)
        raise SimulationError(
            f"cannot execute statement {type(s).__name__}")

    def _assign_stmt(self, s: ir.AssignVar, intvars):
        is_int = self._is_int(s.value, intvars)
        code, static, counts = self.expr(s.value, intvars)
        self.charge(s, static, counts)
        if s.name in self.dict_scalars:
            line = f"S[{s.name!r}] = {code}"
        else:
            line = f"{self.local(s.name)} = {code}"
        if is_int:
            intvars.add(s.name)
        else:
            intvars.discard(s.name)
        return [line], static, counts

    def _store_stmt(self, s: ir.Store, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        idx = self.int_code(s.index, intvars, static, counts)
        vcode = self.operand(s.value, intvars, static, counts)
        self.charge(s, static, counts)
        alias = self.array(s.array)
        size = self._size_code(s.array, alias)
        j = f"_j{self.uid()}"
        v = f"_v{self.uid()}"
        return [
            f"{j} = {idx}",
            f"{v} = {vcode}",
            f"if not (0 <= {j} < {size}): "
            f"_oob({s.array!r}, {size}, {j}, 1)",
            f"{alias}[{j}] = {v}",
        ], static, counts

    def _vecstore_stmt(self, s: ir.VecStore, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        base = self.int_code(s.base, intvars, static, counts)
        vcode = self.operand(s.value, intvars, static, counts)
        self.charge(s, static, counts)
        lanes = s.value.type.lanes
        alias = self.array(s.array)
        size = self._size_code(s.array, alias)
        j = f"_j{self.uid()}"
        v = f"_v{self.uid()}"
        return [
            f"{j} = {base}",
            f"{v} = {vcode}",
            f"if not (0 <= {j} <= {size} - {lanes}): "
            f"_oob({s.array!r}, {size}, {j}, {lanes})",
            f"{alias}[{j}:{j} + {lanes}] = {v}",
        ], static, counts

    def _for_stmt(self, s: ir.ForRange, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        start = self.int_code(s.start, intvars, static, counts)
        stop = self.int_code(s.stop, intvars, static, counts)

        body_vars = assigned_vars(s.body)
        inner = set(intvars) - body_vars
        loop_var_reassigned = any(
            isinstance(st, ir.AssignVar) and st.name == s.var
            for st in ir.walk_statements(s.body))
        if not loop_var_reassigned:
            inner.add(s.var)

        body_lines, bstatic, bcounts, blc = self.block(s.body, inner)
        # Loop-control overhead attributes to the loop's own line,
        # exactly like the tree-walker's per-iteration branch charge.
        _merge(blc, {s.line: self.charge(s, bstatic, bcounts)})
        flush = self.flush_lines(bstatic, bcounts, blc)

        if s.var in self.dict_scalars:
            lv = f"_i{self.uid()}"
            assign = [f"S[{s.var!r}] = {lv}"]
        else:
            lv = self.local(s.var)
            assign = []
        lines = [f"for {lv} in range({start}, {stop}, {s.step}):"]
        suite = flush + assign + body_lines
        lines.extend("    " + l for l in (suite or ["pass"]))

        # Conservatively forget everything the body may have reassigned.
        # The loop variable is only provably int afterwards when it was
        # already int before (a zero-trip loop leaves the old value).
        was_int = s.var in intvars
        intvars.difference_update(body_vars)
        if was_int and not loop_var_reassigned:
            intvars.add(s.var)
        return lines, static, counts

    def _while_stmt(self, s: ir.While, intvars):
        body_vars = assigned_vars(s.body)
        intvars.difference_update(body_vars)
        ccode, cstatic, ccounts = self.expr(s.condition, intvars)
        self.charge(s, cstatic, ccounts)
        # Condition check (including the final failing one) belongs to
        # the while statement's line, as in the tree-walker.
        check_flush = self.flush_lines(
            cstatic, ccounts, {s.line: sum(cstatic.values())})

        body_lines, bstatic, bcounts, blc = self.block(s.body,
                                                       set(intvars))
        body_flush = self.flush_lines(bstatic, bcounts, blc)

        suite = ["_t[0] += 1", "if _t[0] > _MS: _stepfail()"]
        suite += check_flush
        suite.append(f"if not ({ccode}): break")
        suite += body_flush + body_lines
        lines = ["while True:"] + ["    " + l for l in suite]
        return lines, {}, {}

    def _if_stmt(self, s: ir.If, intvars):
        ccode, static, counts = self.expr(s.condition, intvars)
        self.charge(s, static, counts)

        then_vars = set(intvars)
        then_lines, tst, tcn, tlc = self.block(s.then_body, then_vars)
        then_suite = self.flush_lines(tst, tcn, tlc) + then_lines
        else_vars = set(intvars)
        else_lines, est, ecn, elc = self.block(s.else_body, else_vars)
        else_suite = self.flush_lines(est, ecn, elc) + else_lines

        lines = [f"if {ccode}:"]
        lines.extend("    " + l for l in (then_suite or ["pass"]))
        if else_suite:
            lines.append("else:")
            lines.extend("    " + l for l in else_suite)
        intvars.intersection_update(then_vars & else_vars)
        return lines, static, counts

    def _call_stmt(self, s: ir.Call, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        self.charge(s, static, counts)
        parts = [f"{self.array(a)}.copy()" if isinstance(a, str)
                 else self.operand(a, intvars, static, counts)
                 for a in s.args]
        program = self.program
        callee = s.callee
        results = list(s.results)

        def invoke(S, A, args):
            cf = program.compiled.get(callee)
            if cf is None:
                raise SimulationError(f"unknown callee {callee!r}")
            outs = cf.call(list(args))
            for name, value in zip(results, outs):
                if isinstance(value, np.ndarray):
                    dst = A.get(name)
                    if dst is None:
                        raise SimulationError(f"unknown array {name!r}")
                    dst[:] = value.reshape(-1, order="F")
                else:
                    S[name] = value
        helper = self.bind("_call", invoke)
        tuple_code = "(" + "".join(p + ", " for p in parts) + ")"
        intvars.difference_update(results)
        return [f"{helper}(S, A, {tuple_code})"], static, counts

    def _emit_stmt(self, s: ir.Emit, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        parts = [self.operand(a, intvars, static, counts) for a in s.args]
        stdout = self.program.stdout
        fmt = s.format

        def emit(values):
            stdout.append(format_emit(fmt, list(values)))
        helper = self.bind("_emit", emit)
        tuple_code = "(" + "".join(p + ", " for p in parts) + ")"
        return [f"{helper}({tuple_code})"], static, counts

    def _copy_stmt(self, s: ir.CopyArray):
        dst_t = self._array_info(s.dst)
        src_t = self._array_info(s.src)
        dalias = self.array(s.dst)
        salias = self.array(s.src)
        if dst_t is not None and src_t is not None:
            count = min(dst_t.numel, src_t.numel)
            cost = ops.copy_cycles(self.cost, count,
                                   dst_t.elem.kind.is_complex)
            return ([f"{dalias}[:{count}] = {salias}[:{count}]"],
                    {_MEM: cost}, {})
        # Shapes unknown at compile time: fall back to a dynamic helper.
        acc = self.program.acc
        cost_model = self.cost
        line_cycles = self.program.line_cycles if self.profile else None
        line = self._cur_line

        def copy(dst, src):
            count = min(dst.size, src.size)
            cost = ops.copy_cycles(cost_model, count, np.iscomplexobj(dst))
            acc[_MEM] += cost
            if line_cycles is not None:
                line_cycles[line] = line_cycles.get(line, 0) + cost
            dst[:count] = src[:count]
        helper = self.bind("_cpy", copy)
        return [f"{helper}({dalias}, {salias})"], {}, {}

    # -- blocks and function assembly ----------------------------------

    def block(self, body: list[ir.Stmt], intvars: set[str]):
        """Emit a statement list.

        Static charges of the leading statement group (everything up to
        and including the first statement that can abort the block) are
        hoisted to the caller; later groups flush inline, so a Break /
        Continue / Return mid-block never over-charges.  When line
        profiling is on, each group also carries a per-source-line
        breakdown of the same static cycles.
        """
        groups: list[tuple[list[str], dict, dict, dict]] = []
        cur_lines: list[str] = []
        cur_static: dict[int, int] = {}
        cur_counts: dict[str, int] = {}
        cur_lc: dict[int, int] = {}
        for s in body:
            slines, sst, scn = self.stmt(s, intvars)
            _merge(cur_static, sst)
            _merge(cur_counts, scn)
            if self.profile:
                stmt_cycles = sum(sst.values())
                if stmt_cycles:
                    _merge(cur_lc, {s.line: stmt_cycles})
            cur_lines.extend(slines)
            if _can_abrupt(s):
                groups.append((cur_lines, cur_static, cur_counts,
                               cur_lc))
                cur_lines, cur_static, cur_counts, cur_lc = \
                    [], {}, {}, {}
        if cur_lines or cur_static or cur_counts:
            groups.append((cur_lines, cur_static, cur_counts, cur_lc))
        if not groups:
            return [], {}, {}, {}
        lines = list(groups[0][0])
        for glines, gst, gcn, glc in groups[1:]:
            lines.extend(self.flush_lines(gst, gcn, glc))
            lines.extend(glines)
        return lines, groups[0][1], groups[0][2], groups[0][3]

    def epilogue_lines(self) -> list[str]:
        """Write scalar outputs held in locals back to S before leaving."""
        lines = []
        for out in self.func.outputs:
            if isinstance(out.type, ArrayType) or \
                    out.name in self.dict_scalars:
                continue
            alias = self.local(out.name)
            lines.append("try:")
            lines.append(f"    S[{out.name!r}] = {alias}")
            lines.append("except NameError:")
            lines.append("    pass")
        return lines

    def build(self):
        func = self.func
        intvars = {p.name for p in func.params
                   if isinstance(p.type, ScalarType)
                   and p.type.kind.is_integer}
        body_lines, static, counts, linecost = self.block(func.body,
                                                          intvars)
        body_lines = self.flush_lines(static, counts, linecost) + \
            body_lines
        body_lines += self.epilogue_lines()

        prologue = []
        for param in func.params:
            if isinstance(param.type, ScalarType) and \
                    param.name not in self.dict_scalars and \
                    param.name in self._locals:
                prologue.append(
                    f"{self._locals[param.name]} = S[{param.name!r}]")
        for name, alias in self._arrays_used.items():
            prologue.append(f"{alias} = A[{name!r}]")

        suite = prologue + body_lines or ["pass"]
        source = "def _f(S, A):\n" + "\n".join(
            "    " + line for line in suite)
        code = compile(source, f"<compiled {func.name}>", "exec")
        exec(code, self.ns)
        return self.ns["_f"], source


class CompiledFunction:
    """One IRFunction translated to a directly executable Python function."""

    def __init__(self, program: "CompiledProgram", func: ir.IRFunction):
        self.func = func
        self.fn, self.source = _FuncCodegen(program, func).build()

    def call(self, args: list[object]) -> list[object]:
        func = self.func
        scalars, arrays = bind_args(func, args)
        try:
            self.fn(scalars, arrays)
        except SimulationError:
            raise
        except KeyError as exc:
            raise SimulationError(
                f"read of unassigned variable {exc.args[0]!r}") from exc
        except NameError as exc:
            raise SimulationError(
                f"read of unassigned variable in {func.name}: "
                f"{exc}") from exc
        return collect_outputs(func, scalars, arrays)


class CompiledProgram:
    """A whole IRModule translated once, reusable across many runs."""

    def __init__(self, module: ir.IRModule,
                 processor: ProcessorDescription,
                 max_steps: int = 200_000_000,
                 profile_lines: bool = False):
        self.module = module
        self.processor = processor
        self.cost = CostModel(processor)
        self.max_steps = max_steps
        self.profile_lines = profile_lines
        self.acc: list[int] = [0] * len(_CATEGORIES)
        self.icounts: dict[str, int] = {}
        self.line_cycles: dict[int, int] = {}
        self.steps: list[int] = [0]
        self.stdout: list[str] = []
        self.compiled: dict[str, CompiledFunction] = {}
        for func in module.functions:
            self.compiled[func.name] = CompiledFunction(self, func)

    def _reset(self) -> None:
        acc = self.acc
        for index in range(len(acc)):
            acc[index] = 0
        self.icounts.clear()
        self.line_cycles.clear()
        self.steps[0] = 0
        self.stdout.clear()

    def run(self, args: list[object],
            entry: str | None = None) -> ExecutionResult:
        self._reset()
        name = entry or self.module.entry
        cf = self.compiled.get(name)
        if cf is None:
            raise SimulationError(f"no function {name!r}")
        outputs = cf.call(list(args))
        report = CycleReport(
            total=sum(self.acc),
            by_category={_CATEGORIES[i]: v
                         for i, v in enumerate(self.acc) if v},
            instruction_counts=dict(self.icounts))
        line_cycles = dict(self.line_cycles) if self.profile_lines \
            else None
        return ExecutionResult(outputs=outputs, report=report,
                               stdout="".join(self.stdout),
                               line_cycles=line_cycles)

    def dump_source(self, name: str | None = None) -> str:
        """Generated Python of one function (debugging aid)."""
        cf = self.compiled[name or self.module.entry]
        return cf.source

