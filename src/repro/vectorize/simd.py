"""Innermost-loop SIMD vectorization against the target's instruction set.

The vectorizer pattern-matches innermost ``ForRange`` loops whose bodies
consist of scalar temporaries, element stores with unit-stride indices,
and additive reductions.  Matched loops are strip-mined: a main loop
steps by the SIMD width executing custom-instruction calls
(:class:`~repro.ir.nodes.IntrinsicCall`, :class:`~repro.ir.nodes.VecLoad`,
:class:`~repro.ir.nodes.VecStore`), and a scalar tail loop handles the
remainder.  Reductions accumulate into a vector register and fold with a
horizontal-reduction instruction after the loop; multiply-accumulate
chains select the ``vmac`` instruction when the target has one.

Selection is entirely driven by the parameterized
:class:`~repro.asip.model.ProcessorDescription`: an operation the target
lacks simply keeps its loop scalar — this is what makes the compiler
retargetable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.asip.model import ProcessorDescription
from repro.ir import nodes as ir
from repro.ir.defuse import assigned_vars, read_outside, stmt_uses, stored_arrays
from repro.ir.types import I32, ScalarKind, ScalarType, VectorType
from repro.observe import remarks as obs_remarks
from repro.vectorize.select import SIMD_BINOPS


@dataclass
class _LoopInfo:
    loop: ir.ForRange
    elem: ScalarType
    lanes: int


class SimdVectorizer:
    """Vectorizes one IR function for a given processor."""

    name = "simd-vectorize"

    def __init__(self, processor: ProcessorDescription):
        self.processor = processor
        self._counter = 0

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self, func: ir.IRFunction) -> bool:
        self._func = func
        return self._walk(func.body)

    # ------------------------------------------------------------------
    # Remarks
    # ------------------------------------------------------------------

    def _missed(self, loop: ir.Stmt, message: str, **args) -> None:
        obs_remarks.missed(self.name, message,
                           function=self._func.name, line=loop.line,
                           **args)

    def _passed(self, loop: ir.Stmt, message: str, **args) -> None:
        obs_remarks.passed(self.name, message,
                           function=self._func.name, line=loop.line,
                           **args)

    def _used_outside(self, loop: ir.ForRange, name: str) -> bool:
        """Is ``name`` read (as a live value) outside ``loop``'s body?

        A loop-local temporary (or the induction variable) that is read
        after the loop would hold the wrong value when the vector main
        loop covers all iterations and the scalar tail never runs.
        Reads inside a *different* loop that uses ``name`` as its own
        induction variable don't count — that loop redefines the value
        before any use.
        """
        # A function output is read by the caller after the loop even
        # when no statement in the body mentions it again.
        if any(p.name == name for p in self._func.outputs):
            return True
        return read_outside(self._func.body, loop, name)

    def _walk(self, body: list[ir.Stmt]) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            if isinstance(stmt, ir.ForRange):
                if self._is_innermost(stmt):
                    replacement = self._try_vectorize(stmt)
                    if replacement is not None:
                        body[index:index + 1] = replacement
                        index += len(replacement)
                        changed = True
                        continue
                else:
                    self._missed(stmt, "contains a nested loop; only "
                                       "innermost loops are vectorized")
            elif isinstance(stmt, ir.While):
                self._missed(stmt, "while loops are not vectorized "
                                   "(unknown trip count shape)")
            for sub in stmt.substatements():
                changed |= self._walk(sub)
            index += 1
        return changed

    def _is_innermost(self, loop: ir.ForRange) -> bool:
        return not any(isinstance(s, (ir.ForRange, ir.While))
                       for s in ir.walk_statements(loop.body))

    def _temp(self, prefix: str) -> str:
        # Leading underscore: MATLAB identifiers start with a letter, so
        # generated names can never shadow a source variable.
        self._counter += 1
        return f"_{prefix}_{self._counter}"

    # ------------------------------------------------------------------
    # Loop analysis
    # ------------------------------------------------------------------

    def _try_vectorize(self, loop: ir.ForRange) -> list[ir.Stmt] | None:
        if loop.step != 1:
            self._missed(loop, f"loop step is {loop.step}; only "
                               "unit-stride (step 1) loops are "
                               "vectorized", step=loop.step)
            return None
        unsupported = next(
            (s for s in ir.walk_statements(loop.body)
             if isinstance(s, (ir.If, ir.Break, ir.Continue, ir.Return,
                               ir.Call, ir.Emit, ir.CopyArray,
                               ir.IntrinsicStmt))), None)
        if unsupported is not None:
            self._missed(loop, "body contains a "
                               f"{type(unsupported).__name__} statement "
                               "the vectorizer does not support",
                         statement=type(unsupported).__name__)
            return None
        elem = self._loop_element_type(loop)
        if elem is None:
            self._missed(loop, "loop memory accesses mix element types "
                               "(or touch none); vectorization needs "
                               "exactly one element type")
            return None
        lanes = self._choose_width(loop, elem)
        if lanes is None:
            widths = self.processor.simd_lanes(elem.kind)
            if not widths:
                self._missed(loop, "target "
                                   f"{self.processor.name!r} has no "
                                   "SIMD instructions for "
                                   f"{elem.describe()} elements",
                             element=elem.describe())
            else:
                self._missed(loop, "trip count is smaller than the "
                                   "narrowest SIMD width "
                                   f"({min(widths)} lanes)",
                             narrowest=min(widths))
            return None

        plan = self._plan_body(loop, elem, lanes)
        if plan is None:
            # _plan_body emitted the specific missed remark.
            return None
        if self._used_outside(loop, loop.var):
            self._missed(loop, f"loop variable {loop.var!r} is live "
                               "after the loop; the vector main loop "
                               "would leave it with the wrong value",
                         variable=loop.var)
            return None
        for entry in plan:
            if entry[0] == "temp" and self._used_outside(loop, entry[1].name):
                self._missed(loop, f"temporary {entry[1].name!r} is "
                                   "live after the loop",
                             variable=entry[1].name)
                return None
        replacement = self._emit(loop, elem, lanes, plan)
        n_stores = sum(1 for e in plan if e[0] == "store")
        n_reduce = sum(1 for e in plan if e[0] == "reduce")
        self._passed(loop, f"vectorized with {lanes}-lane "
                           f"{elem.describe()} SIMD "
                           f"({n_stores} store(s), "
                           f"{n_reduce} reduction(s))",
                     lanes=lanes, stores=n_stores, reductions=n_reduce)
        return replacement

    def _choose_width(self, loop: ir.ForRange,
                      elem: ScalarType) -> int | None:
        """Pick the SIMD width for this loop from the target's options.

        With a known trip count, the widest datapath is not always the
        fastest: a 24-iteration loop runs better as three full 8-lane
        chunks than as one 16-lane chunk plus an 8-iteration scalar
        tail.  The proxy cost weights a scalar tail iteration as three
        vector chunks, which matches the modeled datapath.
        """
        widths = self.processor.simd_lanes(elem.kind)
        if not widths:
            return None
        if not (isinstance(loop.start, ir.Const) and
                isinstance(loop.stop, ir.Const)):
            return widths[0]
        trips = loop.stop.value - loop.start.value
        best_lanes = None
        best_cost = None
        for lanes in widths:
            if trips < lanes:
                continue
            cost = (trips // lanes) + 3 * (trips % lanes)
            if best_cost is None or cost < best_cost:
                best_cost, best_lanes = cost, lanes
        return best_lanes

    def _loop_element_type(self, loop: ir.ForRange) -> ScalarType | None:
        """The single element kind all memory traffic in the loop uses."""
        kinds: set[ScalarKind] = set()
        for stmt in ir.walk_statements(loop.body):
            for expr in ir.statement_exprs(stmt):
                for node in ir.walk_expr(expr):
                    if isinstance(node, ir.Load):
                        kinds.add(node.type.kind)
            if isinstance(stmt, ir.Store):
                value_t = stmt.value.type
                if isinstance(value_t, ScalarType):
                    kinds.add(value_t.kind)
        if len(kinds) != 1:
            return None
        return ScalarType(kinds.pop())

    def _plan_body(self, loop: ir.ForRange, elem: ScalarType,
                   lanes: int) -> list[tuple] | None:
        """Classify each body statement; None if anything doesn't fit.

        Plan entries:
            ("store", stmt, vec_value_expr)
            ("temp", stmt, vec_value_expr)
            ("reduce", stmt, acc_name, vmac_args | vec_term)
        """
        var = loop.var
        stored = stored_arrays(loop.body)
        # Arrays both loaded at loop-invariant indices and stored in the
        # same loop would make splatted loads stale; reject those.
        self._stored_in_loop = stored
        self._loop_writes = assigned_vars(loop.body)

        vector_temps: dict[str, VectorType] = {}
        plan: list[tuple] = []
        reduced: set[str] = set()
        for stmt in loop.body:
            if isinstance(stmt, ir.Store):
                stride = self._stride_of(stmt.index, var)
                if stride != 1:
                    self._missed(loop, "store into "
                                       f"{stmt.array!r} is not "
                                       "unit-stride in the loop variable "
                                       f"(stride {stride})",
                                 array=stmt.array, stride=stride)
                    return None
                value = self._vectorize_expr(stmt.value, var, elem, lanes,
                                             vector_temps)
                if value is None:
                    self._missed(loop, "value stored into "
                                       f"{stmt.array!r} has no vector "
                                       "form on this target",
                                 array=stmt.array)
                    return None
                plan.append(("store", stmt, value))
            elif isinstance(stmt, ir.AssignVar):
                reduction = self._match_reduction(stmt, var, elem, lanes,
                                                  vector_temps)
                if reduction is not None:
                    if stmt.name in reduced:
                        self._missed(loop, "reduction variable "
                                           f"{stmt.name!r} is updated "
                                           "more than once per iteration",
                                     variable=stmt.name)
                        return None
                    reduced.add(stmt.name)
                    plan.append(reduction)
                    continue
                value = self._vectorize_expr(stmt.value, var, elem, lanes,
                                             vector_temps)
                if value is None:
                    self._missed(loop, "assignment to "
                                       f"{stmt.name!r} has no vector "
                                       "form on this target",
                                 variable=stmt.name)
                    return None
                if not isinstance(value.type, VectorType):
                    self._missed(loop, "assignment to "
                                       f"{stmt.name!r} stays scalar; "
                                       "nothing to vectorize",
                                 variable=stmt.name)
                    return None
                vector_temps[stmt.name] = value.type
                plan.append(("temp", stmt, value))
            else:
                self._missed(loop, "body contains a "
                                   f"{type(stmt).__name__} statement the "
                                   "vectorizer does not support",
                             statement=type(stmt).__name__)
                return None
        # A reduction accumulator must not be read by other statements.
        for kind, stmt, *rest in plan:
            if kind == "reduce":
                continue
            names = stmt_uses(stmt)[0]
            if names & reduced:
                clash = sorted(names & reduced)[0]
                self._missed(loop, "reduction accumulator "
                                   f"{clash!r} is read by another "
                                   "statement in the loop body",
                             variable=clash)
                return None
        return plan

    # ------------------------------------------------------------------
    # Stride analysis
    # ------------------------------------------------------------------

    def _stride_of(self, index: ir.Expr, var: str) -> int | None:
        """d(index)/d(var) when index is affine in var; None otherwise."""
        if isinstance(index, ir.VarRef):
            return 1 if index.name == var else 0
        if isinstance(index, ir.Const):
            return 0
        if isinstance(index, ir.Cast):
            return self._stride_of(index.operand, var)
        if isinstance(index, ir.BinOp):
            left = self._stride_of(index.left, var)
            right = self._stride_of(index.right, var)
            if left is None or right is None:
                return None
            if index.op == "add":
                return left + right
            if index.op == "sub":
                return left - right
            if index.op == "mul":
                if left == 0 and isinstance(index.left, ir.Const):
                    return right * int(index.left.value)
                if right == 0 and isinstance(index.right, ir.Const):
                    return left * int(index.right.value)
                if left == 0 and right == 0:
                    return 0
                return None
            if left == 0 and right == 0:
                return 0
            return None
        if isinstance(index, ir.UnOp) and index.op == "neg":
            inner = self._stride_of(index.operand, var)
            return None if inner is None else -inner
        # Loads/calls: invariant only if they don't mention var at all.
        for node in ir.walk_expr(index):
            if isinstance(node, ir.VarRef) and node.name == var:
                return None
            if isinstance(node, (ir.Load, ir.IntrinsicCall)):
                return None
        return 0

    def _is_invariant(self, expr: ir.Expr, var: str) -> bool:
        for node in ir.walk_expr(expr):
            if isinstance(node, ir.VarRef) and (
                    node.name == var or node.name in self._loop_writes):
                return False
            if isinstance(node, ir.Load):
                if node.array in self._stored_in_loop:
                    return False
                if not self._is_invariant(node.index, var):
                    return False
            if isinstance(node, ir.IntrinsicCall):
                return False
        return True

    # ------------------------------------------------------------------
    # Expression vectorization
    # ------------------------------------------------------------------

    def _vectorize_expr(self, expr: ir.Expr, var: str, elem: ScalarType,
                        lanes: int,
                        vector_temps: dict[str, VectorType]) -> ir.Expr | None:
        vtype = VectorType(elem, lanes)

        if isinstance(expr, ir.Load):
            if expr.type != elem:
                return None
            stride = self._stride_of(expr.index, var)
            if stride == 1:
                instr = self.processor.find("vload", elem.kind, lanes)
                if instr is None:
                    return None
                return ir.VecLoad(vtype, array=expr.array,
                                  base=copy.deepcopy(expr.index),
                                  instruction=instr)
            if stride == -1:
                # Descending access x(n-k): a reversed vector load reads
                # lanes idx, idx-1, ..., idx-(L-1); its base (lowest
                # address) is idx - (L-1).
                instr = self.processor.find("vloadr", elem.kind, lanes)
                if instr is None:
                    return None
                base = ir.BinOp(I32, op="sub",
                                left=copy.deepcopy(expr.index),
                                right=ir.Const(I32, lanes - 1))
                return ir.VecLoad(vtype, array=expr.array, base=base,
                                  instruction=instr, reverse=True)
            if stride == 0 and self._is_invariant(expr, var):
                return self._splat(copy.deepcopy(expr), elem, lanes)
            return None

        if isinstance(expr, ir.Const):
            if expr.type != elem:
                return None
            return self._splat(copy.deepcopy(expr), elem, lanes)

        if isinstance(expr, ir.VarRef):
            if expr.name in vector_temps:
                return ir.VarRef(vector_temps[expr.name], expr.name)
            if expr.name == var or expr.name in self._loop_writes:
                return None
            if expr.type != elem:
                return None
            return self._splat(copy.deepcopy(expr), elem, lanes)

        if isinstance(expr, ir.BinOp):
            operation = SIMD_BINOPS.get(expr.op)
            if operation is None:
                return None
            instr = self.processor.find(operation, elem.kind, lanes)
            if instr is None:
                return None
            left = self._vectorize_expr(expr.left, var, elem, lanes,
                                        vector_temps)
            if left is None:
                return None
            right = self._vectorize_expr(expr.right, var, elem, lanes,
                                         vector_temps)
            if right is None:
                return None
            return ir.IntrinsicCall(vtype, instruction=instr,
                                    args=[left, right])

        if isinstance(expr, ir.UnOp) and expr.op == "neg":
            instr = self.processor.find("vneg", elem.kind, lanes)
            if instr is None:
                return None
            operand = self._vectorize_expr(expr.operand, var, elem, lanes,
                                           vector_temps)
            if operand is None:
                return None
            return ir.IntrinsicCall(vtype, instruction=instr, args=[operand])

        if isinstance(expr, ir.MathCall) and expr.name == "abs" and \
                not elem.is_complex:
            instr = self.processor.find("vabs", elem.kind, lanes)
            if instr is None:
                return None
            operand = self._vectorize_expr(expr.args[0], var, elem, lanes,
                                           vector_temps)
            if operand is None:
                return None
            return ir.IntrinsicCall(vtype, instruction=instr, args=[operand])

        if isinstance(expr, ir.MathCall) and expr.name == "conj" and \
                elem.is_complex:
            instr = self.processor.find("vconj", elem.kind, lanes)
            if instr is None:
                return None
            operand = self._vectorize_expr(expr.args[0], var, elem, lanes,
                                           vector_temps)
            if operand is None:
                return None
            return ir.IntrinsicCall(vtype, instruction=instr, args=[operand])

        # Loop-invariant scalar subexpression of the right type: splat it.
        if isinstance(expr.type, ScalarType) and expr.type == elem and \
                self._is_invariant(expr, var):
            return self._splat(copy.deepcopy(expr), elem, lanes)
        return None

    def _splat(self, operand: ir.Expr, elem: ScalarType,
               lanes: int) -> ir.Expr | None:
        instr = self.processor.find("vsplat", elem.kind, lanes)
        if instr is None:
            return None
        return ir.IntrinsicCall(VectorType(elem, lanes), instruction=instr,
                                args=[operand])

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def _match_reduction(self, stmt: ir.AssignVar, var: str,
                         elem: ScalarType, lanes: int,
                         vector_temps: dict) -> tuple | None:
        value = stmt.value
        if not isinstance(value, ir.BinOp) or value.op != "add":
            return None
        if isinstance(value.left, ir.VarRef) and value.left.name == stmt.name:
            term = value.right
        elif isinstance(value.right, ir.VarRef) and \
                value.right.name == stmt.name:
            term = value.left
        else:
            return None
        if not isinstance(stmt.value.type, ScalarType) or \
                stmt.value.type != elem:
            return None
        if self.processor.find("vredadd", elem.kind, lanes) is None:
            return None
        # Prefer a fused multiply-accumulate.
        if isinstance(term, ir.BinOp) and term.op == "mul":
            vmac = self.processor.find("vmac", elem.kind, lanes)
            if vmac is not None:
                left = self._vectorize_expr(term.left, var, elem, lanes,
                                            vector_temps)
                right = self._vectorize_expr(term.right, var, elem, lanes,
                                             vector_temps)
                if left is not None and right is not None:
                    return ("reduce", stmt, stmt.name, ("mac", left, right))
        vterm = self._vectorize_expr(term, var, elem, lanes, vector_temps)
        if vterm is None:
            return None
        return ("reduce", stmt, stmt.name, ("add", vterm))

    # ------------------------------------------------------------------
    # Code emission
    # ------------------------------------------------------------------

    def _emit(self, loop: ir.ForRange, elem: ScalarType, lanes: int,
              plan: list[tuple]) -> list[ir.Stmt]:
        func = self._func
        vtype = VectorType(elem, lanes)
        out: list[ir.Stmt] = []

        # Trip-count split: main = start + floor((stop-start)/VL)*VL.
        if isinstance(loop.start, ir.Const) and isinstance(loop.stop,
                                                           ir.Const):
            trips = loop.stop.value - loop.start.value
            main_stop: ir.Expr = ir.Const(
                I32, loop.start.value + (trips // lanes) * lanes)
        else:
            name = self._temp("vstop")
            func.declare(name, I32)
            span = ir.BinOp(I32, op="sub", left=copy.deepcopy(loop.stop),
                            right=copy.deepcopy(loop.start))
            chunks = ir.BinOp(I32, op="div", left=span,
                              right=ir.Const(I32, lanes))
            scaled = ir.BinOp(I32, op="mul", left=chunks,
                              right=ir.Const(I32, lanes))
            total = ir.BinOp(I32, op="add", left=copy.deepcopy(loop.start),
                             right=scaled)
            out.append(ir.AssignVar(name, total))
            main_stop = ir.VarRef(I32, name)

        # Reduction prologues.
        accumulators: dict[str, str] = {}
        for entry in plan:
            if entry[0] != "reduce":
                continue
            acc_name = entry[2]
            vacc = self._temp("vacc")
            func.declare(vacc, vtype)
            accumulators[acc_name] = vacc
            zero = ir.Const(elem, complex(0) if elem.is_complex else 0)
            splat = self._splat(zero, elem, lanes)
            out.append(ir.AssignVar(vacc, splat))

        # Main vector body.  Vector temporaries get fresh names so the
        # scalar tail loop keeps using the original scalar variables.
        tail_body = copy.deepcopy(loop.body)
        vector_body: list[ir.Stmt] = []
        renames: dict[str, str] = {}
        for entry in plan:
            if entry[0] == "temp":
                renames[entry[1].name] = self._temp("v" + entry[1].name)

        def rename_refs(expr: ir.Expr) -> None:
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.VarRef) and node.name in renames and \
                        isinstance(node.type, VectorType):
                    node.name = renames[node.name]

        vstore = self.processor.find("vstore", elem.kind, lanes)
        for entry in plan:
            kind, stmt = entry[0], entry[1]
            if kind == "store":
                rename_refs(entry[2])
                vector_body.append(ir.VecStore(
                    array=stmt.array, base=stmt.index, value=entry[2],
                    instruction=vstore))
            elif kind == "temp":
                rename_refs(entry[2])
                new_name = renames[stmt.name]
                vector_body.append(ir.AssignVar(new_name, entry[2]))
                func.declare(new_name, entry[2].type)
            else:
                acc_name, how = entry[2], entry[3]
                vacc = accumulators[acc_name]
                if how[0] == "mac":
                    rename_refs(how[1])
                    rename_refs(how[2])
                    instr = self.processor.find("vmac", elem.kind, lanes)
                    update: ir.Expr = ir.IntrinsicCall(
                        vtype, instruction=instr,
                        args=[ir.VarRef(vtype, vacc), how[1], how[2]])
                else:
                    rename_refs(how[1])
                    instr = self.processor.find("vadd", elem.kind, lanes)
                    update = ir.IntrinsicCall(
                        vtype, instruction=instr,
                        args=[ir.VarRef(vtype, vacc), how[1]])
                vector_body.append(ir.AssignVar(vacc, update))
            # Vector statements inherit the source line of the scalar
            # statement they replace, so hotspot profiles attribute
            # their cycles to the original MATLAB line.
            vector_body[-1].line = stmt.line

        out.append(ir.ForRange(var=loop.var, start=loop.start,
                               stop=main_stop, step=lanes, body=vector_body))

        # Reduction epilogues: fold the vector accumulator into the
        # scalar before the tail loop continues accumulating.
        for acc_name, vacc in accumulators.items():
            red = self.processor.find("vredadd", elem.kind, lanes)
            fold = ir.IntrinsicCall(elem, instruction=red,
                                    args=[ir.VarRef(vtype, vacc)])
            out.append(ir.AssignVar(acc_name, ir.BinOp(
                elem, op="add",
                left=ir.VarRef(elem, acc_name), right=fold)))

        # Scalar tail.
        out.append(ir.ForRange(var=loop.var, start=copy.deepcopy(main_stop),
                               stop=loop.stop, step=1, body=tail_body))
        # Compiler-generated glue (trip split, prologues, epilogues, the
        # strip-mined loop headers) maps to the loop's own source line.
        for top in out:
            for sub in ir.walk_statements([top]):
                if sub.line == 0:
                    sub.line = loop.line
        return out
