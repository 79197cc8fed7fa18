"""Shared instruction-selection machinery: opcode maps derived from the
operation table, the statement-walking selector driver, and structural
expression equality for idiom matchers."""

from __future__ import annotations

from repro.asip.model import Instruction, ProcessorDescription
from repro.asip.operations import OPERATIONS, Shape
from repro.ir import nodes as ir
from repro.ir.passes.rewrite import rewrite_stmt_exprs
from repro.observe import remarks as obs_remarks

#: BinOp opcodes with a direct SIMD-instruction counterpart.
SIMD_BINOPS = {operation.binop: name for name, operation in OPERATIONS.items()
               if operation.binop and operation.shape is Shape.LANEWISE}

#: Scalar complex BinOp opcodes with a complex-unit counterpart.
COMPLEX_BINOPS = {operation.binop: name
                  for name, operation in OPERATIONS.items()
                  if operation.binop and operation.shape is Shape.SCALAR}


class LineAwareSelector:
    """Statement-at-a-time selection driver that remembers the source
    line of the statement being rewritten, so selection remarks point
    at the user's code rather than at the function.  Subclasses set
    ``name`` and implement ``_rewrite(expr) -> expr``."""

    name = "selector"

    def __init__(self, processor: ProcessorDescription):
        self.processor = processor

    def run(self, func: ir.IRFunction) -> bool:
        self._changed = False
        self._func = func
        self._line = 0
        self._walk(func.body)
        return self._changed

    def _walk(self, body: list[ir.Stmt]) -> None:
        for stmt in body:
            self._line = stmt.line
            rewrite_stmt_exprs(stmt, self._rewrite)
            for sub in stmt.substatements():
                self._walk(sub)

    def _select(self, instr: Instruction, what: str) -> None:
        self._changed = True
        obs_remarks.passed(self.name,
                           f"selected {instr.name!r} for {what}",
                           function=self._func.name, line=self._line,
                           instruction=instr.name)


def exprs_equal(a: ir.Expr, b: ir.Expr) -> bool:
    """Structural equality of pure expressions (used by idiom matchers)."""
    if type(a) is not type(b) or a.type != b.type:
        return False
    if isinstance(a, ir.Const):
        return a.value == b.value
    if isinstance(a, ir.VarRef):
        return a.name == b.name
    if isinstance(a, ir.BinOp):
        return a.op == b.op and exprs_equal(a.left, b.left) and \
            exprs_equal(a.right, b.right)
    if isinstance(a, ir.UnOp):
        return a.op == b.op and exprs_equal(a.operand, b.operand)
    if isinstance(a, ir.MathCall):
        return a.name == b.name and len(a.args) == len(b.args) and \
            all(exprs_equal(x, y) for x, y in zip(a.args, b.args))
    if isinstance(a, ir.Cast):
        return exprs_equal(a.operand, b.operand)
    if isinstance(a, ir.Load):
        return a.array == b.array and exprs_equal(a.index, b.index)
    if isinstance(a, ir.MakeComplex):
        return exprs_equal(a.real, b.real) and exprs_equal(a.imag, b.imag)
    return False

