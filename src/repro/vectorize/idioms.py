"""Scalar idiom recognition against custom instructions.

Two idioms:

* multiply-accumulate — ``x + a*b`` on a real scalar maps to the DSP's
  single-cycle ``mac`` instruction, the classic ASIP customization even
  scalar-only targets carry;
* clip — ``min(max(x, lo), hi)`` (either nesting order) maps to the
  saturation/clip unit common on audio/telecom ASIPs.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.types import ScalarType
from repro.vectorize.select import LineAwareSelector


class ScalarMacSelector(LineAwareSelector):
    """Rewrites real-scalar ``x + a*b`` into ``mac`` intrinsic calls."""

    name = "scalar-mac"

    def _rewrite(self, expr: ir.Expr) -> ir.Expr:
        if not isinstance(expr, ir.BinOp) or expr.op != "add":
            return expr
        if not isinstance(expr.type, ScalarType) or expr.type.is_complex \
                or not expr.type.is_float:
            return expr
        instr = self.processor.find("mac", expr.type.kind, 1)
        if instr is None:
            return expr
        for addend, product in ((expr.left, expr.right),
                                (expr.right, expr.left)):
            if isinstance(product, ir.BinOp) and product.op == "mul" and \
                    product.type == expr.type:
                self._select(instr, "scalar multiply-accumulate x + a*b")
                return ir.IntrinsicCall(
                    expr.type, instruction=instr,
                    args=[addend, product.left, product.right])
        return expr


class ClipSelector(LineAwareSelector):
    """Rewrites ``min(max(x, lo), hi)`` into ``clip`` intrinsic calls.

    Only the min-outer nesting is matched: ``max(min(x, hi), lo)`` is
    *not* equivalent when lo > hi, so mapping it onto the same
    instruction would change semantics.  Operand order inside the inner
    ``max`` is irrelevant (max commutes), so either operand may play
    the role of x.
    """

    name = "clip-idiom"

    def _rewrite(self, expr: ir.Expr) -> ir.Expr:
        if not isinstance(expr, ir.BinOp) or expr.op != "min":
            return expr
        if not isinstance(expr.type, ScalarType) or expr.type.is_complex \
                or not expr.type.is_float:
            return expr
        instr = self.processor.find("clip", expr.type.kind, 1)
        if instr is None:
            return expr
        for inner, hi in ((expr.left, expr.right),
                          (expr.right, expr.left)):
            if isinstance(inner, ir.BinOp) and inner.op == "max" and \
                    inner.type == expr.type:
                x, lo = inner.left, inner.right
                self._select(instr, "clip idiom min(max(x, lo), hi)")
                return ir.IntrinsicCall(expr.type, instruction=instr,
                                        args=[x, lo, hi])
        return expr
