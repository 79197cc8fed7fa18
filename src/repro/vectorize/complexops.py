"""Complex-arithmetic custom-instruction selection.

Maps scalar complex operations onto the target's complex-arithmetic unit
when the processor description provides one: ``a*b`` becomes ``cmul``,
``x + a*b`` becomes the fused ``cmac``, ``conj(z)`` becomes ``cconj``,
and the power-spectrum idiom ``real(z)*real(z) + imag(z)*imag(z)``
becomes ``cmag2``.  On a plain scalar datapath a complex multiply costs
four multiplies and two adds; these instructions are where the paper's
speedup on complex DSP kernels comes from.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.types import ScalarType
from repro.vectorize.select import (COMPLEX_BINOPS, LineAwareSelector,
                                    exprs_equal)


class ComplexInstructionSelector(LineAwareSelector):
    """Rewrites scalar complex arithmetic to custom-instruction calls."""

    name = "complex-select"

    def _rewrite(self, expr: ir.Expr) -> ir.Expr:
        if not isinstance(expr.type, ScalarType) or not expr.type.is_complex:
            return self._rewrite_real(expr)
        kind = expr.type.kind

        if isinstance(expr, ir.BinOp):
            # Fused multiply-accumulate: x + a*b (either side).
            if expr.op == "add":
                cmac = self.processor.find("cmac", kind, 1)
                if cmac is not None:
                    for addend, product in ((expr.left, expr.right),
                                            (expr.right, expr.left)):
                        if self._is_cmul(product):
                            a, b = self._cmul_operands(product)
                            self._select(cmac,
                                         "fused complex multiply-"
                                         "accumulate x + a*b")
                            return ir.IntrinsicCall(
                                expr.type, instruction=cmac,
                                args=[addend, a, b])
            operation = COMPLEX_BINOPS.get(expr.op)
            if operation is not None:
                instr = self.processor.find(operation, kind, 1)
                if instr is not None:
                    self._select(instr, f"complex {expr.op!r}")
                    return ir.IntrinsicCall(expr.type, instruction=instr,
                                            args=[expr.left, expr.right])
            return expr

        if isinstance(expr, ir.MathCall) and expr.name == "conj":
            instr = self.processor.find("cconj", kind, 1)
            if instr is not None:
                self._select(instr, "complex conjugate")
                return ir.IntrinsicCall(expr.type, instruction=instr,
                                        args=list(expr.args))
        return expr

    def _is_cmul(self, expr: ir.Expr) -> bool:
        if isinstance(expr, ir.IntrinsicCall) and \
                expr.instruction.operation == "cmul":
            return True
        return isinstance(expr, ir.BinOp) and expr.op == "mul" and \
            isinstance(expr.type, ScalarType) and expr.type.is_complex

    def _cmul_operands(self, expr: ir.Expr) -> tuple[ir.Expr, ir.Expr]:
        if isinstance(expr, ir.IntrinsicCall):
            return expr.args[0], expr.args[1]
        return expr.left, expr.right

    def _rewrite_real(self, expr: ir.Expr) -> ir.Expr:
        """Real-typed patterns over complex operands (|z|^2)."""
        if not isinstance(expr, ir.BinOp) or expr.op != "add":
            return expr
        if not isinstance(expr.type, ScalarType) or expr.type.is_complex:
            return expr
        z = self._mag2_component(expr.left, "real")
        z2 = self._mag2_component(expr.right, "imag")
        if z is None or z2 is None or not exprs_equal(z, z2):
            # Also accept the commuted form imag^2 + real^2.
            z = self._mag2_component(expr.left, "imag")
            z2 = self._mag2_component(expr.right, "real")
            if z is None or z2 is None or not exprs_equal(z, z2):
                return expr
        kind = z.type.kind
        instr = self.processor.find("cmag2", kind, 1)
        if instr is None:
            return expr
        self._select(instr, "squared magnitude real(z)^2 + imag(z)^2")
        return ir.IntrinsicCall(expr.type, instruction=instr, args=[z])

    def _mag2_component(self, expr: ir.Expr, part: str) -> ir.Expr | None:
        """Match ``part(z) * part(z)``; returns z."""
        if not isinstance(expr, ir.BinOp) or expr.op != "mul":
            return None
        left, right = expr.left, expr.right
        if not (isinstance(left, ir.MathCall) and left.name == part and
                isinstance(right, ir.MathCall) and right.name == part):
            return None
        if not exprs_equal(left.args[0], right.args[0]):
            return None
        z = left.args[0]
        if not (isinstance(z.type, ScalarType) and z.type.is_complex):
            return None
        return z
