"""Statement-local common-subexpression elimination.

Repeated pure, load-free scalar subexpressions *within a single
statement* are computed once into a temporary in front of it.  The
classic beneficiary is the read-modify-write element update
``c[i + j*m] = c[i + j*m] + ...`` produced by matrix-multiply lowering,
where the linear index would otherwise be computed twice per iteration —
a real cycle cost on the modeled scalar datapath.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.passes.rewrite import rewrite_stmt_exprs
from repro.ir.types import ScalarType


def _expr_key(expr: ir.Expr):
    """Structural hash key for pure scalar expressions (None = opaque)."""
    if isinstance(expr, ir.Const):
        return ("const", expr.type.describe(), repr(expr.value))
    if isinstance(expr, ir.VarRef):
        return ("var", expr.type.describe(), expr.name)
    if isinstance(expr, ir.BinOp):
        left = _expr_key(expr.left)
        right = _expr_key(expr.right)
        if left is None or right is None:
            return None
        return ("bin", expr.op, expr.type.describe(), left, right)
    if isinstance(expr, ir.UnOp):
        operand = _expr_key(expr.operand)
        if operand is None:
            return None
        return ("un", expr.op, expr.type.describe(), operand)
    if isinstance(expr, ir.Cast):
        operand = _expr_key(expr.operand)
        if operand is None:
            return None
        return ("cast", expr.type.describe(), operand)
    return None  # loads, calls, intrinsics: not CSE candidates


def _is_nontrivial(expr: ir.Expr) -> bool:
    return isinstance(expr, (ir.BinOp, ir.UnOp, ir.Cast)) and \
        isinstance(expr.type, ScalarType)


class CommonSubexpressionElimination:
    name = "cse"

    def __init__(self) -> None:
        self._counter = 0

    def run(self, func: ir.IRFunction) -> bool:
        return self._walk(func.body, func)

    def _walk(self, body: list[ir.Stmt], func: ir.IRFunction) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            for sub in stmt.substatements():
                changed |= self._walk(sub, func)
            pre = self._cse_statement(stmt, func)
            if pre:
                body[index:index] = pre
                index += len(pre)
                changed = True
            index += 1
        return changed

    def _cse_statement(self, stmt: ir.Stmt,
                       func: ir.IRFunction) -> list[ir.Stmt]:
        if isinstance(stmt, (ir.ForRange, ir.While, ir.If)):
            # Their expressions are bounds/conditions; CSE only inside
            # bodies (handled by recursion).
            return []
        counts: dict[object, int] = {}
        samples: dict[object, ir.Expr] = {}

        def count(expr: ir.Expr) -> None:
            for node in ir.walk_expr(expr):
                if not _is_nontrivial(node):
                    continue
                key = _expr_key(node)
                if key is None:
                    continue
                counts[key] = counts.get(key, 0) + 1
                samples.setdefault(key, node)

        for expr in ir.statement_exprs(stmt):
            count(expr)

        # Pick maximal repeated expressions: drop keys that only repeat
        # as part of a larger repeated expression.
        repeated = {key for key, n in counts.items() if n >= 2}
        if not repeated:
            return []
        maximal = set(repeated)
        for key in repeated:
            sample = samples[key]
            for child in sample.children():
                for node in ir.walk_expr(child):
                    child_key = _expr_key(node)
                    if child_key in maximal and \
                            counts[child_key] == counts[key]:
                        maximal.discard(child_key)

        pre: list[ir.Stmt] = []
        replacements: dict[object, ir.VarRef] = {}
        # Number temporaries in first-occurrence order, not set order:
        # set iteration follows the hash seed, and the emitted C must not.
        for key in [k for k in samples if k in maximal]:
            sample = samples[key]
            self._counter += 1
            name = f"cse{self._counter}"
            func.declare(name, sample.type)
            assign = ir.AssignVar(name, sample)
            assign.line = stmt.line  # attribute cycles to the user line
            pre.append(assign)
            replacements[key] = ir.VarRef(sample.type, name)

        def replace(expr: ir.Expr) -> ir.Expr:
            key = _expr_key(expr)
            if key in replacements:
                ref = replacements[key]
                return ir.VarRef(ref.type, ref.name)
            return expr

        rewrite_stmt_exprs(stmt, replace)
        # The pre-statements themselves must not self-replace their RHS
        # root (it's the definition), but nested occurrences of *other*
        # CSE'd keys should be; simplest correct behavior: leave them.
        return pre


