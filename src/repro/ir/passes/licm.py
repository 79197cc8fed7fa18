"""Loop-invariant code motion (conservative).

Hoists scalar assignments out of ``ForRange`` loops when the right-hand
side is pure, reads no arrays, depends only on variables the loop does
not modify, and the loop provably runs at least once (constant bounds) —
so a variable read after the loop still holds the same value.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.defuse import assigned_vars, stmt_defs
from repro.observe import remarks as obs_remarks


class LoopInvariantCodeMotion:
    name = "licm"

    def run(self, func: ir.IRFunction) -> bool:
        self._func = func
        return self._walk(func.body)

    def _walk(self, body: list[ir.Stmt]) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            for sub in stmt.substatements():
                changed |= self._walk(sub)
            if isinstance(stmt, ir.ForRange):
                hoisted = self._hoist_from(stmt)
                if hoisted:
                    body[index:index] = hoisted
                    index += len(hoisted)
                    changed = True
            index += 1
        return changed

    def _hoist_from(self, loop: ir.ForRange) -> list[ir.Stmt]:
        if not self._runs_at_least_once(loop):
            return []
        loop_writes = assigned_vars(loop.body) | {loop.var}
        hoisted: list[ir.Stmt] = []
        # Only a prefix of the body may be hoisted: later statements may
        # depend on values the loop computes.
        while loop.body:
            stmt = loop.body[0]
            if not isinstance(stmt, ir.AssignVar):
                break
            # The full loop-write set includes the statement's own
            # target: an accumulator whose RHS reads itself
            # (acc = acc + inv) is NOT invariant even though every
            # other operand is.
            if not self._invariant(stmt.value, loop_writes):
                break
            if sum(stmt.name in stmt_defs(s)[0]
                   for s in ir.walk_statements(loop.body)) != 1:
                break
            hoisted.append(loop.body.pop(0))
            obs_remarks.passed(
                self.name,
                f"hoisted loop-invariant assignment to {stmt.name!r} "
                "out of the loop",
                function=self._func.name, line=stmt.line,
                variable=stmt.name)
        return hoisted

    def _runs_at_least_once(self, loop: ir.ForRange) -> bool:
        if not (isinstance(loop.start, ir.Const) and
                isinstance(loop.stop, ir.Const)):
            return False
        if loop.step > 0:
            return loop.start.value < loop.stop.value
        return loop.start.value > loop.stop.value

    def _invariant(self, expr: ir.Expr, loop_writes: set[str]) -> bool:
        for node in ir.walk_expr(expr):
            if isinstance(node, (ir.Load, ir.VecLoad, ir.IntrinsicCall)):
                return False
            if isinstance(node, ir.VarRef) and node.name in loop_writes:
                return False
        return True
