"""Dead-code elimination.

Removes assignments to scalar variables that are never read (and are not
function outputs), loops and copies producing arrays that are never read
(and are not outputs), and unused local declarations.  Iterates naturally
with the pass manager: removing one dead assignment can make another's
operands dead in the next round.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.defuse import (
    assigned_vars,
    loaded_arrays,
    read_outside,
    stored_arrays,
    used_vars,
)


class DeadCodeElimination:
    name = "dce"

    def run(self, func: ir.IRFunction) -> bool:
        changed = False
        keep = {p.name for p in func.outputs}
        keep.update(p.name for p in func.params)

        live_scalars = used_vars(func.body) | keep
        live_arrays = loaded_arrays(func.body) | keep

        self._func_body = func.body
        changed |= self._sweep(func.body, live_scalars, live_arrays)

        # Drop locals that no statement mentions any more.  The sweep
        # only deletes statements, so the pre-sweep use sets already
        # cover every read that is left; only definitions need a rescan.
        still_defined = assigned_vars(func.body) | stored_arrays(func.body)
        for name in list(func.locals):
            if name in keep:
                continue
            if name not in still_defined and name not in live_scalars and \
                    name not in live_arrays:
                del func.locals[name]
                changed = True
        return changed

    def _sweep(self, body: list[ir.Stmt], live_scalars: set[str],
               live_arrays: set[str]) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            remove = False
            if isinstance(stmt, ir.AssignVar):
                if stmt.name not in live_scalars and \
                        self._is_pure(stmt.value):
                    remove = True
            elif isinstance(stmt, ir.CopyArray):
                if stmt.dst not in live_arrays:
                    remove = True
            elif isinstance(stmt, ir.ForRange):
                changed |= self._sweep(stmt.body, live_scalars, live_arrays)
                if self._loop_only_writes_dead(stmt, live_arrays,
                                               live_scalars):
                    remove = True
            elif isinstance(stmt, (ir.While, ir.If)):
                for sub in stmt.substatements():
                    changed |= self._sweep(sub, live_scalars, live_arrays)
                if isinstance(stmt, ir.If) and not stmt.then_body and \
                        not stmt.else_body:
                    remove = True
            if remove:
                del body[index]
                changed = True
            else:
                index += 1
        return changed

    def _is_pure(self, expr: ir.Expr) -> bool:
        return not any(isinstance(node, ir.IntrinsicCall)
                       for node in ir.walk_expr(expr))

    def _loop_only_writes_dead(self, loop: ir.ForRange,
                               live_arrays: set[str],
                               live_scalars: set[str]) -> bool:
        """A loop whose only effects are writes to dead targets is dead.

        The induction variable itself is an effect: MATLAB leaves it
        holding its final value, so a loop variable read *outside* the
        loop keeps the loop.
        """
        if read_outside(self._func_body, loop, loop.var):
            return False
        if not loop.body:
            return True
        for stmt in ir.walk_statements(loop.body):
            if isinstance(stmt, (ir.Emit, ir.Call, ir.IntrinsicStmt,
                                 ir.Return, ir.Break, ir.Continue,
                                 ir.While)):
                return False
            if isinstance(stmt, (ir.Store, ir.VecStore)) and \
                    stmt.array in live_arrays:
                return False
            if isinstance(stmt, ir.CopyArray) and stmt.dst in live_arrays:
                return False
            if isinstance(stmt, ir.AssignVar) and stmt.name in live_scalars:
                return False
        return True
