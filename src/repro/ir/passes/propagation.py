"""Forward constant propagation for scalar variables.

A structured-IR dataflow walk: constants assigned to scalar variables are
substituted into later uses until the variable is reassigned, with kills
at loop and branch boundaries (a loop body may run zero or many times, so
anything it assigns is unknown both inside and after it).
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.defuse import assigned_vars
from repro.ir.passes.rewrite import rewrite_stmt_exprs


class ConstantPropagation:
    """Propagate scalar constants through straight-line regions."""

    name = "constant-propagation"

    def __init__(self) -> None:
        self._changed = False

    def run(self, func: ir.IRFunction) -> bool:
        self._changed = False
        self._walk(func.body, {})
        return self._changed

    def _substitute(self, stmt: ir.Stmt, env: dict[str, ir.Const]) -> None:
        if not env:
            return

        def replace(expr: ir.Expr) -> ir.Expr:
            if isinstance(expr, ir.VarRef):
                const = env.get(expr.name)
                if const is not None and const.type == expr.type:
                    self._changed = True
                    return ir.Const(const.type, const.value)
            return expr

        rewrite_stmt_exprs(stmt, replace)

    def _walk(self, body: list[ir.Stmt], env: dict[str, ir.Const]) -> None:
        for stmt in body:
            if isinstance(stmt, ir.While):
                # The condition is re-evaluated every iteration, so any
                # variable the body can change must be killed *before*
                # substituting into it.
                killed = assigned_vars(stmt.body)
                for name in killed:
                    env.pop(name, None)
            self._substitute(stmt, env)
            if isinstance(stmt, ir.AssignVar):
                if isinstance(stmt.value, ir.Const):
                    env[stmt.name] = stmt.value
                else:
                    env.pop(stmt.name, None)
            elif isinstance(stmt, ir.ForRange):
                killed = assigned_vars(stmt.body) | {stmt.var}
                inner = {k: v for k, v in env.items() if k not in killed}
                self._walk(stmt.body, inner)
                for name in killed:
                    env.pop(name, None)
            elif isinstance(stmt, ir.While):
                killed = assigned_vars(stmt.body)
                inner = {k: v for k, v in env.items() if k not in killed}
                self._walk(stmt.body, inner)
                for name in killed:
                    env.pop(name, None)
            elif isinstance(stmt, ir.If):
                then_killed = assigned_vars(stmt.then_body)
                else_killed = assigned_vars(stmt.else_body)
                self._walk(stmt.then_body, dict(env))
                self._walk(stmt.else_body, dict(env))
                for name in then_killed | else_killed:
                    env.pop(name, None)
            elif isinstance(stmt, ir.Call):
                for name in stmt.results:
                    env.pop(name, None)
