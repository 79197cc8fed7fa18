"""Generic expression/statement rewriting helpers shared by passes."""

from __future__ import annotations

from typing import Callable

from repro.ir import nodes as ir

ExprRewriter = Callable[[ir.Expr], ir.Expr]


def rewrite_expr(expr: ir.Expr, fn: ExprRewriter) -> ir.Expr:
    """Bottom-up rewrite: children first, then ``fn`` on the node."""
    if isinstance(expr, ir.BinOp):
        expr.left = rewrite_expr(expr.left, fn)
        expr.right = rewrite_expr(expr.right, fn)
    elif isinstance(expr, ir.UnOp):
        expr.operand = rewrite_expr(expr.operand, fn)
    elif isinstance(expr, ir.MathCall):
        expr.args = [rewrite_expr(a, fn) for a in expr.args]
    elif isinstance(expr, ir.Cast):
        expr.operand = rewrite_expr(expr.operand, fn)
    elif isinstance(expr, ir.MakeComplex):
        expr.real = rewrite_expr(expr.real, fn)
        expr.imag = rewrite_expr(expr.imag, fn)
    elif isinstance(expr, ir.Load):
        expr.index = rewrite_expr(expr.index, fn)
    elif isinstance(expr, ir.VecLoad):
        expr.base = rewrite_expr(expr.base, fn)
    elif isinstance(expr, ir.VecSplat):
        expr.operand = rewrite_expr(expr.operand, fn)
    elif isinstance(expr, ir.IntrinsicCall):
        expr.args = [rewrite_expr(a, fn) for a in expr.args]
    return fn(expr)


def rewrite_stmt_exprs(stmt: ir.Stmt, fn: ExprRewriter) -> None:
    """Apply ``fn`` bottom-up to every expression directly owned by
    ``stmt`` (not to nested statements)."""
    for slot in ir.STMT_EXPR_SLOTS.get(type(stmt), ()):
        value = getattr(stmt, slot)
        if isinstance(value, list):
            setattr(stmt, slot, [rewrite_expr(v, fn)
                                 if isinstance(v, ir.Expr) else v
                                 for v in value])
        else:
            setattr(stmt, slot, rewrite_expr(value, fn))


def rewrite_tree(body: list[ir.Stmt], fn: ExprRewriter) -> None:
    """Apply ``fn`` to every expression in a whole statement tree."""
    for stmt in body:
        rewrite_stmt_exprs(stmt, fn)
        for sub in stmt.substatements():
            rewrite_tree(sub, fn)
