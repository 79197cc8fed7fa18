"""Which scalars and arrays each IR statement defines and reads.

This module is the one place that maps statement kinds to the names in
their slots.  Expression slots belong to :mod:`repro.ir.nodes`
(:func:`~repro.ir.nodes.statement_exprs`); passes, the vectorizer and
the simulators ask here instead of walking statements for names
themselves.

Every fact comes as a ``(scalars, arrays)`` pair of name sets.  A
``Call`` result may name either kind, so it lands in both.
"""

from __future__ import annotations

from repro.ir import nodes as ir


def _loaded(expr: ir.Expr) -> set[str]:
    return {node.array for node in ir.walk_expr(expr)
            if isinstance(node, (ir.Load, ir.VecLoad))}


def stmt_defs(stmt: ir.Stmt) -> tuple[set[str], set[str]]:
    """``(scalars, arrays)`` written by ``stmt`` itself.

    Nested statements are not included.  A store-like intrinsic names
    its target through a load-shaped argument, so every array its
    arguments mention counts as written.
    """
    if isinstance(stmt, ir.AssignVar):
        return {stmt.name}, set()
    if isinstance(stmt, ir.ForRange):
        return {stmt.var}, set()
    if isinstance(stmt, (ir.Store, ir.VecStore)):
        return set(), {stmt.array}
    if isinstance(stmt, ir.CopyArray):
        return set(), {stmt.dst}
    if isinstance(stmt, ir.Call):
        return set(stmt.results), set(stmt.results)
    if isinstance(stmt, ir.IntrinsicStmt):
        return set(), _loaded(stmt.call)
    return set(), set()


def stmt_uses(stmt: ir.Stmt) -> tuple[set[str], set[str]]:
    """``(scalars, arrays)`` read by ``stmt``'s own slots and expressions."""
    scalars: set[str] = set()
    arrays: set[str] = set()
    for expr in ir.statement_exprs(stmt):
        for node in ir.walk_expr(expr):
            if isinstance(node, ir.VarRef):
                scalars.add(node.name)
            elif isinstance(node, (ir.Load, ir.VecLoad)):
                arrays.add(node.array)
    if isinstance(stmt, ir.CopyArray):
        arrays.add(stmt.src)
    elif isinstance(stmt, ir.Call):
        arrays.update(a for a in stmt.args if isinstance(a, str))
    return scalars, arrays


def _collect(body: list[ir.Stmt], facts, side: int) -> set[str]:
    names: set[str] = set()
    for stmt in ir.walk_statements(body):
        names |= facts(stmt)[side]
    return names


def assigned_vars(body: list[ir.Stmt]) -> set[str]:
    """All scalar names assigned anywhere in ``body``."""
    return _collect(body, stmt_defs, 0)


def stored_arrays(body: list[ir.Stmt]) -> set[str]:
    """All array names written anywhere in ``body``."""
    return _collect(body, stmt_defs, 1)


def used_vars(body: list[ir.Stmt]) -> set[str]:
    """All scalar names read anywhere in ``body``."""
    return _collect(body, stmt_uses, 0)


def loaded_arrays(body: list[ir.Stmt]) -> set[str]:
    """All array names read anywhere in ``body``."""
    return _collect(body, stmt_uses, 1)


def read_outside(body: list[ir.Stmt], loop: ir.ForRange, name: str) -> bool:
    """Is scalar ``name`` read anywhere in ``body`` outside ``loop``?

    ``loop`` itself (bounds and body) is exempt.  So is the body of any
    other ``ForRange`` that reuses ``name`` as its own induction
    variable: that loop redefines the value before any body read.
    """
    for stmt in body:
        if stmt is loop:
            continue
        for expr in ir.statement_exprs(stmt):
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.VarRef) and node.name == name:
                    return True
        if isinstance(stmt, ir.ForRange) and stmt.var == name:
            continue
        for sub in stmt.substatements():
            if read_outside(sub, loop, name):
                return True
    return False
