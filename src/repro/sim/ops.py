"""Operator values and node prices shared by both cycle simulators.

This module is the one place under :mod:`repro.sim` that says what an
IR operator computes and what one execution of an IR node costs:

* :func:`template` maps an operator node (``BinOp``, ``UnOp``,
  ``MathCall``, ``Cast``, ``MakeComplex``, ``VecSplat``,
  ``IntrinsicCall``) to a Python expression template over its operands
  ``{0}``, ``{1}``, ... (``node.children()`` in order); the template's
  free names resolve in :data:`NAMESPACE`.  Intrinsic templates come
  from the operation table, :mod:`repro.asip.operations`.  The
  compiled backend splices templates into the source it generates; the
  tree-walker turns each template into a function once
  (:func:`evaluator`).
* :func:`price` maps any IR node to the cycles one execution charges,
  operands excluded; :func:`copy_cycles` prices a ``CopyArray``.

The executors own only execution strategy: control flow, frames, when
charges are applied, and line attribution.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.asip.operations import OPERATIONS, Shape
from repro.errors import SimulationError
from repro.ir import nodes as ir
from repro.ir.types import ScalarKind, ScalarType, VectorType
from repro.numeric import c_pow
from repro.sim.cost import CostModel

_NUMPY_DTYPES = {
    ScalarKind.BOOL: np.bool_,
    ScalarKind.I8: np.int8,
    ScalarKind.I16: np.int16,
    ScalarKind.I32: np.int32,
    ScalarKind.F32: np.float32,
    ScalarKind.F64: np.float64,
    ScalarKind.C64: np.complex64,
    ScalarKind.C128: np.complex128,
}


def numpy_dtype(kind: ScalarKind):
    return _NUMPY_DTYPES[kind]


def from_numpy(value):
    """Unbox a numpy scalar into the plain Python value the IR uses."""
    if isinstance(value, (np.complexfloating,)):
        return complex(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


# ----------------------------------------------------------------------
# Runtime helpers the templates call.
# ----------------------------------------------------------------------


def _idiv(left, right):
    return int(left / right) if right != 0 else 0


def _fdiv(left, right):
    try:
        return left / right
    except ZeroDivisionError:
        return float("inf") if left > 0 else (
            float("-inf") if left < 0 else float("nan"))


def _rem_op(left, right):
    return math.fmod(left, right) if right != 0 else float("nan")


def _cmag2(value):
    return value.real * value.real + value.imag * value.imag


def _cast_complex(value):
    return complex(value)


def _cast_bool(value):
    if isinstance(value, complex):
        value = value.real
    return bool(value)


def _cast_int(value):
    if isinstance(value, complex):
        value = value.real
    return int(value)  # C cast truncates toward zero, like int()


def _cast_f32(value):
    if isinstance(value, complex):
        value = value.real
    return float(np.float32(value))


def _cast_f64(value):
    if isinstance(value, complex):
        value = value.real
    return float(value)


_CAST_HELPERS = {
    ScalarKind.BOOL: ("_cast_bool", _cast_bool),
    ScalarKind.I8: ("_cast_int", _cast_int),
    ScalarKind.I16: ("_cast_int", _cast_int),
    ScalarKind.I32: ("_cast_int", _cast_int),
    ScalarKind.F32: ("_cast_f32", _cast_f32),
    ScalarKind.F64: ("_cast_f64", _cast_f64),
    ScalarKind.C64: ("_cast_complex", _cast_complex),
    ScalarKind.C128: ("_cast_complex", _cast_complex),
}


def _m_abs(a):
    return abs(a)


def _m_sqrt(a):
    return cmath.sqrt(a) if isinstance(a, complex) else math.sqrt(abs(a)) \
        if a >= 0 else float("nan")


def _m_exp(a):
    return cmath.exp(a) if isinstance(a, complex) else math.exp(a)


def _m_log(a):
    return cmath.log(a) if isinstance(a, complex) else (
        math.log(a) if a > 0 else float("-inf") if a == 0
        else float("nan"))


def _m_sin(a):
    return cmath.sin(a) if isinstance(a, complex) else math.sin(a)


def _m_cos(a):
    return cmath.cos(a) if isinstance(a, complex) else math.cos(a)


def _m_tan(a):
    return cmath.tan(a) if isinstance(a, complex) else math.tan(a)


def _m_atan(a):
    return math.atan(a)


def _m_atan2(a, b):
    return math.atan2(a, b)


def _m_hypot(a, b):
    return math.hypot(a, b)


def _m_floor(a):
    return float(math.floor(a))


def _m_ceil(a):
    return float(math.ceil(a))


def _m_round(a):
    # MATLAB rounds halves away from zero.
    return float(math.floor(a + 0.5)) if a >= 0 else \
        float(math.ceil(a - 0.5))


def _m_fix(a):
    return float(math.trunc(a))


def _m_sign(a):
    return float((a > 0) - (a < 0))


def _m_mod(a, b):
    if b == 0:
        return a
    return a - math.floor(a / b) * b


def _m_rem(a, b):
    return math.fmod(a, b) if b != 0 else float("nan")


def _m_pow(a, b):
    return c_pow(a, b)


def _m_conj(a):
    return a.conjugate() if isinstance(a, complex) else a


def _m_real(a):
    return a.real if isinstance(a, complex) else a


def _m_imag(a):
    return a.imag if isinstance(a, complex) else 0.0


def _m_arg(a):
    return cmath.phase(a) if isinstance(a, complex) else math.atan2(0.0, a)


_MATH_HELPERS = {
    "abs": _m_abs, "sqrt": _m_sqrt, "exp": _m_exp, "log": _m_log,
    "sin": _m_sin, "cos": _m_cos, "tan": _m_tan, "atan": _m_atan,
    "atan2": _m_atan2, "hypot": _m_hypot, "floor": _m_floor,
    "ceil": _m_ceil, "round": _m_round, "fix": _m_fix, "sign": _m_sign,
    "mod": _m_mod, "rem": _m_rem, "pow": _m_pow, "conj": _m_conj,
    "real": _m_real, "imag": _m_imag, "arg": _m_arg,
}

#: numpy dtypes are bound as ``_dt<i>``, i = position in ScalarKind.
_DTYPE_NAMES = {kind: f"_dt{index}"
                for index, kind in enumerate(_NUMPY_DTYPES)}

#: Names the templates' free variables resolve to.
NAMESPACE: dict[str, object] = {
    "_np": np,
    "_fromnp": from_numpy,
    "_idiv": _idiv,
    "_fdiv": _fdiv,
    "_remop": _rem_op,
    "_powop": c_pow,
    "_cmag2": _cmag2,
    "_npmin": np.minimum,
    "_npmax": np.maximum,
    "_npabs": np.abs,
    "_npconj": np.conj,
    "_npsum": np.sum,
    "_npamin": np.min,
    "_npamax": np.max,
}
NAMESPACE.update({f"_m_{name}": fn for name, fn in _MATH_HELPERS.items()})
NAMESPACE.update({helper: fn for helper, fn in _CAST_HELPERS.values()})
NAMESPACE.update({_DTYPE_NAMES[kind]: dtype
                  for kind, dtype in _NUMPY_DTYPES.items()})

_BINOP_TEMPLATES = {
    "add": "({0} + {1})", "sub": "({0} - {1})", "mul": "({0} * {1})",
    "pow": "_powop({0}, {1})", "rem": "_remop({0}, {1})",
    "eq": "({0} == {1})", "ne": "({0} != {1})", "lt": "({0} < {1})",
    "le": "({0} <= {1})", "gt": "({0} > {1})", "ge": "({0} >= {1})",
    "land": "(bool({0}) and bool({1}))", "lor": "(bool({0}) or bool({1}))",
}


def _splat(vector_type: VectorType) -> str:
    return (f"_np.full({vector_type.lanes}, {{0}}, "
            f"{_DTYPE_NAMES[vector_type.elem.kind]})")


def template(expr: ir.Expr) -> str:
    """Python expression computing ``expr`` from its operands, which
    are ``expr.children()`` in order."""
    if isinstance(expr, ir.BinOp):
        op = expr.op
        is_vector = isinstance(expr.type, VectorType)
        if op == "div":
            if isinstance(expr.type, ScalarType) and \
                    expr.type.kind.is_integer:
                return "_idiv({0}, {1})"
            return "_fdiv({0}, {1})"
        if op in ("min", "max"):
            return f"_np{op}({{0}}, {{1}})" if is_vector \
                else f"{op}({{0}}, {{1}})"
        if op in _BINOP_TEMPLATES:
            return _BINOP_TEMPLATES[op]
        raise SimulationError(f"unknown binary op {op!r}")
    if isinstance(expr, ir.UnOp):
        return "(-{0})" if expr.op == "neg" else "(not bool({0}))"
    if isinstance(expr, ir.MathCall):
        if expr.name not in _MATH_HELPERS:
            raise SimulationError(f"unknown math function {expr.name!r}")
        args = ", ".join(f"{{{i}}}" for i in range(len(expr.args)))
        return f"_m_{expr.name}({args})"
    if isinstance(expr, ir.Cast):
        return _CAST_HELPERS[expr.type.kind][0] + "({0})"
    if isinstance(expr, ir.MakeComplex):
        return "complex({0}, {1})"
    if isinstance(expr, ir.VecSplat):
        return _splat(expr.type)
    if isinstance(expr, ir.IntrinsicCall):
        operation = OPERATIONS[expr.instruction.operation]
        if operation.shape is Shape.SPLAT:
            return _splat(expr.type)
        if operation.sim is None:
            raise SimulationError(
                f"intrinsic operation {expr.instruction.operation!r} "
                "is not an expression")
        return operation.sim
    raise SimulationError(f"cannot evaluate {type(expr).__name__}")


_EVALUATORS: dict[str, object] = {}


def evaluator(expr: ir.Expr):
    """``template(expr)`` as a function of the operand values; one
    function is built per distinct template text."""
    text = template(expr)
    fn = _EVALUATORS.get(text)
    if fn is None:
        names = [f"_{i}" for i in range(len(expr.children()))]
        fn = eval(f"lambda {', '.join(names)}: {text.format(*names)}",
                  NAMESPACE)
        _EVALUATORS[text] = fn
    return fn


# ----------------------------------------------------------------------
# Prices
# ----------------------------------------------------------------------


def _scalar_type(expr: ir.Expr) -> ScalarType:
    if isinstance(expr.type, ScalarType):
        return expr.type
    return ScalarType(ScalarKind.F64)


def price(node, cost: CostModel):
    """``(category, cycles, instruction name | None)`` that one
    execution of ``node`` charges, operands excluded; None when the
    node charges nothing."""
    if isinstance(node, ir.BinOp):
        if isinstance(node.type, VectorType):
            return None
        return "alu", cost.binop(node.op, _scalar_type(node.left)), None
    if isinstance(node, ir.UnOp):
        return "alu", cost.unop(node.op, _scalar_type(node)), None
    if isinstance(node, ir.MathCall):
        operand_t = _scalar_type(node.args[0]) if node.args \
            else ScalarType(ScalarKind.F64)
        return "math", cost.math(node.name, operand_t), None
    if isinstance(node, ir.Cast):
        return "alu", cost.cast(), None
    if isinstance(node, ir.MakeComplex):
        return "move", 2 * cost.move(), None
    if isinstance(node, (ir.VecSplat, ir.AssignVar)):
        return "move", cost.move(), None
    if isinstance(node, ir.Load):
        return "mem", cost.load(_scalar_type(node)), None
    if isinstance(node, ir.Store):
        return "mem", cost.store(_scalar_type(node.value)), None
    if isinstance(node, (ir.IntrinsicCall, ir.VecLoad, ir.VecStore)):
        instr = node.instruction
        if instr is None:
            return None
        return "intrinsic", cost.intrinsic(instr.cycles), instr.name
    if isinstance(node, (ir.ForRange, ir.While, ir.If)):
        return "branch", cost.branch(), None
    if isinstance(node, ir.Call):
        return "call", cost.call(), None
    return None


def copy_cycles(cost: CostModel, count: int, is_complex: bool) -> int:
    """Cycles of a ``CopyArray`` moving ``count`` elements."""
    elem_kind = ScalarKind.C128 if is_complex else ScalarKind.F64
    return count * cost.copy_element(ScalarType(elem_kind))
