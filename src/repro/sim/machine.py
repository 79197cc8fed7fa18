"""IR executor with cycle accounting — the ASIP stand-in.

Executes an :class:`~repro.ir.nodes.IRModule` directly (arrays as flat
numpy buffers in MATLAB column-major element order, scalars as Python
numbers) while charging every operation's cycle cost against a
:class:`~repro.sim.cost.CostModel`.  Running the baseline-lowered and the
optimized/vectorized module of the same MATLAB source on the same
processor description reproduces the paper's measurement setup: same
datapath, different compilers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asip.model import ProcessorDescription
from repro.errors import SimulationError
from repro.ir import nodes as ir
from repro.ir.types import ArrayType, ScalarKind, ScalarType
from repro.sim import ops
from repro.sim.cost import CostModel, CycleReport
from repro.sim.ops import from_numpy, numpy_dtype


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _ReturnSignal(Exception):
    pass


def as_buffer(value, array_type: ArrayType, name: str) -> np.ndarray:
    """Flatten ``value`` to the column-major buffer an array arg uses."""
    dtype = numpy_dtype(array_type.elem.kind)
    array = np.asarray(value)
    if array.size != array_type.numel:
        raise SimulationError(
            f"argument {name!r}: expected {array_type.numel} elements, "
            f"got {array.size}")
    return np.ascontiguousarray(
        array.reshape(-1, order="F").astype(dtype, copy=True))


def coerce_scalar(value, scalar_type: ScalarType):
    """Coerce a scalar argument to the Python value the IR type implies."""
    if isinstance(value, np.ndarray):
        if value.size != 1:
            raise SimulationError(
                f"expected a scalar argument, got an array of "
                f"{value.size} elements")
        value = value.reshape(-1)[0]
    kind = scalar_type.kind
    if kind.is_complex:
        return complex(value)
    if kind is ScalarKind.BOOL:
        return bool(value)
    if kind.is_integer:
        return int(value)
    return float(value)


def format_emit(format_string: str, values: list[object]) -> str:
    """printf-style formatting with the permissive fallback Emit uses."""
    try:
        return format_string % tuple(values)
    except (TypeError, ValueError):
        return format_string + " " + " ".join(str(v) for v in values)


def bind_args(func: ir.IRFunction, args: list[object]) \
        -> tuple[dict[str, object], dict[str, np.ndarray]]:
    """Fresh (scalars, arrays) frame of ``func`` called on ``args``:
    parameters bound, local and output arrays zeroed."""
    if len(args) != len(func.params):
        raise SimulationError(
            f"{func.name}: expected {len(func.params)} arguments, "
            f"got {len(args)}")
    scalars: dict[str, object] = {}
    arrays: dict[str, np.ndarray] = {}
    for param, value in zip(func.params, args):
        if isinstance(param.type, ArrayType):
            arrays[param.name] = as_buffer(value, param.type, param.name)
        else:
            scalars[param.name] = coerce_scalar(value, param.type)
    for name, ir_type in func.locals.items():
        if isinstance(ir_type, ArrayType):
            arrays[name] = np.zeros(
                ir_type.numel, dtype=numpy_dtype(ir_type.elem.kind))
    for out in func.outputs:
        if isinstance(out.type, ArrayType) and out.name not in arrays:
            arrays[out.name] = np.zeros(
                out.type.numel, dtype=numpy_dtype(out.type.elem.kind))
    return scalars, arrays


def collect_outputs(func: ir.IRFunction, scalars: dict[str, object],
                    arrays: dict[str, np.ndarray]) -> list[object]:
    """``func``'s outputs read back from its final frame, arrays in
    their MATLAB shape."""
    outputs: list[object] = []
    for out in func.outputs:
        if isinstance(out.type, ArrayType):
            shaped = arrays[out.name].reshape(
                (out.type.rows, out.type.cols), order="F")
            outputs.append(shaped.copy())
        else:
            value = scalars.get(out.name)
            if value is None:
                raise SimulationError(
                    f"{func.name}: output {out.name!r} never assigned")
            outputs.append(value)
    return outputs


@dataclass
class ExecutionResult:
    """Outputs plus the cycle report of one entry-point run."""

    outputs: list[object]
    report: CycleReport
    stdout: str = ""
    #: 1-based MATLAB source line -> cycles charged there (line 0 =
    #: compiler-generated statements).  None unless the run was
    #: profiled (``simulate(..., hotspots=True)``).
    line_cycles: "dict[int, int] | None" = None

    def hotspots(self) -> list[tuple[int, int]]:
        """(line, cycles) pairs, hottest first.

        Requires a line-profiled run (``hotspots=True``); both
        simulator backends attribute identically.
        """
        if self.line_cycles is None:
            raise ValueError(
                "no line profile recorded; run simulate(..., "
                "hotspots=True) to collect one")
        from repro.observe.hotspots import line_table
        return line_table(self.line_cycles)


class _LineCycleReport(CycleReport):
    """CycleReport that also attributes every charge to the source
    line of the statement currently executing (``self.line``, kept
    up to date by the simulator's statement dispatch)."""

    def __init__(self) -> None:
        super().__init__()
        self.line = 0
        self.line_cycles: dict[int, int] = {}

    def charge(self, category: str, cycles: int) -> None:
        super().charge(category, cycles)
        self.line_cycles[self.line] = \
            self.line_cycles.get(self.line, 0) + cycles


@dataclass
class _Frame:
    scalars: dict[str, object]
    arrays: dict[str, np.ndarray]


class Simulator:
    """Executes IR functions against a processor cost model."""

    def __init__(self, module: ir.IRModule,
                 processor: ProcessorDescription,
                 max_steps: int = 200_000_000,
                 profile_lines: bool = False):
        self.module = module
        self.cost = CostModel(processor)
        self.profile_lines = profile_lines
        self.report = _LineCycleReport() if profile_lines \
            else CycleReport()
        self.max_steps = max_steps
        self._steps = 0
        self._stdout: list[str] = []
        # Per-node memos keyed by id(node).  Each entry keeps its node
        # alive, so an id can never be reused while it is cached.
        self._prices: dict[int, tuple] = {}
        self._operators: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def run(self, args: list[object],
            entry: str | None = None) -> ExecutionResult:
        """Execute ``entry`` (default: module entry) on ``args``.

        Array arguments may be numpy arrays of any shape; they are
        flattened in column-major (Fortran) order, matching MATLAB's
        storage that the IR assumes.
        """
        self.report = _LineCycleReport() if self.profile_lines \
            else CycleReport()
        self._stdout = []
        self._steps = 0
        func = self.module.function(entry or self.module.entry)
        if func is None:
            raise SimulationError(f"no function {entry or self.module.entry!r}")
        outputs = self._call_function(func, args)
        line_cycles = dict(self.report.line_cycles) \
            if self.profile_lines else None
        return ExecutionResult(outputs=outputs, report=self.report,
                               stdout="".join(self._stdout),
                               line_cycles=line_cycles)

    # ------------------------------------------------------------------
    # Function invocation
    # ------------------------------------------------------------------

    def _call_function(self, func: ir.IRFunction,
                       args: list[object]) -> list[object]:
        frame = _Frame(*bind_args(func, args))
        try:
            self._exec_body(func.body, frame)
        except _ReturnSignal:
            pass
        return collect_outputs(func, frame.scalars, frame.arrays)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _charge(self, node) -> None:
        entry = self._prices.get(id(node))
        if entry is None:
            entry = (node, ops.price(node, self.cost))
            self._prices[id(node)] = entry
        self._apply(entry[1])

    def _apply(self, priced) -> None:
        if priced is not None:
            category, cycles, instruction = priced
            self.report.charge(category, cycles)
            if instruction is not None:
                self.report.count_instruction(instruction)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise SimulationError("simulation step limit exceeded "
                                  "(infinite loop in generated code?)")

    def _exec_body(self, body: list[ir.Stmt], frame: _Frame) -> None:
        for stmt in body:
            self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt: ir.Stmt, frame: _Frame) -> None:
        self._tick()
        if self.profile_lines:
            self.report.line = stmt.line
        if isinstance(stmt, ir.AssignVar):
            value = self._eval(stmt.value, frame)
            self._charge(stmt)
            frame.scalars[stmt.name] = value
        elif isinstance(stmt, ir.Store):
            index = int(self._eval(stmt.index, frame))
            value = self._eval(stmt.value, frame)
            self._charge(stmt)
            array = self._array(frame, stmt.array)
            self._check_bounds(stmt.array, array, index)
            array[index] = value
        elif isinstance(stmt, ir.VecStore):
            base = int(self._eval(stmt.base, frame))
            value = self._eval(stmt.value, frame)
            self._charge(stmt)
            array = self._array(frame, stmt.array)
            lanes = stmt.value.type.lanes
            self._check_bounds(stmt.array, array, base, lanes)
            array[base:base + lanes] = value
        elif isinstance(stmt, ir.IntrinsicStmt):
            self._eval(stmt.call, frame)
        elif isinstance(stmt, ir.ForRange):
            self._exec_for(stmt, frame)
        elif isinstance(stmt, ir.While):
            self._exec_while(stmt, frame)
        elif isinstance(stmt, ir.If):
            self._charge(stmt)
            condition = self._eval(stmt.condition, frame)
            if condition:
                self._exec_body(stmt.then_body, frame)
            else:
                self._exec_body(stmt.else_body, frame)
        elif isinstance(stmt, ir.Break):
            raise _Break()
        elif isinstance(stmt, ir.Continue):
            raise _Continue()
        elif isinstance(stmt, ir.Return):
            raise _ReturnSignal()
        elif isinstance(stmt, ir.Call):
            self._exec_call(stmt, frame)
        elif isinstance(stmt, ir.Emit):
            values = [self._eval(a, frame) for a in stmt.args]
            self._stdout.append(format_emit(stmt.format, values))
        elif isinstance(stmt, ir.CopyArray):
            src = self._array(frame, stmt.src)
            dst = self._array(frame, stmt.dst)
            count = min(dst.size, src.size)
            self.report.charge("mem", ops.copy_cycles(
                self.cost, count, np.iscomplexobj(dst)))
            dst[:count] = src[:count]
        else:
            raise SimulationError(
                f"cannot execute statement {type(stmt).__name__}")

    def _exec_for(self, stmt: ir.ForRange, frame: _Frame) -> None:
        start = int(self._eval(stmt.start, frame))
        stop = int(self._eval(stmt.stop, frame))
        step = stmt.step
        value = start
        while (value < stop) if step > 0 else (value > stop):
            self._tick()
            # Loop-control overhead belongs to the loop's own line,
            # not to whatever body line executed last.
            if self.profile_lines:
                self.report.line = stmt.line
            self._charge(stmt)
            frame.scalars[stmt.var] = value
            try:
                self._exec_body(stmt.body, frame)
            except _Break:
                break
            except _Continue:
                pass
            value += step
        # MATLAB leaves the loop variable holding its last value; the
        # final assignment above already reflects that.

    def _exec_while(self, stmt: ir.While, frame: _Frame) -> None:
        while True:
            self._tick()
            if self.profile_lines:
                self.report.line = stmt.line
            self._charge(stmt)
            if not self._eval(stmt.condition, frame):
                break
            try:
                self._exec_body(stmt.body, frame)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_call(self, stmt: ir.Call, frame: _Frame) -> None:
        callee = self.module.function(stmt.callee)
        if callee is None:
            raise SimulationError(f"unknown callee {stmt.callee!r}")
        self._charge(stmt)
        args: list[object] = []
        for arg in stmt.args:
            if isinstance(arg, str):
                args.append(self._array(frame, arg).copy())
            else:
                args.append(self._eval(arg, frame))
        results = self._call_function(callee, args)
        for name, value in zip(stmt.results, results):
            if isinstance(value, np.ndarray):
                dst = self._array(frame, name)
                dst[:] = value.reshape(-1, order="F")
            else:
                frame.scalars[name] = value

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _array(self, frame: _Frame, name: str) -> np.ndarray:
        array = frame.arrays.get(name)
        if array is None:
            raise SimulationError(f"unknown array {name!r}")
        return array

    def _check_bounds(self, name: str, array: np.ndarray, index: int,
                      extent: int = 1) -> None:
        if index < 0 or index + extent > array.size:
            raise SimulationError(
                f"index {index} (extent {extent}) out of bounds for "
                f"array {name!r} of size {array.size} — generated code "
                "is invalid")

    def _eval(self, expr: ir.Expr, frame: _Frame):
        if isinstance(expr, ir.Const):
            return expr.value
        if isinstance(expr, ir.VarRef):
            if expr.name in frame.scalars:
                return frame.scalars[expr.name]
            raise SimulationError(f"read of unassigned variable "
                                  f"{expr.name!r}")
        if isinstance(expr, ir.Load):
            index = int(self._eval(expr.index, frame))
            array = self._array(frame, expr.array)
            self._check_bounds(expr.array, array, index)
            self._charge(expr)
            return from_numpy(array[index])
        if isinstance(expr, ir.VecLoad):
            base = int(self._eval(expr.base, frame))
            array = self._array(frame, expr.array)
            lanes = expr.type.lanes
            self._check_bounds(expr.array, array, base, lanes)
            self._charge(expr)
            lanes_data = array[base:base + lanes].copy()
            return lanes_data[::-1].copy() if expr.reverse else lanes_data
        entry = self._operators.get(id(expr))
        if entry is None:
            entry = self._operator(expr)
        _, function, operands, priced = entry
        if function is None:
            return self._eval_logical(expr, priced, frame)
        values = [self._eval(operand, frame) for operand in operands]
        self._apply(priced)
        return function(*values)

    def _operator(self, expr: ir.Expr) -> tuple:
        """Memo entry ``(node, function, operands, price)`` of an
        operator node; ``function`` is None for the short-circuiting
        connectives, which :meth:`_eval_logical` executes."""
        priced = ops.price(expr, self.cost)
        if isinstance(expr, ir.BinOp) and expr.op in ("land", "lor"):
            function = None
        else:
            function = ops.evaluator(expr)
        entry = (expr, function, tuple(expr.children()), priced)
        self._operators[id(expr)] = entry
        return entry

    def _eval_logical(self, expr: ir.BinOp, priced, frame: _Frame) -> bool:
        # Logical connectives short-circuit, exactly like the && / ||
        # the C backend emits (a guarded load in the right operand must
        # not be evaluated when the left side already decides).
        self._apply(priced)
        left = bool(self._eval(expr.left, frame))
        if expr.op == "land" and not left:
            return False
        if expr.op == "lor" and left:
            return True
        return bool(self._eval(expr.right, frame))
