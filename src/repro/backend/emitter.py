"""IR-to-ANSI-C emission.

Produces one self-contained C89 translation unit: the processor's
intrinsics header (with portable fallbacks) followed by every lowered
function.  Custom instructions appear as intrinsic calls, exactly as the
paper describes; everything else is plain scalar C.

Conventions:

* arrays are flat column-major buffers; inputs are ``const T *``,
  array outputs ``T *``;
* scalar outputs are pointer out-parameters written back at function
  exit (and before every early return);
* all locals are declared at block start (C89) and zero-initialized.
"""

from __future__ import annotations

import math

from repro.asip.header_gen import generate_header
from repro.asip.model import ProcessorDescription
from repro.backend.c_types import c_type_name, complex_helper_prefix
from repro.errors import BackendError
from repro.ir import nodes as ir
from repro.ir.types import ArrayType, ScalarKind, ScalarType, VectorType


def emit_c(module: ir.IRModule, processor: ProcessorDescription) -> str:
    """Render the whole module as one self-contained C file."""
    writer = _CWriter()
    writer.raw(generate_header(processor))
    writer.raw("")
    writer.raw(f"/* ---- compiled MATLAB functions (entry: "
               f"{module.entry}) ---- */")
    writer.raw("")
    for func in module.functions:
        is_entry = func.name == module.entry
        _FunctionEmitter(writer, func, module,
                         static=not is_entry).emit()
        writer.raw("")
    return writer.text()


class _CWriter:
    def __init__(self) -> None:
        self._lines: list[str] = []
        self._indent = 0

    def raw(self, text: str) -> None:
        self._lines.append(text)

    def line(self, text: str = "") -> None:
        self._lines.append("    " * self._indent + text if text else "")

    def open(self, text: str) -> None:
        self.line(text + " {")
        self._indent += 1

    def close(self, suffix: str = "") -> None:
        self._indent -= 1
        self.line("}" + suffix)

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


class _FunctionEmitter:
    def __init__(self, writer: _CWriter, func: ir.IRFunction,
                 module: ir.IRModule, static: bool):
        self.w = writer
        self.func = func
        self.module = module
        self.static = static
        self.scalar_outputs = [p for p in func.outputs
                               if isinstance(p.type, ScalarType)]

    # ------------------------------------------------------------------
    # Function shell
    # ------------------------------------------------------------------

    def emit(self) -> None:
        signature = self._signature()
        if self.func.source_name:
            self.w.line(f"/* from MATLAB function "
                        f"{self.func.source_name!r} */")
        self.w.open(signature)
        self._declare_locals()
        for stmt in self.func.body:
            self._stmt(stmt)
        self._writebacks()
        self.w.close()

    def _signature(self) -> str:
        parts: list[str] = []
        for param in self.func.params:
            if isinstance(param.type, ArrayType):
                parts.append(
                    f"const {c_type_name(param.type)} *{param.name}")
            else:
                parts.append(f"{c_type_name(param.type)} {param.name}")
        for out in self.func.outputs:
            if isinstance(out.type, ArrayType):
                parts.append(f"{c_type_name(out.type)} *{out.name}")
            else:
                parts.append(f"{c_type_name(out.type)} *out_{out.name}")
        prefix = "static " if self.static else ""
        args = ", ".join(parts) if parts else "void"
        return f"{prefix}void {self.func.name}({args})"

    def _declare_locals(self) -> None:
        for name, ir_type in self.func.locals.items():
            if isinstance(ir_type, ArrayType):
                self.w.line(f"{c_type_name(ir_type)} {name}"
                            f"[{ir_type.numel}];")
            elif isinstance(ir_type, VectorType):
                self.w.line(f"{c_type_name(ir_type)} {name};")
            else:
                init = self._zero_of(ir_type)
                self.w.line(f"{c_type_name(ir_type)} {name} = {init};")
        for name, ir_type in self.func.locals.items():
            if isinstance(ir_type, ArrayType):
                self.w.line(f"memset({name}, 0, sizeof {name});")

    def _zero_of(self, scalar: ScalarType) -> str:
        if scalar.is_complex:
            prefix = complex_helper_prefix(scalar.kind)
            zero = "0.0f" if scalar.kind is ScalarKind.C64 else "0.0"
            return f"{prefix}_make({zero}, {zero})"
        if scalar.kind is ScalarKind.F32:
            return "0.0f"
        if scalar.is_float:
            return "0.0"
        return "0"

    def _writebacks(self) -> None:
        for out in self.scalar_outputs:
            self.w.line(f"*out_{out.name} = {out.name};")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _stmt(self, stmt: ir.Stmt) -> None:
        if isinstance(stmt, ir.AssignVar):
            self.w.line(f"{stmt.name} = {self._expr(stmt.value)};")
        elif isinstance(stmt, ir.Store):
            self.w.line(f"{stmt.array}[{self._expr(stmt.index)}] = "
                        f"{self._expr(stmt.value)};")
        elif isinstance(stmt, ir.VecStore):
            base = self._expr(stmt.base)
            self.w.line(f"{stmt.instruction.intrinsic}(&{stmt.array}"
                        f"[{base}], {self._expr(stmt.value)});")
        elif isinstance(stmt, ir.IntrinsicStmt):
            self.w.line(self._expr(stmt.call) + ";")
        elif isinstance(stmt, ir.ForRange):
            var = stmt.var
            start = self._expr(stmt.start)
            stop = self._expr(stmt.stop)
            relation = "<" if stmt.step > 0 else ">"
            bump = f"{var} += {stmt.step}" if stmt.step != 1 else f"++{var}"
            if stmt.step < 0:
                bump = f"{var} -= {-stmt.step}"
            self.w.open(f"for ({var} = {start}; {var} {relation} {stop}; "
                        f"{bump})")
            for sub in stmt.body:
                self._stmt(sub)
            self.w.close()
        elif isinstance(stmt, ir.While):
            self.w.open(f"while ({self._bool_expr(stmt.condition)})")
            for sub in stmt.body:
                self._stmt(sub)
            self.w.close()
        elif isinstance(stmt, ir.If):
            self.w.open(f"if ({self._bool_expr(stmt.condition)})")
            for sub in stmt.then_body:
                self._stmt(sub)
            if stmt.else_body:
                self.w._indent -= 1
                self.w.line("} else {")
                self.w._indent += 1
                for sub in stmt.else_body:
                    self._stmt(sub)
            self.w.close()
        elif isinstance(stmt, ir.Break):
            self.w.line("break;")
        elif isinstance(stmt, ir.Continue):
            self.w.line("continue;")
        elif isinstance(stmt, ir.Return):
            self._writebacks()
            self.w.line("return;")
        elif isinstance(stmt, ir.Call):
            self._call(stmt)
        elif isinstance(stmt, ir.Emit):
            self._emit_io(stmt)
        elif isinstance(stmt, ir.CopyArray):
            dst_type = self._array_type(stmt.dst)
            elem = c_type_name(dst_type)
            self.w.line(f"memcpy({stmt.dst}, {stmt.src}, "
                        f"{dst_type.numel} * sizeof({elem}));")
        else:
            raise BackendError(
                f"cannot emit statement {type(stmt).__name__}")

    def _array_type(self, name: str) -> ArrayType:
        ir_type = self.func.local_type(name)
        if not isinstance(ir_type, ArrayType):
            raise BackendError(f"{name!r} is not an array")
        return ir_type

    def _call(self, stmt: ir.Call) -> None:
        callee = self.module.function(stmt.callee)
        if callee is None:
            raise BackendError(f"unknown callee {stmt.callee!r}")
        parts: list[str] = []
        for arg in stmt.args:
            parts.append(arg if isinstance(arg, str) else self._expr(arg))
        for name, out in zip(stmt.results, callee.outputs):
            if isinstance(out.type, ArrayType):
                parts.append(name)
            else:
                parts.append(f"&{name}")
        self.w.line(f"{stmt.callee}({', '.join(parts)});")

    def _emit_io(self, stmt: ir.Emit) -> None:
        fmt = stmt.format.replace("\\", "\\\\").replace('"', '\\"')
        fmt = fmt.replace("\n", "\\n").replace("\t", "\\t")
        args = "".join(", " + self._expr(a) for a in stmt.args)
        self.w.line(f'printf("{fmt}"{args});')

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _bool_expr(self, expr: ir.Expr) -> str:
        return self._expr(expr)

    def _expr(self, expr: ir.Expr) -> str:
        if isinstance(expr, ir.Const):
            return self._const(expr)
        if isinstance(expr, ir.VarRef):
            return expr.name
        if isinstance(expr, ir.Load):
            return f"{expr.array}[{self._expr(expr.index)}]"
        if isinstance(expr, ir.BinOp):
            return self._binop(expr)
        if isinstance(expr, ir.UnOp):
            return self._unop(expr)
        if isinstance(expr, ir.MathCall):
            return self._math(expr)
        if isinstance(expr, ir.Cast):
            return self._cast(expr)
        if isinstance(expr, ir.MakeComplex):
            prefix = complex_helper_prefix(expr.type.kind)
            return (f"{prefix}_make({self._expr(expr.real)}, "
                    f"{self._expr(expr.imag)})")
        if isinstance(expr, ir.VecLoad):
            return (f"{expr.instruction.intrinsic}(&{expr.array}"
                    f"[{self._expr(expr.base)}])")
        if isinstance(expr, ir.IntrinsicCall):
            args = ", ".join(self._expr(a) for a in expr.args)
            return f"{expr.instruction.intrinsic}({args})"
        raise BackendError(f"cannot emit expression {type(expr).__name__}")

    def _const(self, expr: ir.Const) -> str:
        value = expr.value
        kind = expr.type.kind if isinstance(expr.type, ScalarType) else None
        if isinstance(value, bool):
            return "1" if value else "0"
        # Dispatch on the constant's IR type, not the Python value's
        # type: a real-valued constant in a complex-typed position
        # (e.g. a reduction's `acc = 0.0` over a complex array) must
        # still build the struct literal.
        if isinstance(value, complex) or (kind is not None
                                          and kind.is_complex):
            value = complex(value)
            prefix = complex_helper_prefix(kind or ScalarKind.C128)
            return (f"{prefix}_make({self._float_literal(value.real, kind)}, "
                    f"{self._float_literal(value.imag, kind)})")
        if kind is not None and kind.is_integer:
            return str(int(value))
        return self._float_literal(float(value), kind)

    def _float_literal(self, value: float, kind: ScalarKind | None) -> str:
        suffix = "f" if kind in (ScalarKind.F32, ScalarKind.C64) else ""
        if math.isinf(value):
            return ("-" if value < 0 else "") + "HUGE_VAL"
        if math.isnan(value):
            return "(0.0 / 0.0)"
        text = repr(float(value))
        if "e" not in text and "." not in text:
            text += ".0"
        return text + suffix

    _INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/",
              "eq": "==", "ne": "!=", "lt": "<", "le": "<=",
              "gt": ">", "ge": ">=", "land": "&&", "lor": "||"}

    def _binop(self, expr: ir.BinOp) -> str:
        left_t = expr.left.type
        is_complex = isinstance(left_t, ScalarType) and left_t.is_complex
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        op = expr.op
        if is_complex:
            prefix = complex_helper_prefix(left_t.kind)
            helper = {"add": "add", "sub": "sub", "mul": "mul",
                      "div": "div"}.get(op)
            if helper is not None:
                return f"{prefix}_{helper}({left}, {right})"
            if op == "eq":
                return f"{prefix}_eq({left}, {right})"
            if op == "ne":
                return f"(!{prefix}_eq({left}, {right}))"
            raise BackendError(f"complex operator {op!r} has no C mapping")
        if op in ("min", "max"):
            kind = expr.type.kind if isinstance(expr.type, ScalarType) \
                else ScalarKind.F64
            helper = {ScalarKind.F64: "f64", ScalarKind.F32: "f32",
                      ScalarKind.I32: "i32"}.get(kind, "f64")
            return f"asip_{op}_{helper}({left}, {right})"
        if op == "pow":
            if isinstance(expr.type, ScalarType) and \
                    expr.type.kind is ScalarKind.F32:
                return f"(float)pow((double){left}, (double){right})"
            return f"pow({left}, {right})"
        if op == "rem":
            return f"fmod({left}, {right})"
        infix = self._INFIX.get(op)
        if infix is None:
            raise BackendError(f"operator {op!r} has no C mapping")
        return f"({left} {infix} {right})"

    def _unop(self, expr: ir.UnOp) -> str:
        operand_t = expr.operand.type
        operand = self._expr(expr.operand)
        if expr.op == "neg":
            if isinstance(operand_t, ScalarType) and operand_t.is_complex:
                prefix = complex_helper_prefix(operand_t.kind)
                return f"{prefix}_neg({operand})"
            return f"(-{operand})"
        return f"(!{operand})"

    _LIBM = {"sqrt", "exp", "log", "sin", "cos", "tan", "atan", "atan2",
             "floor", "ceil"}

    def _math(self, expr: ir.MathCall) -> str:
        name = expr.name
        args = [self._expr(a) for a in expr.args]
        arg_t = expr.args[0].type if expr.args else None
        arg_complex = isinstance(arg_t, ScalarType) and arg_t.is_complex

        if arg_complex:
            prefix = complex_helper_prefix(arg_t.kind)
            if name == "abs":
                return f"{prefix}_abs({args[0]})"
            if name == "conj":
                return f"{prefix}_conj({args[0]})"
            if name == "real":
                return f"({args[0]}).re"
            if name == "imag":
                return f"({args[0]}).im"
            if name == "arg":
                return f"{prefix}_arg({args[0]})"
            if name == "exp" and arg_t.kind is ScalarKind.C128:
                return f"{prefix}_exp({args[0]})"
            raise BackendError(
                f"complex math function {name!r} has no C mapping")

        result_f32 = isinstance(expr.type, ScalarType) and \
            expr.type.kind is ScalarKind.F32

        def wrap(call: str) -> str:
            return f"(float){call}" if result_f32 else call

        if name == "abs":
            return wrap(f"fabs((double){args[0]})") if result_f32 \
                else f"fabs({args[0]})"
        if name in self._LIBM:
            if result_f32:
                casted = ", ".join(f"(double){a}" for a in args)
                return f"(float){name}({casted})"
            return f"{name}({', '.join(args)})"
        if name == "hypot":
            return wrap(f"sqrt({args[0]} * {args[0]} + "
                        f"{args[1]} * {args[1]})")
        if name == "round":
            return wrap(f"asip_round({args[0]})")
        if name == "fix":
            return wrap(f"asip_fix({args[0]})")
        if name == "sign":
            return wrap(f"asip_sign({args[0]})")
        if name == "mod":
            return wrap(f"asip_mod({args[0]}, {args[1]})")
        if name == "rem":
            return wrap(f"fmod({args[0]}, {args[1]})")
        if name == "pow":
            return wrap(f"pow({args[0]}, {args[1]})")
        if name == "real":
            return args[0]
        if name == "imag":
            return "0.0"
        if name == "conj":
            return args[0]
        raise BackendError(f"math function {name!r} has no C mapping")

    def _cast(self, expr: ir.Cast) -> str:
        target = expr.type
        source_t = expr.operand.type
        operand = self._expr(expr.operand)
        if not isinstance(target, ScalarType):
            raise BackendError("cast target must be scalar")
        source_complex = isinstance(source_t, ScalarType) and \
            source_t.is_complex
        if target.is_complex:
            prefix = complex_helper_prefix(target.kind)
            if source_complex:
                # c64 <-> c128 conversion via components.
                return (f"{prefix}_make(({self._component_type(target)})"
                        f"({operand}).re, ({self._component_type(target)})"
                        f"({operand}).im)")
            zero = "0.0f" if target.kind is ScalarKind.C64 else "0.0"
            comp = self._component_type(target)
            return f"{prefix}_make(({comp}){operand}, {zero})"
        if source_complex:
            return f"({c_type_name(target)})({operand}).re"
        return f"({c_type_name(target)}){operand}"

    def _component_type(self, target: ScalarType) -> str:
        return "float" if target.kind is ScalarKind.C64 else "double"
