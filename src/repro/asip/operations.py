"""What every custom-instruction operation computes.

The paper describes the target ASIP's custom instructions "in a
parameterized way".  An :class:`~repro.asip.model.Instruction` names
its semantics by a tag; this table is the one place that says what each
tag means.  An entry gives:

* ``shape`` — how its portable C fallback is laid out (:class:`Shape`);
* ``operands`` — its C parameter names, in call order;
* ``real`` / ``complex`` — its per-lane C expression on real and on
  complex element kinds: a format template over the operand names
  (``{a}``), where ``{h}`` is the complex helper prefix (``asip_c64``,
  ``asip_c128``) and a reduction's running value is ``r``.  ``real``
  may map element kinds to templates, ``None`` keying the default.  An
  operation is defined on the element kinds it has a form for
  (:attr:`Operation.kinds`); memory and splat shapes need none and are
  defined on every kind;
* ``real_result`` — the result is the real component kind (|z|^2);
* ``binop`` — the IR binary opcode the instruction implements, for the
  instruction selectors;
* ``sim`` — the simulator's Python expression over operand positions
  ``{0}, {1}, ...``; its free names resolve in
  :data:`repro.sim.ops.NAMESPACE`.  Memory operations carry none (they
  run as ``VecLoad``/``VecStore`` nodes), nor do splats, whose template
  depends on the vector type and is built by :mod:`repro.sim.ops`.

:mod:`repro.asip.header_gen` renders the C fallbacks from it,
:mod:`repro.sim.ops` reads the simulator templates, and
:class:`~repro.asip.model.Instruction` rejects element kinds an
operation is not defined on.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass

from repro.ir.types import ScalarKind


class Shape(enum.Enum):
    LOAD = "load"                    # (const elem *p) -> vector
    LOAD_REVERSED = "load-reversed"  # lanes in reverse memory order
    STORE = "store"                  # (elem *p, vector a) -> void
    SPLAT = "splat"                  # (elem x) -> vector
    LANEWISE = "lanewise"            # vectors -> vector, lane by lane
    REDUCTION = "reduction"          # vector -> elem, folded into r
    SCALAR = "scalar"                # scalars -> scalar


#: Shapes that move or replicate elements without computing on them.
_ANY_KIND_SHAPES = frozenset({Shape.LOAD, Shape.LOAD_REVERSED, Shape.STORE,
                              Shape.SPLAT})

_REAL_KINDS = tuple(kind for kind in ScalarKind if not kind.is_complex)
_COMPLEX_KINDS = tuple(kind for kind in ScalarKind if kind.is_complex)


@dataclass(frozen=True)
class Operation:
    shape: Shape
    operands: tuple[str, ...] = ("a",)
    real: "str | Mapping[ScalarKind | None, str] | None" = None
    complex: str | None = None
    sim: str | None = None
    binop: str | None = None
    real_result: bool = False

    @property
    def kinds(self) -> tuple[ScalarKind, ...]:
        """Element kinds the operation is defined on."""
        if self.shape in _ANY_KIND_SHAPES:
            return tuple(ScalarKind)
        return (_REAL_KINDS if self.real else ()) + \
            (_COMPLEX_KINDS if self.complex else ())

    def result_kind(self, elem: ScalarKind) -> ScalarKind:
        return elem.real_kind if self.real_result else elem

    def c_expr(self, elem: ScalarKind, operands: Mapping[str, str]) -> str:
        """The C expression on ``elem``, spelling each operand as given."""
        if elem.is_complex:
            return self.complex.format(h=f"asip_{elem.value}", **operands)
        form = self.real
        if not isinstance(form, str):
            form = form.get(elem, form[None])
        return form.format(**operands)


def _lanewise(real, complex=None, sim=None, binop=None,
              operands=("a", "b")) -> Operation:
    return Operation(Shape.LANEWISE, operands, real, complex, sim, binop)


def _scalar(real=None, complex=None, sim=None, binop=None,
            operands=("a", "b"), real_result=False) -> Operation:
    return Operation(Shape.SCALAR, operands, real, complex, sim, binop,
                     real_result)


def _reduction(real, complex=None, sim=None) -> Operation:
    return Operation(Shape.REDUCTION, ("a",), real, complex, sim)


OPERATIONS: dict[str, Operation] = {
    # ---- SIMD memory and broadcast --------------------------------
    "vload": Operation(Shape.LOAD, ("p",)),
    "vloadr": Operation(Shape.LOAD_REVERSED, ("p",)),
    "vstore": Operation(Shape.STORE, ("p", "a")),
    "vsplat": Operation(Shape.SPLAT, ("x",)),
    # ---- SIMD lane-wise arithmetic --------------------------------
    "vadd": _lanewise("{a} + {b}", "{h}_add({a}, {b})", "({0} + {1})",
                      binop="add"),
    "vsub": _lanewise("{a} - {b}", "{h}_sub({a}, {b})", "({0} - {1})",
                      binop="sub"),
    "vmul": _lanewise("{a} * {b}", "{h}_mul({a}, {b})", "({0} * {1})",
                      binop="mul"),
    "vdiv": _lanewise("{a} / {b}", "{h}_div({a}, {b})", "({0} / {1})",
                      binop="div"),
    "vmin": _lanewise("{a} < {b} ? {a} : {b}", sim="_npmin({0}, {1})",
                      binop="min"),
    "vmax": _lanewise("{a} > {b} ? {a} : {b}", sim="_npmax({0}, {1})",
                      binop="max"),
    "vmac": _lanewise("{acc} + {a} * {b}",
                      "{h}_add({acc}, {h}_mul({a}, {b}))",
                      "({0} + {1} * {2})", operands=("acc", "a", "b")),
    "vneg": _lanewise("-({a})", "{h}_neg({a})", "(-{0})",
                      operands=("a",)),
    "vabs": _lanewise({ScalarKind.F64: "fabs({a})",
                       ScalarKind.F32: "(float)fabs((double){a})",
                       None: "{a} < 0 ? -{a} : {a}"},
                      sim="_npabs({0})", operands=("a",)),
    "vconj": _lanewise(None, "{h}_conj({a})", "_npconj({0})",
                       operands=("a",)),
    # ---- SIMD horizontal reductions -------------------------------
    "vredadd": _reduction("r + {a}", "{h}_add(r, {a})",
                          "_fromnp(_npsum({0}))"),
    "vredmin": _reduction("{a} < r ? {a} : r", sim="_fromnp(_npamin({0}))"),
    "vredmax": _reduction("{a} > r ? {a} : r", sim="_fromnp(_npamax({0}))"),
    # ---- scalar complex unit --------------------------------------
    "cadd": _scalar(complex="{h}_add({a}, {b})", sim="({0} + {1})",
                    binop="add"),
    "csub": _scalar(complex="{h}_sub({a}, {b})", sim="({0} - {1})",
                    binop="sub"),
    "cmul": _scalar(complex="{h}_mul({a}, {b})", sim="({0} * {1})",
                    binop="mul"),
    "cmac": _scalar(complex="{h}_add({x}, {h}_mul({a}, {b}))",
                    sim="({0} + {1} * {2})", operands=("x", "a", "b")),
    "cconj": _scalar(complex="{h}_conj({a})", sim="({0}).conjugate()",
                     operands=("a",)),
    "cmag2": _scalar(complex="{a}.re * {a}.re + {a}.im * {a}.im",
                     sim="_cmag2({0})", operands=("a",), real_result=True),
    # ---- scalar real units ----------------------------------------
    "mac": _scalar("{x} + {a} * {b}", sim="({0} + {1} * {2})",
                   operands=("x", "a", "b")),
    "clip": _scalar("{x} < {lo} ? {lo} : ({x} > {hi} ? {hi} : {x})",
                    sim="min(max({0}, {1}), {2})",
                    operands=("x", "lo", "hi")),
}
