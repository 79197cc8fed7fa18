"""Parameterized ASIP processor descriptions.

The paper's compiler is retargetable: "the proposed compiler allows the
description of the specialized instruction set of the target processor in
a parameterized way allowing the support of any processor".  This module
is that parameterization: a :class:`ProcessorDescription` lists the
target's custom instructions (:class:`Instruction`) with their semantics
tag, element kind, SIMD lane count, cycle cost and intrinsic name, plus a
:class:`CostTable` for the plain scalar datapath.

The instruction-selection stage (:mod:`repro.vectorize`) queries the
description for the operations it wants to emit; the C backend prints
matched instructions as intrinsic function calls; the cycle simulator
charges their costs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.asip.operations import OPERATIONS
from repro.errors import IsaError
from repro.ir.types import ScalarKind

#: Semantic tags an instruction may carry; what each computes, and on
#: which element kinds, is defined in :mod:`repro.asip.operations`.
KNOWN_OPERATIONS = frozenset(OPERATIONS)


@dataclass(frozen=True)
class Instruction:
    """One custom instruction of the target ASIP.

    Attributes:
        name: ISA-level mnemonic, unique within a processor.
        operation: semantic tag from :data:`KNOWN_OPERATIONS`.
        elem: element kind the instruction operates on.
        lanes: SIMD lane count (1 for scalar/complex-scalar instructions).
        cycles: issue-to-result cost charged by the simulator.
        intrinsic: C intrinsic function name emitted by the backend.
        description: human-readable summary for generated headers.
    """

    name: str
    operation: str
    elem: ScalarKind
    lanes: int
    cycles: int
    intrinsic: str
    description: str = ""

    def __post_init__(self) -> None:
        operation = OPERATIONS.get(self.operation)
        if operation is None:
            raise IsaError(
                f"instruction {self.name!r}: unknown operation "
                f"{self.operation!r}")
        if self.elem not in operation.kinds:
            raise IsaError(
                f"instruction {self.name!r}: operation "
                f"{self.operation!r} is not defined on "
                f"{self.elem.value} elements")
        if self.lanes < 1:
            raise IsaError(f"instruction {self.name!r}: lanes must be >= 1")
        if self.cycles < 1:
            raise IsaError(f"instruction {self.name!r}: cycles must be >= 1")

    @property
    def is_simd(self) -> bool:
        return self.lanes > 1

    @property
    def is_complex(self) -> bool:
        return self.elem.is_complex


@dataclass(frozen=True)
class CostTable:
    """Cycle costs of the plain scalar datapath.

    These apply to baseline (non-intrinsic) code and to the scalar
    residue of vectorized code, so baseline and optimized programs are
    measured on the same machine model — mirroring the paper's setup
    where both compilers' C ran on the same ASIP.
    """

    add: int = 1
    mul: int = 1
    div: int = 8
    compare: int = 1
    logic: int = 1
    load: int = 2
    store: int = 2
    move: int = 1
    branch: int = 2          # per loop-iteration control overhead
    call: int = 4            # user-function call overhead
    math_call: int = 25      # sin/cos/exp/... software library routine
    sqrt: int = 15
    pow: int = 40

    def for_binop(self, op: str) -> int:
        if op in ("add", "sub", "min", "max"):
            return self.add
        if op == "mul":
            return self.mul
        if op in ("div", "rem"):
            return self.div
        if op == "pow":
            return self.pow
        if op in ("eq", "ne", "lt", "le", "gt", "ge"):
            return self.compare
        if op in ("land", "lor"):
            return self.logic
        return self.add

    def for_math(self, name: str) -> int:
        if name in ("abs", "sign", "floor", "ceil", "round", "fix",
                    "real", "imag", "conj"):
            return self.add
        if name == "sqrt":
            return self.sqrt
        if name in ("mod", "rem"):
            return self.div
        if name == "pow":
            return self.pow
        return self.math_call


@dataclass(eq=False)
class ProcessorDescription:
    """A complete target description: scalar costs + custom instructions.

    Equality and hashing are fingerprint-based: two descriptions with
    the same name, cost table and instruction list compare equal, which
    lets processors key caches (``functools.lru_cache``, the
    compilation cache in :mod:`repro.cache`).
    """

    name: str
    description: str = ""
    costs: CostTable = field(default_factory=CostTable)
    instructions: list[Instruction] = field(default_factory=list)
    _by_key: dict[tuple[str, ScalarKind, int], Instruction] = field(
        default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for instr in self.instructions:
            if instr.name in seen:
                raise IsaError(
                    f"processor {self.name!r}: duplicate instruction "
                    f"{instr.name!r}")
            seen.add(instr.name)
            self._by_key[(instr.operation, instr.elem, instr.lanes)] = instr
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of everything that affects compilation.

        Covers the name, the scalar cost table and every instruction
        (semantics tag, element kind, lanes, cycles, intrinsic).  The
        free-text descriptions are excluded so documentation edits do
        not invalidate caches.
        """
        if self._fingerprint is None:
            import hashlib

            parts = [self.name]
            parts.extend(
                f"{f.name}={getattr(self.costs, f.name)}"
                for f in dataclasses.fields(CostTable))
            for instr in self.instructions:
                parts.append(
                    f"{instr.name}:{instr.operation}:{instr.elem.value}:"
                    f"{instr.lanes}:{instr.cycles}:{instr.intrinsic}")
            digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessorDescription):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    # ------------------------------------------------------------------
    # Selection queries
    # ------------------------------------------------------------------

    def find(self, operation: str, elem: ScalarKind, lanes: int) -> Instruction | None:
        """Exact-match lookup of an instruction."""
        return self._by_key.get((operation, elem, lanes))

    def simd_lanes(self, elem: ScalarKind) -> list[int]:
        """Available SIMD widths for ``elem``, widest first.

        A width counts as available only when the minimum complete set
        of instructions needed to vectorize a loop exists at that width
        (load, store, add, mul, splat).
        """
        widths: set[int] = set()
        for instr in self.instructions:
            if instr.elem is elem and instr.lanes > 1:
                widths.add(instr.lanes)
        usable = []
        for lanes in sorted(widths, reverse=True):
            needed = ("vload", "vstore", "vadd", "vmul", "vsplat")
            if all(self.find(op, elem, lanes) for op in needed):
                usable.append(lanes)
        return usable

    def best_simd_width(self, elem: ScalarKind) -> int | None:
        widths = self.simd_lanes(elem)
        return widths[0] if widths else None

    def has_complex_arith(self, elem: ScalarKind) -> bool:
        """Does the target provide scalar complex-arithmetic instructions?"""
        if not elem.is_complex:
            return False
        return self.find("cmul", elem, 1) is not None

    def instruction_by_name(self, name: str) -> Instruction | None:
        for instr in self.instructions:
            if instr.name == name:
                return instr
        return None

    def summary(self) -> str:
        lines = [f"processor {self.name}: {self.description}"]
        for instr in self.instructions:
            lines.append(
                f"  {instr.name:<18} {instr.operation:<8} "
                f"{instr.elem.value:<5} x{instr.lanes:<3} "
                f"{instr.cycles} cyc  -> {instr.intrinsic}")
        return "\n".join(lines)


def make_simd_instruction_set(elem: ScalarKind, lanes: int, *,
                              prefix: str = "v",
                              load_cycles: int = 2,
                              alu_cycles: int = 1,
                              mul_cycles: "int | None" = None,
                              mac_cycles: int = 1,
                              reduce_cycles: int = 2,
                              div_cycles: int = 10) -> list[Instruction]:
    """Build the standard SIMD instruction group for one (elem, lanes).

    A convenience for authoring processor descriptions: generates the
    full load/store/arithmetic/reduction family with consistent naming
    (``vadd_f32x8`` etc.) and intrinsics (``asip_vadd_f32x8``).
    """
    suffix = f"{elem.value}x{lanes}"
    if mul_cycles is None:
        mul_cycles = alu_cycles

    group = [
        ("vload", load_cycles, f"load {lanes} contiguous {elem.value}"),
        ("vloadr", load_cycles,
         f"load {lanes} contiguous {elem.value}, reversed lane order"),
        ("vstore", load_cycles, f"store {lanes} contiguous {elem.value}"),
        ("vsplat", 1, "broadcast scalar to all lanes"),
        ("vadd", alu_cycles, "lane-wise add"),
        ("vsub", alu_cycles, "lane-wise subtract"),
        ("vmul", mul_cycles, "lane-wise multiply"),
        ("vdiv", div_cycles, "lane-wise divide"),
        ("vmac", mac_cycles, "lane-wise multiply-accumulate"),
        ("vneg", alu_cycles, "lane-wise negate"),
        ("vredadd", reduce_cycles, "horizontal add reduction"),
        ("vconj", alu_cycles, "lane-wise conjugate"),
        ("vmin", alu_cycles, "lane-wise minimum"),
        ("vmax", alu_cycles, "lane-wise maximum"),
        ("vabs", alu_cycles, "lane-wise absolute value"),
        ("vredmin", reduce_cycles, "horizontal min reduction"),
        ("vredmax", reduce_cycles, "horizontal max reduction"),
    ]
    # Only the operations defined on ``elem``: conjugation is complex
    # only, ordering-based lane ops are real only.
    return [
        Instruction(
            name=f"{prefix}{op[1:]}_{suffix}",
            operation=op,
            elem=elem,
            lanes=lanes,
            cycles=cycles,
            intrinsic=f"asip_{op}_{suffix}",
            description=description,
        )
        for op, cycles, description in group
        if elem in OPERATIONS[op].kinds
    ]


def make_complex_instruction_set(elem: ScalarKind, *,
                                 mul_cycles: int = 2,
                                 mac_cycles: int = 2) -> list[Instruction]:
    """Scalar complex-arithmetic instruction group for c64/c128."""
    if not elem.is_complex:
        raise IsaError(f"complex instruction set requires a complex kind, got {elem.value}")
    suffix = elem.value

    def instr(op: str, cycles: int, description: str) -> Instruction:
        return Instruction(
            name=f"{op}_{suffix}",
            operation=op,
            elem=elem,
            lanes=1,
            cycles=cycles,
            intrinsic=f"asip_{op}_{suffix}",
            description=description,
        )

    return [
        instr("cadd", 1, "complex add"),
        instr("csub", 1, "complex subtract"),
        instr("cmul", mul_cycles, "complex multiply (4 mul + 2 add fused)"),
        instr("cmac", mac_cycles, "complex multiply-accumulate"),
        instr("cconj", 1, "complex conjugate"),
        instr("cmag2", 1, "squared magnitude |z|^2"),
    ]
