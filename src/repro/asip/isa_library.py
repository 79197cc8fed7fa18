"""Ready-made processor descriptions.

Three targets ship with the compiler, spanning the retargetability axis
the paper demonstrates:

* :func:`generic_scalar_dsp` — a plain scalar DSP with no custom
  instructions.  Optimized and baseline code coincide on it (modulo
  scalar IR cleanups), which anchors the speedup comparison.
* :func:`vliw_simd_dsp` — the analogue of the paper's evaluation target:
  a DSP-oriented ASIP with 8-lane single / 4-lane double SIMD and scalar
  complex-arithmetic instructions.
* :func:`wide_simd_dsp` — a wider hypothetical variant (16/8 lanes, SIMD
  complex) used by the vector-width sweep experiment.

All three share the same scalar :class:`~repro.asip.model.CostTable`, so
differences between targets isolate the custom-instruction effect.
"""

from __future__ import annotations

import functools

from repro.asip.model import (
    CostTable,
    Instruction,
    ProcessorDescription,
    make_complex_instruction_set,
    make_simd_instruction_set,
)
from repro.errors import IsaError
from repro.ir.types import ScalarKind

#: Widest SIMD datapath any description may declare.  Far beyond any
#: plausible ASIP; the bound exists so a typo'd width (``simd_width:
#: 80000``) is a diagnosable description error, not an attempt to
#: materialize tens of thousands of instructions.
MAX_SIMD_LANES = 64


def validate_simd_width(width: int, *, source: str = "") -> int:
    """Check one SIMD width parameter; raises :class:`IsaError`.

    Widths must be integral, >= 1 (1 = scalar datapath, no SIMD) and a
    power of two no wider than :data:`MAX_SIMD_LANES` — the lane-split
    ladders (``w, w/2, w/4, ...``) every description builder emits
    only make sense on powers of two.
    """
    prefix = f"{source}: " if source else ""
    if isinstance(width, bool) or not isinstance(width, int):
        raise IsaError(f"{prefix}SIMD width must be an integer, "
                       f"got {width!r}")
    if width < 1:
        raise IsaError(f"{prefix}SIMD width must be >= 1, got {width}")
    if width & (width - 1):
        raise IsaError(f"{prefix}SIMD width must be a power of two, "
                       f"got {width}")
    if width > MAX_SIMD_LANES:
        raise IsaError(f"{prefix}SIMD width must be <= {MAX_SIMD_LANES}, "
                       f"got {width}")
    return width


def validate_cycle_cost(value: int, *, what: str = "cycle cost",
                        source: str = "") -> int:
    """Check one per-op cycle cost; raises :class:`IsaError`."""
    prefix = f"{source}: " if source else ""
    if isinstance(value, bool) or not isinstance(value, int):
        raise IsaError(f"{prefix}{what} must be an integer, got {value!r}")
    if value < 1:
        raise IsaError(f"{prefix}{what} must be >= 1, got {value}")
    return value


def generic_scalar_dsp() -> ProcessorDescription:
    """A scalar load/store DSP without custom instructions."""
    return ProcessorDescription(
        name="generic_scalar_dsp",
        description="baseline scalar DSP; no SIMD, no complex arithmetic",
        costs=CostTable(),
        instructions=[
            # A classic DSP still has a scalar MAC unit.
            Instruction(
                name="mac_f64",
                operation="mac",
                elem=ScalarKind.F64,
                lanes=1,
                cycles=1,
                intrinsic="asip_mac_f64",
                description="scalar fused multiply-accumulate",
            ),
            Instruction(
                name="mac_f32",
                operation="mac",
                elem=ScalarKind.F32,
                lanes=1,
                cycles=1,
                intrinsic="asip_mac_f32",
                description="scalar fused multiply-accumulate",
            ),
        ],
    )


def vliw_simd_dsp() -> ProcessorDescription:
    """The paper-target analogue: SIMD + complex-arithmetic ASIP."""
    instructions: list[Instruction] = []
    instructions += make_simd_instruction_set(ScalarKind.F32, 8)
    instructions += make_simd_instruction_set(ScalarKind.F64, 4)
    instructions += make_simd_instruction_set(ScalarKind.I16, 8)
    instructions += make_simd_instruction_set(ScalarKind.I32, 8)
    # The same 256-bit datapath carries complex lanes (re/im pairs).
    instructions += make_simd_instruction_set(ScalarKind.C64, 4,
                                              load_cycles=2, alu_cycles=2,
                                              mac_cycles=2, reduce_cycles=3)
    instructions += make_simd_instruction_set(ScalarKind.C128, 2,
                                              load_cycles=2, alu_cycles=2,
                                              mac_cycles=2, reduce_cycles=3)
    instructions += make_complex_instruction_set(ScalarKind.C64)
    instructions += make_complex_instruction_set(ScalarKind.C128)
    instructions += [
        Instruction(
            name="mac_f64",
            operation="mac",
            elem=ScalarKind.F64,
            lanes=1,
            cycles=1,
            intrinsic="asip_mac_f64",
            description="scalar fused multiply-accumulate",
        ),
        Instruction(
            name="mac_f32",
            operation="mac",
            elem=ScalarKind.F32,
            lanes=1,
            cycles=1,
            intrinsic="asip_mac_f32",
            description="scalar fused multiply-accumulate",
        ),
        Instruction(
            name="clip_f64",
            operation="clip",
            elem=ScalarKind.F64,
            lanes=1,
            cycles=1,
            intrinsic="asip_clip_f64",
            description="saturate to [lo, hi]",
        ),
        Instruction(
            name="clip_f32",
            operation="clip",
            elem=ScalarKind.F32,
            lanes=1,
            cycles=1,
            intrinsic="asip_clip_f32",
            description="saturate to [lo, hi]",
        ),
    ]
    return ProcessorDescription(
        name="vliw_simd_dsp",
        description=(
            "DSP-oriented ASIP with 8x f32 / 4x f64 SIMD datapath and "
            "scalar complex-arithmetic unit (paper evaluation target "
            "analogue)"
        ),
        costs=CostTable(),
        instructions=instructions,
    )


def wide_simd_dsp() -> ProcessorDescription:
    """A wider variant: 16x f32 / 8x f64 SIMD, plus SIMD complex ops."""
    instructions: list[Instruction] = []
    instructions += make_simd_instruction_set(ScalarKind.F32, 16)
    instructions += make_simd_instruction_set(ScalarKind.F32, 8)
    instructions += make_simd_instruction_set(ScalarKind.F64, 8)
    instructions += make_simd_instruction_set(ScalarKind.F64, 4)
    instructions += make_complex_instruction_set(ScalarKind.C64)
    instructions += make_complex_instruction_set(ScalarKind.C128)
    instructions += make_simd_instruction_set(ScalarKind.C128, 4,
                                              load_cycles=3, alu_cycles=2,
                                              mac_cycles=2, reduce_cycles=3)
    instructions += make_simd_instruction_set(ScalarKind.C64, 8,
                                              load_cycles=3, alu_cycles=2,
                                              mac_cycles=2, reduce_cycles=3)
    instructions += [
        Instruction(
            name="mac_f64",
            operation="mac",
            elem=ScalarKind.F64,
            lanes=1,
            cycles=1,
            intrinsic="asip_mac_f64",
            description="scalar fused multiply-accumulate",
        ),
    ]
    return ProcessorDescription(
        name="wide_simd_dsp",
        description="wide-SIMD ASIP variant with SIMD complex arithmetic",
        costs=CostTable(),
        instructions=instructions,
    )


def simd_dsp_with_width(lanes_f64: int) -> ProcessorDescription:
    """A parametric family used by the vector-width sweep (E6).

    A ``w``-lane double datapath also exposes its narrower power-of-two
    sub-widths (as real vector ISAs do), plus twice the lanes in single
    precision.
    """
    validate_simd_width(lanes_f64,
                        source=f"processor spec simd_width:{lanes_f64}")
    instructions: list[Instruction] = []
    width = lanes_f64
    while width >= 2:
        instructions += make_simd_instruction_set(ScalarKind.F64, width)
        instructions += make_simd_instruction_set(ScalarKind.F32, width * 2)
        width //= 2
    instructions += make_complex_instruction_set(ScalarKind.C128)
    instructions += make_complex_instruction_set(ScalarKind.C64)
    return ProcessorDescription(
        name=f"simd_dsp_w{lanes_f64}",
        description=f"parametric SIMD DSP, {lanes_f64}x f64 lanes",
        costs=CostTable(),
        instructions=instructions,
    )


def design_processor(name: str, *,
                     f32_lanes: int = 1,
                     complex_unit: bool = False,
                     scalar_mac: bool = False,
                     clip_unit: bool = False,
                     mac_cycles: int = 1,
                     mul_cycles: int = 1,
                     registers: int = 16,
                     source: str = "") -> ProcessorDescription:
    """Materialize one design-space candidate as a full description.

    This is the candidate-materialization half of ``repro-dse``: a
    point in the parameterized ISA space (SIMD width, complex/MAC/clip
    unit availability, per-op cycle costs, register count) becomes a
    concrete :class:`ProcessorDescription` the retargetable compiler
    can drive, built from the same instruction-group helpers the
    hand-written targets use.

    Args:
        f32_lanes: single-precision SIMD width (1 = scalar datapath);
            doubles carry half the lanes, complex kinds half again,
            and every narrower power-of-two sub-width is exposed too.
        complex_unit: scalar complex-arithmetic instruction group
            (cadd/cmul/cmac/...) for c64 and c128.
        scalar_mac: scalar fused multiply-accumulate unit (f32/f64).
        clip_unit: saturate-to-range instruction (f32/f64).
        mac_cycles: issue-to-result cost of MAC instructions (scalar
            and SIMD).
        mul_cycles: cost of SIMD multiplies and (doubled) complex
            multiplies.
        registers: architectural register count; affects the hardware
            cost model only, never compilation, so it is recorded in
            the description text rather than the instruction table.
        source: diagnostic prefix naming where the parameters came
            from (a space file, a CLI spec).

    All parameters are validated; a malformed value raises
    :class:`IsaError` with a sourced diagnostic.
    """
    validate_simd_width(f32_lanes, source=source)
    validate_cycle_cost(mac_cycles, what="mac_cycles", source=source)
    validate_cycle_cost(mul_cycles, what="mul_cycles", source=source)
    prefix = f"{source}: " if source else ""
    if isinstance(registers, bool) or not isinstance(registers, int) \
            or registers < 4:
        raise IsaError(f"{prefix}register count must be an integer "
                       f">= 4, got {registers!r}")

    instructions: list[Instruction] = []
    width = f32_lanes
    while width >= 2:
        instructions += make_simd_instruction_set(
            ScalarKind.F32, width, mac_cycles=mac_cycles,
            mul_cycles=mul_cycles)
        instructions += make_simd_instruction_set(
            ScalarKind.I32, width, mac_cycles=mac_cycles,
            mul_cycles=mul_cycles)
        if width // 2 >= 2:
            instructions += make_simd_instruction_set(
                ScalarKind.F64, width // 2, mac_cycles=mac_cycles,
                mul_cycles=mul_cycles)
        if complex_unit and width // 2 >= 2:
            instructions += make_simd_instruction_set(
                ScalarKind.C64, width // 2, load_cycles=2,
                alu_cycles=2, mac_cycles=max(mac_cycles, 2),
                reduce_cycles=3)
        if complex_unit and width // 4 >= 2:
            instructions += make_simd_instruction_set(
                ScalarKind.C128, width // 4, load_cycles=2,
                alu_cycles=2, mac_cycles=max(mac_cycles, 2),
                reduce_cycles=3)
        width //= 2
    if complex_unit:
        instructions += make_complex_instruction_set(
            ScalarKind.C64, mul_cycles=2 * mul_cycles,
            mac_cycles=2 * mac_cycles)
        instructions += make_complex_instruction_set(
            ScalarKind.C128, mul_cycles=2 * mul_cycles,
            mac_cycles=2 * mac_cycles)
    if scalar_mac:
        for elem in (ScalarKind.F32, ScalarKind.F64):
            instructions.append(Instruction(
                name=f"mac_{elem.value}", operation="mac", elem=elem,
                lanes=1, cycles=mac_cycles,
                intrinsic=f"asip_mac_{elem.value}",
                description="scalar fused multiply-accumulate"))
    if clip_unit:
        for elem in (ScalarKind.F32, ScalarKind.F64):
            instructions.append(Instruction(
                name=f"clip_{elem.value}", operation="clip", elem=elem,
                lanes=1, cycles=1,
                intrinsic=f"asip_clip_{elem.value}",
                description="saturate to [lo, hi]"))
    return ProcessorDescription(
        name=name,
        description=(f"DSE candidate: {f32_lanes}x f32 SIMD, "
                     f"complex={complex_unit}, mac={scalar_mac}, "
                     f"clip={clip_unit}, mac_cycles={mac_cycles}, "
                     f"mul_cycles={mul_cycles}, registers={registers}"),
        costs=CostTable(),
        instructions=instructions,
    )


_LIBRARY = {
    "generic_scalar_dsp": generic_scalar_dsp,
    "vliw_simd_dsp": vliw_simd_dsp,
    "wide_simd_dsp": wide_simd_dsp,
}


def available_processors() -> list[str]:
    return sorted(_LIBRARY)


@functools.lru_cache(maxsize=None)
def load_processor(name: str) -> ProcessorDescription:
    """Shipped processor description by name.

    Memoized: descriptions are immutable in practice (the compiler
    never mutates them), and rebuilding the full instruction list on
    every ``compile_source`` call showed up in profiles.  Repeated
    loads return the identical object, so ``processor is processor``
    comparisons and fingerprint caching stay cheap.
    """
    try:
        return _LIBRARY[name]()
    except KeyError:
        raise KeyError(
            f"unknown processor {name!r}; available: "
            f"{', '.join(available_processors())}") from None


def resolve_processor(spec: str) -> ProcessorDescription:
    """Processor spec -> :class:`ProcessorDescription`.

    Accepts a shipped description name (``vliw_simd_dsp``), the
    parametric ``simd_width:N`` family used by the width-sweep
    benchmarks, or a ``dse:{...}`` design-point spec (JSON-encoded
    :class:`~repro.dse.space.DesignPoint` parameters) — the by-value
    form the design-space-exploration engine ships candidates to
    workers in.  Only shipped names are memoized: parametric specs can
    come from untrusted clients, and caching them would let those
    clients grow the cache.

    Raises :class:`~repro.errors.IsaError` (malformed parameter
    values, e.g. SIMD width 0 or a negative cycle cost), ``ValueError``
    (unparseable spec syntax) or ``KeyError`` (unknown shipped name).
    """
    if spec.startswith("simd_width:"):
        text = spec.split(":", 1)[1]
        try:
            width = int(text)
        except ValueError:
            raise IsaError(f"processor spec {spec!r}: SIMD width must "
                           f"be an integer, got {text!r}") from None
        return simd_dsp_with_width(width)
    if spec.startswith("dse:"):
        from repro.dse.space import DesignPoint
        return DesignPoint.from_spec(spec).processor()
    return load_processor(spec)
