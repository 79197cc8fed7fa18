"""Unit tests for the parameterized processor model and ISA library."""

from pathlib import Path

import pytest

from repro.asip.isa_library import (
    available_processors,
    generic_scalar_dsp,
    load_processor,
    simd_dsp_with_width,
    vliw_simd_dsp,
    wide_simd_dsp,
)
from repro.asip.model import (
    CostTable,
    Instruction,
    ProcessorDescription,
    make_complex_instruction_set,
    make_simd_instruction_set,
)
from repro.dse.space import load_space
from repro.errors import IsaError
from repro.ir.types import ScalarKind

ROOT = Path(__file__).resolve().parent.parent


def test_instruction_validation_unknown_operation():
    with pytest.raises(IsaError, match="unknown operation"):
        Instruction(name="x", operation="warp_drive",
                    elem=ScalarKind.F64, lanes=4, cycles=1, intrinsic="i")


def test_instruction_validation_bad_lanes_and_cycles():
    with pytest.raises(IsaError, match="lanes"):
        Instruction(name="x", operation="vadd", elem=ScalarKind.F64,
                    lanes=0, cycles=1, intrinsic="i")
    with pytest.raises(IsaError, match="cycles"):
        Instruction(name="x", operation="vadd", elem=ScalarKind.F64,
                    lanes=4, cycles=0, intrinsic="i")


@pytest.mark.parametrize("operation, elem", [
    ("cadd", ScalarKind.F64), ("cmag2", ScalarKind.F32),
    ("vconj", ScalarKind.F64), ("vmin", ScalarKind.C128),
    ("vabs", ScalarKind.C64), ("vredmax", ScalarKind.C128),
    ("mac", ScalarKind.C128), ("clip", ScalarKind.C64),
])
def test_instruction_rejects_undefined_element_kind(operation, elem):
    # Accepting these would render C that does not compile (cadd on a
    # double) or leave the intrinsic out of the header altogether.
    with pytest.raises(IsaError, match="not defined on"):
        Instruction(name="x", operation=operation, elem=elem,
                    lanes=4 if operation.startswith("v") else 1,
                    cycles=1, intrinsic="i")


@pytest.mark.parametrize("space", [
    "default", "benchmarks/dse_smoke_space.json", "perfbench/dse_space.json",
])
def test_every_design_point_constructs(space):
    if space != "default":
        space = str(ROOT / space)
    points = load_space(space).enumerate()
    assert points
    for point in points:
        assert isinstance(point.processor(), ProcessorDescription)


def test_duplicate_instruction_rejected():
    instr = Instruction(name="dup", operation="vadd", elem=ScalarKind.F64,
                        lanes=4, cycles=1, intrinsic="i")
    with pytest.raises(IsaError, match="duplicate"):
        ProcessorDescription(name="p", instructions=[instr, instr])


def test_find_exact_match():
    processor = vliw_simd_dsp()
    instr = processor.find("vmac", ScalarKind.F32, 8)
    assert instr is not None and instr.intrinsic == "asip_vmac_f32x8"
    assert processor.find("vmac", ScalarKind.F32, 16) is None


def test_simd_lanes_requires_complete_group():
    # A width with only an add instruction is not usable.
    partial = [Instruction(name="lonely", operation="vadd",
                           elem=ScalarKind.F64, lanes=16, cycles=1,
                           intrinsic="i")]
    processor = ProcessorDescription(
        name="p", instructions=partial +
        make_simd_instruction_set(ScalarKind.F64, 4))
    assert processor.simd_lanes(ScalarKind.F64) == [4]


def test_best_simd_width_widest_first():
    processor = wide_simd_dsp()
    assert processor.best_simd_width(ScalarKind.F64) == 8
    assert processor.simd_lanes(ScalarKind.F64) == [8, 4]


def test_has_complex_arith():
    assert vliw_simd_dsp().has_complex_arith(ScalarKind.C128)
    assert not generic_scalar_dsp().has_complex_arith(ScalarKind.C128)
    assert not vliw_simd_dsp().has_complex_arith(ScalarKind.F64)


def test_make_simd_set_contents():
    group = make_simd_instruction_set(ScalarKind.F32, 8)
    operations = {i.operation for i in group}
    assert {"vload", "vloadr", "vstore", "vadd", "vmul", "vmac",
            "vsplat", "vredadd"} <= operations
    assert all(i.lanes == 8 and i.elem is ScalarKind.F32 for i in group)


def test_make_simd_set_complex_includes_vconj():
    group = make_simd_instruction_set(ScalarKind.C128, 2)
    assert any(i.operation == "vconj" for i in group)
    real_group = make_simd_instruction_set(ScalarKind.F64, 4)
    assert not any(i.operation == "vconj" for i in real_group)


def test_make_complex_set():
    group = make_complex_instruction_set(ScalarKind.C64)
    assert {i.operation for i in group} == \
        {"cadd", "csub", "cmul", "cmac", "cconj", "cmag2"}
    with pytest.raises(IsaError, match="complex"):
        make_complex_instruction_set(ScalarKind.F64)


def test_cost_table_defaults_and_lookup():
    costs = CostTable()
    assert costs.for_binop("add") == costs.add
    assert costs.for_binop("div") == costs.div
    assert costs.for_binop("pow") == costs.pow
    assert costs.for_binop("eq") == costs.compare
    assert costs.for_math("sqrt") == costs.sqrt
    assert costs.for_math("sin") == costs.math_call
    assert costs.for_math("floor") == costs.add


def test_library_names_and_loading():
    names = available_processors()
    assert names == sorted(names)
    for name in names:
        processor = load_processor(name)
        assert processor.name == name


def test_unknown_processor_message_lists_options():
    with pytest.raises(KeyError, match="available"):
        load_processor("nonexistent")


def test_summary_mentions_instructions():
    text = vliw_simd_dsp().summary()
    assert "vmac" in text and "asip_" in text


def test_parametric_family_widths():
    processor = simd_dsp_with_width(8)
    assert processor.simd_lanes(ScalarKind.F64) == [8, 4, 2]
    assert processor.simd_lanes(ScalarKind.F32) == [16, 8, 4]


def test_instruction_by_name():
    processor = vliw_simd_dsp()
    assert processor.instruction_by_name("mac_f64") is not None
    assert processor.instruction_by_name("nope") is None


def test_instruction_flags():
    simd = make_simd_instruction_set(ScalarKind.F64, 4)[0]
    assert simd.is_simd and not simd.is_complex
    cplx = make_complex_instruction_set(ScalarKind.C128)[0]
    assert cplx.is_complex and not cplx.is_simd
