"""Unit tests for the IR optimization passes.

Each pass is tested both structurally (the rewrite happened) and
semantically (simulated results are unchanged), using small MATLAB
programs lowered through the real pipeline.
"""

import numpy as np

from repro.asip.isa_library import generic_scalar_dsp
from repro.frontend.parser import parse
from repro.ir import nodes as ir
from repro.ir.builder import lower_program
from repro.ir.passes.constant_folding import ConstantFolding
from repro.ir.passes.cse import CommonSubexpressionElimination
from repro.ir.passes.dce import DeadCodeElimination
from repro.ir.passes.licm import LoopInvariantCodeMotion
from repro.ir.passes.loop_fusion import LoopFusion
from repro.ir.passes.manager import PassManager, cleanup_pipeline, \
    minimal_pipeline, standard_pipeline
from repro.ir.passes.propagation import ConstantPropagation
from repro.ir.printer import format_module
from repro.ir.types import I32, ScalarKind, ScalarType
from repro.ir.verifier import verify_module
from repro.semantics.inference import specialize_program
from repro.semantics.shapes import Shape
from repro.semantics.types import DType, MType
from repro.sim.machine import Simulator

F64 = ScalarType(ScalarKind.F64)


def build(source: str, entry: str, args):
    sprog = specialize_program(parse(source), entry, args)
    return lower_program(sprog, mode="fused")


def row(n: int) -> MType:
    return MType(DType.DOUBLE, False, Shape(1, n))


def run_module(module, inputs):
    return Simulator(module, generic_scalar_dsp()).run(list(inputs))


def assert_semantics_preserved(source, entry, args, inputs, pipeline):
    reference = build(source, entry, args)
    optimized = build(source, entry, args)
    pipeline.run(optimized)
    verify_module(optimized)
    ref_out = run_module(reference, inputs).outputs
    opt_out = run_module(optimized, inputs).outputs
    for expected, actual in zip(ref_out, opt_out):
        assert np.allclose(np.asarray(actual), np.asarray(expected))
    return optimized


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------


def fold_expr(expr: ir.Expr) -> ir.Expr:
    func = ir.IRFunction(name="t", locals={"v": F64, "i": I32},
                         body=[ir.AssignVar("v", expr)])
    ConstantFolding().run(func)
    return func.body[0].value


def test_fold_constant_arithmetic():
    expr = ir.BinOp(F64, op="add", left=ir.Const(F64, 2.0),
                    right=ir.Const(F64, 3.0))
    assert fold_expr(expr).value == 5.0


def test_fold_add_zero_identity():
    expr = ir.BinOp(F64, op="add", left=ir.VarRef(F64, "v"),
                    right=ir.Const(F64, 0.0))
    folded = fold_expr(expr)
    assert isinstance(folded, ir.VarRef)


def test_fold_mul_one_identity():
    expr = ir.BinOp(F64, op="mul", left=ir.Const(F64, 1.0),
                    right=ir.VarRef(F64, "v"))
    assert isinstance(fold_expr(expr), ir.VarRef)


def test_no_mul_zero_fold_for_floats():
    # 0 * NaN must stay NaN, so x*0 is not folded for floats.
    expr = ir.BinOp(F64, op="mul", left=ir.VarRef(F64, "v"),
                    right=ir.Const(F64, 0.0))
    assert isinstance(fold_expr(expr), ir.BinOp)


def test_mul_zero_folds_for_integers():
    expr = ir.BinOp(I32, op="mul", left=ir.VarRef(I32, "i"),
                    right=ir.Const(I32, 0))
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    assert isinstance(func.body[0].value, ir.Const)


def test_cast_roundtrip_removed():
    inner = ir.Cast(F64, operand=ir.VarRef(I32, "i"))
    expr = ir.Cast(I32, operand=inner)
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    assert isinstance(func.body[0].value, ir.VarRef)


def test_cast_narrowing_of_index_arithmetic():
    # cast<i32>(cast<f64>(i) + 1.0) -> i + 1
    inner = ir.BinOp(F64, op="add",
                     left=ir.Cast(F64, operand=ir.VarRef(I32, "i")),
                     right=ir.Const(F64, 1.0))
    expr = ir.Cast(I32, operand=inner)
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    value = func.body[0].value
    assert isinstance(value, ir.BinOp) and value.type == I32


def test_reassociation_of_integer_offsets():
    # (i + 2) - 1 -> i + 1
    expr = ir.BinOp(I32, op="sub",
                    left=ir.BinOp(I32, op="add", left=ir.VarRef(I32, "i"),
                                  right=ir.Const(I32, 2)),
                    right=ir.Const(I32, 1))
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    value = func.body[0].value
    assert isinstance(value, ir.BinOp)
    assert isinstance(value.right, ir.Const) and value.right.value == 1


def test_dead_if_branch_removed():
    stmt = ir.If(condition=ir.Const(ScalarType(ScalarKind.BOOL), False),
                 then_body=[ir.AssignVar("v", ir.Const(F64, 1.0))],
                 else_body=[ir.AssignVar("v", ir.Const(F64, 2.0))])
    func = ir.IRFunction(name="t", locals={"v": F64}, body=[stmt])
    ConstantFolding().run(func)
    assert isinstance(func.body[0], ir.AssignVar)
    assert func.body[0].value.value == 2.0


def test_zero_trip_loop_removed():
    loop = ir.ForRange(var="i", start=ir.Const(I32, 5),
                       stop=ir.Const(I32, 5), step=1,
                       body=[ir.AssignVar("v", ir.Const(F64, 1.0))])
    func = ir.IRFunction(name="t", locals={"v": F64, "i": I32}, body=[loop])
    ConstantFolding().run(func)
    assert func.body == []


def test_fold_comparison_to_bool():
    expr = ir.BinOp(ScalarType(ScalarKind.BOOL), op="lt",
                    left=ir.Const(F64, 1.0), right=ir.Const(F64, 2.0))
    func = ir.IRFunction(name="t", locals={"b": ScalarType(ScalarKind.BOOL)},
                         body=[ir.AssignVar("b", expr)])
    ConstantFolding().run(func)
    assert func.body[0].value.value is True


def test_double_negation_removed():
    expr = ir.UnOp(F64, op="neg",
                   operand=ir.UnOp(F64, op="neg",
                                   operand=ir.VarRef(F64, "v")))
    assert isinstance(fold_expr(expr), ir.VarRef)


def test_math_call_folding():
    expr = ir.MathCall(F64, name="sqrt", args=[ir.Const(F64, 16.0)])
    assert fold_expr(expr).value == 4.0


# ----------------------------------------------------------------------
# Constant propagation
# ----------------------------------------------------------------------


def test_propagation_through_straight_line():
    src = "function y = f(x)\nn = 3;\nm = n + 1;\ny = x * m;\nend"
    module = build(src, "f", [MType.double()])
    PassManager([ConstantPropagation(), ConstantFolding()]).run(module)
    text = format_module(module)
    assert "4.0" in text


def test_propagation_killed_by_loop_assignment():
    src = """
function y = f(x)
s = 1;
for k = 1:3
    s = s * x;
end
y = s;
end
"""
    assert_semantics_preserved(src, "f", [MType.double()], [2.0],
                               PassManager([ConstantPropagation(),
                                            ConstantFolding()]))


def test_while_condition_not_constant_folded():
    # Regression: substituting the pre-loop constant into a while
    # condition whose variable the body changes caused out-of-bounds
    # butterfly indices in the FFT.
    src = """
function y = f(x)
n = 1;
y = 0;
while n < x
    y = y + n;
    n = n * 2;
end
end
"""
    assert_semantics_preserved(src, "f", [MType.double()], [100.0],
                               PassManager([ConstantPropagation(),
                                            ConstantFolding()]))


def test_propagation_branch_kill():
    src = """
function y = f(c)
v = 5;
if c > 0
    v = 6;
end
y = v;
end
"""
    module = assert_semantics_preserved(
        src, "f", [MType.double()], [1.0],
        PassManager([ConstantPropagation(), ConstantFolding()]))
    # v after the if must NOT have been replaced by 5.
    result = run_module(module, [1.0]).outputs[0]
    assert result == 6.0


# ----------------------------------------------------------------------
# DCE
# ----------------------------------------------------------------------


def test_dce_removes_dead_scalar():
    src = "function y = f(x)\ndead = x * 3;\ny = x + 1;\nend"
    module = build(src, "f", [MType.double()])
    DeadCodeElimination().run(module.functions[0])
    text = format_module(module)
    assert "dead" not in text


def test_dce_removes_dead_array_loop():
    src = """
function y = f(x)
tmp = zeros(1, 4);
for k = 1:4
    tmp(k) = x;
end
y = x;
end
"""
    module = build(src, "f", [MType.double()])
    PassManager([DeadCodeElimination()]).run(module)
    loops = [s for s in ir.walk_statements(module.entry_function.body)
             if isinstance(s, ir.ForRange)]
    assert loops == []
    assert "tmp" not in module.entry_function.locals


def test_dce_keeps_outputs_and_emits():
    src = "function y = f(x)\ny = x;\nfprintf('hi\\n');\nend"
    module = build(src, "f", [MType.double()])
    DeadCodeElimination().run(module.functions[0])
    assert any(isinstance(s, ir.Emit)
               for s in ir.walk_statements(module.entry_function.body))


def test_dce_iterates_through_chains():
    src = "function y = f(x)\na = x + 1;\nb = a * 2;\nc = b - 3;\ny = x;\nend"
    module = build(src, "f", [MType.double()])
    PassManager([DeadCodeElimination()]).run(module)
    assigns = [s for s in ir.walk_statements(module.entry_function.body)
               if isinstance(s, ir.AssignVar)]
    assert len(assigns) == 1  # only y


# ----------------------------------------------------------------------
# CSE
# ----------------------------------------------------------------------


def test_cse_dedups_repeated_index():
    i = ir.VarRef(I32, "i")
    index = ir.BinOp(I32, op="add", left=i, right=ir.Const(I32, 4))
    load = ir.Load(F64, array="a", index=index)
    index2 = ir.BinOp(I32, op="add", left=ir.VarRef(I32, "i"),
                      right=ir.Const(I32, 4))
    store = ir.Store(array="a", index=index2,
                     value=ir.BinOp(F64, op="add", left=load,
                                    right=ir.Const(F64, 1.0)))
    func = ir.IRFunction(
        name="t", locals={"i": I32},
        body=[store])
    func.declare("a", None)  # replaced below with a proper array type
    from repro.ir.types import ArrayType
    func.locals["a"] = ArrayType(F64, 1, 16)
    changed = CommonSubexpressionElimination().run(func)
    assert changed
    assert isinstance(func.body[0], ir.AssignVar)  # the cse temp
    assert func.body[0].name.startswith("cse")


def test_cse_semantics_on_matmul():
    src = "function C = f(A, B)\nC = A * B;\nend"
    args = [MType(DType.DOUBLE, False, Shape(3, 3)),
            MType(DType.DOUBLE, False, Shape(3, 3))]
    a = np.arange(9.0).reshape(3, 3)
    b = np.arange(9.0, 18.0).reshape(3, 3)
    module = assert_semantics_preserved(
        "function C = f(A, B)\nC = A * B;\nend", "f", args, [a, b],
        cleanup_pipeline())


def test_cse_does_not_touch_loads():
    # Loads are not CSE candidates (stores could intervene).
    from repro.ir.types import ArrayType
    load1 = ir.Load(F64, array="a", index=ir.Const(I32, 0))
    load2 = ir.Load(F64, array="a", index=ir.Const(I32, 0))
    value = ir.BinOp(F64, op="add", left=load1, right=load2)
    func = ir.IRFunction(name="t",
                         locals={"v": F64, "a": ArrayType(F64, 1, 4)},
                         body=[ir.AssignVar("v", value)])
    CommonSubexpressionElimination().run(func)
    assert isinstance(func.body[0].value, ir.BinOp)


_QR_GS_C_SOURCE = """
import sys
from pathlib import Path
sys.path.insert(0, str(Path.cwd() / "benchmarks"))
from repro.compiler import compile_source
from workloads import workload_by_name
w = workload_by_name("qr_gs")
result = compile_source(w.source, args=w.arg_types, entry=w.entry,
                        use_cache=False)
sys.stdout.write(result.c_source())
"""


def test_cse_temporaries_do_not_depend_on_hash_seed():
    # CSE used to number its temporaries in set-iteration order, so
    # qr_gs's C changed with PYTHONHASHSEED (and missed the .so cache
    # after every process restart).
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sources = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _QR_GS_C_SOURCE],
                              cwd=root, env=env, capture_output=True,
                              text=True, check=True)
        sources.append(proc.stdout)
    assert "cse" in sources[0]
    assert sources[0] == sources[1]


# ----------------------------------------------------------------------
# LICM
# ----------------------------------------------------------------------


def test_licm_hoists_invariant_prefix():
    body = [
        ir.AssignVar("inv", ir.BinOp(F64, op="mul",
                                     left=ir.VarRef(F64, "x"),
                                     right=ir.Const(F64, 2.0))),
        ir.AssignVar("acc", ir.BinOp(F64, op="add",
                                     left=ir.VarRef(F64, "acc"),
                                     right=ir.VarRef(F64, "inv"))),
    ]
    loop = ir.ForRange(var="i", start=ir.Const(I32, 0),
                       stop=ir.Const(I32, 8), step=1, body=body)
    func = ir.IRFunction(name="t",
                         locals={"i": I32, "x": F64, "inv": F64,
                                 "acc": F64},
                         body=[ir.AssignVar("acc", ir.Const(F64, 0.0)),
                               loop])
    assert LoopInvariantCodeMotion().run(func)
    assert isinstance(func.body[1], ir.AssignVar)
    assert func.body[1].name == "inv"
    assert len(loop.body) == 1


def test_licm_skips_possibly_zero_trip_loops():
    body = [ir.AssignVar("inv", ir.Const(F64, 1.0))]
    loop = ir.ForRange(var="i", start=ir.Const(I32, 0),
                       stop=ir.VarRef(I32, "n"), step=1, body=list(body))
    func = ir.IRFunction(name="t", locals={"i": I32, "n": I32, "inv": F64},
                         body=[loop])
    assert not LoopInvariantCodeMotion().run(func)


def test_licm_skips_variant_values():
    body = [ir.AssignVar("v", ir.Cast(F64, operand=ir.VarRef(I32, "i")))]
    loop = ir.ForRange(var="i", start=ir.Const(I32, 0),
                       stop=ir.Const(I32, 8), step=1, body=list(body))
    func = ir.IRFunction(name="t", locals={"i": I32, "v": F64}, body=[loop])
    assert not LoopInvariantCodeMotion().run(func)


# ----------------------------------------------------------------------
# Loop fusion
# ----------------------------------------------------------------------


def test_fusion_of_elementwise_chain():
    src = """
function y = f(a, b)
t = a .* b;
y = t + a;
end
"""
    module = build(src, "f", [row(8), row(8)])
    PassManager([LoopFusion()]).run(module)
    loops = [s for s in ir.walk_statements(module.entry_function.body)
             if isinstance(s, ir.ForRange)]
    assert len(loops) == 1


def test_fusion_semantics():
    src = """
function y = f(a, b)
t = a .* b;
u = t + a;
y = u ./ 2;
end
"""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 8))
    b = rng.standard_normal((1, 8))
    assert_semantics_preserved(src, "f", [row(8), row(8)], [a, b],
                               PassManager([LoopFusion()]))


def test_fusion_rejects_different_bounds():
    src = """
function [y, z] = f(a, b)
y = a + 1;
z = b + 1;
end
"""
    module = build(src, "f", [row(8), row(5)])
    changed = LoopFusion().run(module.entry_function)
    assert not changed


def test_fusion_rejects_scalar_flow():
    # Loop 1 computes a scalar the second loop reads: order matters.
    body1 = [ir.AssignVar("s", ir.Load(F64, array="a",
                                       index=ir.VarRef(I32, "i")))]
    body2 = [ir.Store(array="b", index=ir.VarRef(I32, "j"),
                      value=ir.VarRef(F64, "s"))]
    from repro.ir.types import ArrayType
    loop1 = ir.ForRange(var="i", start=ir.Const(I32, 0),
                        stop=ir.Const(I32, 4), step=1, body=body1)
    loop2 = ir.ForRange(var="j", start=ir.Const(I32, 0),
                        stop=ir.Const(I32, 4), step=1, body=body2)
    func = ir.IRFunction(name="t",
                         locals={"i": I32, "j": I32, "s": F64,
                                 "a": ArrayType(F64, 1, 4),
                                 "b": ArrayType(F64, 1, 4)},
                         body=[loop1, loop2])
    assert not LoopFusion().run(func)


def test_fusion_rejects_offset_dependence():
    # Loop 2 reads a[i+1] which loop 1 writes: not element-wise aligned.
    from repro.ir.types import ArrayType
    loop1 = ir.ForRange(
        var="i", start=ir.Const(I32, 0), stop=ir.Const(I32, 4), step=1,
        body=[ir.Store(array="a", index=ir.VarRef(I32, "i"),
                       value=ir.Const(F64, 1.0))])
    shifted = ir.BinOp(I32, op="add", left=ir.VarRef(I32, "j"),
                       right=ir.Const(I32, 1))
    loop2 = ir.ForRange(
        var="j", start=ir.Const(I32, 0), stop=ir.Const(I32, 4), step=1,
        body=[ir.Store(array="b", index=ir.VarRef(I32, "j"),
                       value=ir.Load(F64, array="a", index=shifted))])
    func = ir.IRFunction(name="t",
                         locals={"i": I32, "j": I32,
                                 "a": ArrayType(F64, 1, 8),
                                 "b": ArrayType(F64, 1, 8)},
                         body=[loop1, loop2])
    assert not LoopFusion().run(func)


# ----------------------------------------------------------------------
# Whole pipelines
# ----------------------------------------------------------------------


def test_standard_pipeline_preserves_fir():
    src = (Path := __import__("pathlib").Path)(
        "examples/mlab/fir.m").read_text()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 32))
    h = rng.standard_normal((1, 8))
    assert_semantics_preserved(src, "fir", [row(32), row(8)], [x, h],
                               standard_pipeline())


def test_minimal_pipeline_runs():
    src = "function y = f(x)\ny = x * (2 + 3);\nend"
    module = build(src, "f", [MType.double()])
    minimal_pipeline().run(module)
    assert run_module(module, [4.0]).outputs[0] == 20.0


def test_pass_manager_reports_stats():
    src = "function y = f(x)\nn = 1 + 1;\ny = x * n;\nend"
    module = build(src, "f", [MType.double()])
    stats = standard_pipeline().run(module)
    assert stats  # at least one pass did something


def test_licm_does_not_hoist_self_accumulation():
    """Regression: acc = acc + invariant inside a loop is NOT invariant
    (hoisting it collapsed pure scalar accumulation loops)."""
    src = """
function acc = f(v)
acc = 0;
for k = 1:3
    acc = acc + v / 3;
end
end
"""
    module = assert_semantics_preserved(src, "f", [MType.double()], [3.0],
                                        standard_pipeline())
    assert abs(run_module(module, [3.0]).outputs[0] - 3.0) < 1e-12
