"""Def/use facts and the shadow-aware liveness rule.

``read_outside`` decides whether a loop's induction variable is live
after the loop.  Both of its callers must agree on two shapes:

* *live*: the variable is read after the loop, so DCE keeps a loop that
  only writes a dead array, and the vectorizer refuses the loop (its
  vector main loop would leave the variable with the wrong value);
* *shadowed*: the only later read sits inside another loop that reuses
  the name as its own induction variable, so DCE deletes the dead loop
  and the vectorizer accepts it.
"""

from repro.asip.isa_library import vliw_simd_dsp
from repro.ir import nodes as ir
from repro.ir.defuse import read_outside, stmt_defs, stmt_uses
from repro.ir.passes.dce import DeadCodeElimination
from repro.ir.types import I32, ArrayType, ScalarKind, ScalarType
from repro.vectorize.simd import SimdVectorizer

F64 = ScalarType(ScalarKind.F64)
N = 16


def _var(name: str) -> ir.VarRef:
    return ir.VarRef(I32, name)


def _two_loops(shadowed: bool) -> ir.IRFunction:
    """``t[i] = x[i] * 2`` over a dead local ``t``, then a read of ``i``.

    The read is ``last = i`` (live) or ``last = last + i`` inside a
    second loop over ``i`` (shadowed); ``last`` is the only output.
    """
    first = ir.ForRange(
        var="i", start=ir.Const(I32, 0), stop=ir.Const(I32, N),
        body=[ir.Store(array="t", index=_var("i"), value=ir.BinOp(
            F64, op="mul", left=ir.Load(F64, array="x", index=_var("i")),
            right=ir.Const(F64, 2.0)))])
    if shadowed:
        later: list[ir.Stmt] = [
            ir.AssignVar("last", ir.Const(I32, 0)),
            ir.ForRange(var="i", start=ir.Const(I32, 0),
                        stop=ir.Const(I32, N),
                        body=[ir.AssignVar("last", ir.BinOp(
                            I32, op="add", left=_var("last"),
                            right=_var("i")))])]
    else:
        later = [ir.AssignVar("last", _var("i"))]
    return ir.IRFunction(
        name="f",
        params=[ir.Param("x", ArrayType(F64, 1, N))],
        outputs=[ir.Param("last", I32, is_output=True)],
        locals={"i": I32, "last": I32, "t": ArrayType(F64, 1, N)},
        body=[first] + later)


def _stores_to_t(func: ir.IRFunction) -> list[ir.Stmt]:
    return [s for s in ir.walk_statements(func.body)
            if isinstance(s, (ir.Store, ir.VecStore)) and s.array == "t"]


def test_read_outside_sees_a_later_read():
    func = _two_loops(shadowed=False)
    assert read_outside(func.body, func.body[0], "i")


def test_read_outside_ignores_a_loop_that_redefines_the_name():
    func = _two_loops(shadowed=True)
    assert not read_outside(func.body, func.body[0], "i")


def test_read_outside_counts_the_redefining_loops_own_bounds():
    func = _two_loops(shadowed=True)
    func.body[2].stop = ir.BinOp(I32, op="add", left=_var("i"),
                                 right=ir.Const(I32, 1))
    assert read_outside(func.body, func.body[0], "i")


def test_dce_keeps_dead_array_loop_whose_variable_is_read_after():
    func = _two_loops(shadowed=False)
    DeadCodeElimination().run(func)
    assert _stores_to_t(func)
    assert "t" in func.locals


def test_dce_deletes_dead_array_loop_when_the_later_read_is_shadowed():
    func = _two_loops(shadowed=True)
    DeadCodeElimination().run(func)
    assert not _stores_to_t(func)
    assert "t" not in func.locals
    # The redefining loop writes the output and stays.
    assert isinstance(func.body[-1], ir.ForRange)


def test_vectorizer_refuses_loop_whose_variable_is_read_after():
    func = _two_loops(shadowed=False)
    SimdVectorizer(vliw_simd_dsp()).run(func)
    assert not any(isinstance(s, ir.VecStore) for s in _stores_to_t(func))


def test_vectorizer_accepts_loop_when_the_later_read_is_shadowed():
    func = _two_loops(shadowed=True)
    SimdVectorizer(vliw_simd_dsp()).run(func)
    assert any(isinstance(s, ir.VecStore) for s in _stores_to_t(func))


def test_call_results_count_as_both_kinds():
    call = ir.Call(callee="g", args=[_var("n"), "a"], results=["r", "b"])
    assert stmt_defs(call) == ({"r", "b"}, {"r", "b"})
    assert stmt_uses(call) == ({"n"}, {"a"})


def test_copy_array_defines_dst_and_reads_src():
    copy = ir.CopyArray(dst="d", src="s")
    assert stmt_defs(copy) == (set(), {"d"})
    assert stmt_uses(copy) == (set(), {"s"})
