"""Unit tests for the ANSI C backend and host round trips of its output."""

import ctypes
import hashlib
import subprocess

import numpy as np
import pytest

from repro.asip.header_gen import generate_header, vector_type_name
from repro.asip.isa_library import load_processor, vliw_simd_dsp
from repro.asip.model import (KNOWN_OPERATIONS, Instruction,
                              ProcessorDescription)
from repro.compiler import CompilerOptions, arg, compile_source
from repro.ir.types import ScalarKind
from repro.native.builder import STRICT_FLAGS

from helpers import requires_gcc


def c_of(source, args, **kw):
    return compile_source(source, args=args, **kw).c_source()


# ----------------------------------------------------------------------
# Header generation
# ----------------------------------------------------------------------


def test_header_contains_all_intrinsics():
    processor = vliw_simd_dsp()
    header = generate_header(processor)
    for instr in processor.instructions:
        assert instr.intrinsic in header, instr.intrinsic


def test_header_vector_typedefs():
    header = generate_header(vliw_simd_dsp())
    assert "typedef struct { float v[8]; } asip_v8f32;" in header
    assert "typedef struct { double v[4]; } asip_v4f64;" in header
    assert "asip_v2c128" in header


def test_header_complex_helpers():
    header = generate_header(vliw_simd_dsp())
    for helper in ("asip_c128_mul", "asip_c128_div", "asip_c64_conj",
                   "asip_round", "asip_mod"):
        assert helper in header


def test_vector_type_name():
    assert vector_type_name(ScalarKind.F32, 8) == "asip_v8f32"
    assert vector_type_name(ScalarKind.C128, 2) == "asip_v2c128"


#: Operations defined only on complex / only on real element kinds;
#: every other operation is defined on all eight kinds.
_COMPLEX_ONLY = {"cadd", "csub", "cmul", "cmac", "cconj", "cmag2", "vconj"}
_REAL_ONLY = {"mac", "clip", "vmin", "vmax", "vabs", "vredmin", "vredmax"}


def all_operations_processor() -> ProcessorDescription:
    """Every operation on every element kind it is defined on: lanes 4
    for the ``v*`` operations, 1 for the scalar ones."""
    instructions = []
    for operation in sorted(KNOWN_OPERATIONS):
        for kind in ScalarKind:
            if kind.is_complex and operation in _REAL_ONLY or \
                    not kind.is_complex and operation in _COMPLEX_ONLY:
                continue
            instructions.append(Instruction(
                name=f"{operation}_{kind.value}", operation=operation,
                elem=kind, lanes=4 if operation.startswith("v") else 1,
                cycles=1, intrinsic=f"asip_{operation}_{kind.value}",
                description=f"{operation} on {kind.value}"))
    return ProcessorDescription(name="all_operations",
                                description="every operation x kind",
                                instructions=instructions)


#: sha256 of ``generate_header`` per processor.  The header is part of
#: every emitted translation unit, so any byte it changes must be a
#: deliberate, reviewed update of these digests.
_HEADER_SHA256 = {
    "all_operations":
        "b54414ca681c7b6286ba2586e77123a4e2c4280155799ebc4e09746b7016edfc",
    "generic_scalar_dsp":
        "def5972c5a1dbd3b102d36235057cdab09df9cdeb2057219516b6d1d75bf0db7",
    "vliw_simd_dsp":
        "47a0712868fa75339ea9a28975ed5804530e43be14f45392024cbda9b5191d02",
    "wide_simd_dsp":
        "34ebd5b68adcbdc548105db22ceaa5ee07fde458923cb4d55fccd9fda8494209",
}


def _processor_named(name: str) -> ProcessorDescription:
    if name == "all_operations":
        return all_operations_processor()
    return load_processor(name)


def test_all_operations_processor_covers_every_pair():
    assert len(all_operations_processor().instructions) == 144


@pytest.mark.parametrize("name", sorted(_HEADER_SHA256))
def test_header_bytes_pinned(name):
    header = generate_header(_processor_named(name))
    digest = hashlib.sha256(header.encode("utf-8")).hexdigest()
    assert digest == _HEADER_SHA256[name]


@requires_gcc
def test_all_operations_header_is_strict_ansi(tmp_path):
    path = tmp_path / "intrinsics.c"
    path.write_text(generate_header(all_operations_processor()))
    proc = subprocess.run(
        ["gcc", *STRICT_FLAGS, "-c", str(path), "-o",
         str(tmp_path / "intrinsics.o")],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# ----------------------------------------------------------------------
# Emitted C structure
# ----------------------------------------------------------------------


def test_entry_signature_shape():
    text = c_of("function [s, y] = f(x)\ns = sum(x);\ny = x .* 2;\nend",
                [arg((1, 6))])
    assert "void f_double_1x6(const double *x, double *y, " \
           "double *out_s)" in text or \
           "void f_double_1x6(const double *x, " in text
    assert "*out_s = s;" in text


def test_static_helpers_entry_public():
    # Inlining is pinned off so the callee survives as a function.
    text = c_of("function y = f(x)\ny = conv(x, x);\nend", [arg((1, 4))],
                options=CompilerOptions(inline=False))
    assert "static void conv_" in text
    assert "\nvoid f_double_1x4(" in text


def test_single_site_library_call_is_inlined():
    text = c_of("function y = f(x)\ny = conv(x, x);\nend", [arg((1, 4))])
    assert "static void conv_" not in text  # merged into the caller


def test_intrinsic_calls_in_output():
    text = c_of("""
function s = f(a, b)
s = 0;
for k = 1:32
    s = s + a(k) * b(k);
end
end
""", [arg((1, 32)), arg((1, 32))])
    assert "asip_vmac_f64x4(" in text
    assert "asip_vredadd_f64x4(" in text


def test_complex_arrays_use_struct_type():
    text = c_of("function y = f(z)\ny = z .* z;\nend",
                [arg((1, 4), complex=True)])
    assert "const asip_c128 *z" in text


def test_loop_syntax():
    text = c_of("""
function y = f(x)
y = zeros(1, 9);
for k = 1:9
    y(k) = x(k);
end
end
""", [arg((1, 9))], options=CompilerOptions(simd=False))
    assert "for (k = 1; k < 10; ++k)" in text


def test_float_literals_have_decimal_points():
    text = c_of("function y = f(x)\ny = x + 3;\nend", [arg()])
    assert "3.0" in text


def test_memset_initialization_of_locals():
    text = c_of("function y = f(x)\nt = x .* 2;\ny = t + 1;\nend",
                [arg((1, 4))], options=CompilerOptions.baseline())
    assert "memset(" in text


def test_printf_for_fprintf():
    text = c_of("function f(x)\nfprintf('x=%g\\n', x);\nend", [arg()])
    assert 'printf("x=%g\\n", ' in text


def test_single_precision_types_and_suffix():
    text = c_of("function y = f(x)\ny = x .* 0.5;\nend",
                [arg((1, 4), dtype="single")])
    assert "const float *x" in text
    assert "0.5f" in text


# ----------------------------------------------------------------------
# Host compilation round trips
# ----------------------------------------------------------------------


@requires_gcc
def test_gcc_strict_ansi_accepts_output():
    result = compile_source("""
function y = f(x, h)
y = conv(x, h);
end
""", args=[arg((1, 16)), arg((1, 4))])
    rng = np.random.default_rng(0)
    x, h = rng.standard_normal((1, 16)), rng.standard_normal((1, 4))
    outputs = result.native_program().run([x, h]).outputs
    expected = np.convolve(x.ravel(), h.ravel()).reshape(1, -1)
    assert np.allclose(outputs[0], expected)


@requires_gcc
def test_gcc_complex_roundtrip():
    result = compile_source("""
function [s, y] = f(a, b)
s = 0;
y = complex(zeros(1, 8), zeros(1, 8));
for k = 1:8
    y(k) = conj(a(k)) * b(k);
    s = s + y(k);
end
end
""", args=[arg((1, 8), complex=True), arg((1, 8), complex=True)])
    rng = np.random.default_rng(1)
    a = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    b = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    outputs = result.native_program().run([a, b]).outputs
    expected = np.conj(a) * b
    assert np.allclose(outputs[1], expected)
    assert abs(outputs[0] - expected.sum()) < 1e-9


@requires_gcc
def test_gcc_scalar_and_io(capfd):
    result = compile_source("""
function y = f(x)
fprintf('working on %g\\n', x);
y = x * 2;
end
""", args=[arg()])
    outputs = result.native_program().run([21.0]).outputs
    # The kernel prints through the host C stdio buffer; flush it so the
    # line reaches the captured file descriptor.
    ctypes.CDLL(None).fflush(None)
    assert outputs == [42.0]
    assert "working on 21\n" in capfd.readouterr().out


@requires_gcc
def test_gcc_reserved_identifier_program():
    result = compile_source(
        "function y = f(register, int)\ny = register + int;\nend",
        args=[arg(), arg()])
    outputs = result.native_program().run([1.0, 2.0]).outputs
    assert outputs[0] == 3.0


def test_compile_failure_reported(tmp_path):
    """A compiler that dies mid-build leaves the native cache empty."""
    from repro.errors import BackendError
    from repro.native import NativeCache, NativeProgram
    result = compile_source("function y = f(x)\ny = x;\nend", args=[arg()])
    cc = tmp_path / "broken-cc"
    cc.write_text('#!/bin/sh\n'
                  'while [ $# -gt 0 ]; do\n'
                  '    if [ "$1" = -o ]; then echo garbage > "$2"; fi\n'
                  '    shift\n'
                  'done\n'
                  'echo "internal compiler error" >&2\n'
                  'exit 1\n')
    cc.chmod(0o755)
    cache = NativeCache(cache_dir=tmp_path / "so")
    with pytest.raises(BackendError, match="build failed"):
        NativeProgram(result.module, result.processor, cc=str(cc),
                      cache=cache)
    assert cache.stats()["build_errors"] == 1
    assert [p for p in (tmp_path / "so").rglob("*") if p.is_file()] == []
