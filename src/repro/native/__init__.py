"""Native execution tier: run the emitted C in-process via ctypes.

The generated translation unit is compiled once into a
position-independent shared object (behind a content-addressed artifact
cache, so identical (source, compiler, flags) hit disk instead of gcc)
and the entry point is called in-process through a stable C ABI wrapper
with zero-copy numpy views.  Surfaced as
``CompilationResult.simulate(backend="native")`` next to the
tree-walking and compiled-closure simulator backends, and as the fuzz
oracle's gcc engine.  This is the only path that runs emitted C on the
host.

Unlike the two simulator backends, the native tier performs no cycle
accounting — it exists to run the kernel at host-hardware speed; its
:class:`~repro.sim.machine.ExecutionResult` carries an empty
:class:`~repro.sim.cost.CycleReport`.
"""

from repro.native.abi import WRAPPER_SYMBOL, CallPlan, build_plan, wrapper_source
from repro.native.builder import (NativeCache, configure, default_cache,
                                  native_cache_key, stats)
from repro.native.program import NativeProgram

__all__ = [
    "WRAPPER_SYMBOL",
    "CallPlan",
    "NativeCache",
    "NativeProgram",
    "build_plan",
    "configure",
    "default_cache",
    "native_cache_key",
    "stats",
    "wrapper_source",
]
