"""Deterministic input generation for simulation runs.

One seed, one entry signature -> one input vector, bit-identical on
every host and in every process.  Shared by ``repro-mc --simulate``,
the service workers (``CompileJob.simulate_seed``), and the
design-space-exploration engine, whose seed-determinism contract
(same seed => byte-identical Pareto front at ``--jobs 1`` and
``--jobs 8``) leans on this: every worker that simulates a kernel
must feed it exactly the same numbers.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.ir.types import ArrayType
from repro.sim.ops import numpy_dtype


def mix_seed(seed: int, label: str) -> int:
    """Stable per-label derivation of a sub-seed from a run seed.

    ``zlib.crc32`` rather than ``hash()``: the latter is salted per
    process (PYTHONHASHSEED), which would break cross-process
    determinism.
    """
    return (int(seed) ^ zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF


def random_inputs(entry_function, seed: int) -> list:
    """Deterministic random inputs matching an entry's parameter types.

    Arrays are standard-normal draws in the parameter's dtype (complex
    kinds get independent real/imaginary draws); scalars are a single
    float draw.  Draw order is the parameter order, so the vector is a
    pure function of ``(signature, seed)``.
    """
    rng = np.random.default_rng(seed)
    inputs = []
    for param in entry_function.params:
        if isinstance(param.type, ArrayType):
            data = rng.standard_normal(param.type.numel)
            if param.type.elem.is_complex:
                data = data + 1j * rng.standard_normal(param.type.numel)
            inputs.append(data.astype(numpy_dtype(param.type.elem.kind)))
        else:
            inputs.append(float(rng.standard_normal()))
    return inputs
