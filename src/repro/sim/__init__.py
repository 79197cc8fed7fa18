"""Cycle-accurate IR executors for ASIP cost models.

:mod:`repro.sim.ops` says what every IR operator computes and what
every node costs; two executors apply it with different strategies
and produce identical outputs and cycle reports:

* :class:`~repro.sim.machine.Simulator` — the tree-walking reference
  executor (slow, simple, the ground truth for differential testing);
* :class:`~repro.sim.compiled.CompiledProgram` — a one-time
  translation of the IR into Python functions with per-block batched
  charges, typically several times faster on benchmark workloads.
"""

from repro.sim.compiled import CompiledProgram
from repro.sim.cost import CostModel, CycleReport
from repro.sim.machine import ExecutionResult, Simulator

__all__ = [
    "CompiledProgram",
    "CostModel",
    "CycleReport",
    "ExecutionResult",
    "Simulator",
]
