"""Simulation: golden IR interpreter, the three-tier cycle-accurate
FSMD engine stack (``interp`` reference interpreter, ``compiled``
plans of fused per-op closures dispatched a chain of states at a time,
``codegen`` generated + key-batched source) and the testbench harness.

:func:`resolve_engine` picks the FSMD engine: the explicit argument,
else ``"compiled"``.  Batched trials enter through
:func:`simulate_batch` / :func:`run_testbench_batch`; callers with many
keys iterate :func:`iter_outcomes`, which runs them in lane batches of
at most :data:`repro.sim.testbench.BATCH_LANES`."""

from repro.sim.codegen import CodegenDesign, codegen_for
from repro.sim.compiled import (
    DEFAULT_ENGINE,
    CompiledDesign,
    EngineDriver,
    compiled_for,
    engine_driver,
    resolve_engine,
)
from repro.sim.fsmd_sim import (
    FsmdSimulator,
    SimulationError,
    SimulationResult,
    simulate,
    simulate_batch,
)
from repro.sim.interpreter import (
    ExecutionResult,
    Interpreter,
    InterpreterError,
    run_function,
)
from repro.sim.testbench import (
    Testbench,
    TestbenchOutcome,
    default_observed_arrays,
    hamming_distance_fraction,
    iter_outcomes,
    output_bit_vector,
    run_testbench,
    run_testbench_batch,
)

__all__ = [
    "DEFAULT_ENGINE",
    "CodegenDesign",
    "CompiledDesign",
    "EngineDriver",
    "ExecutionResult",
    "FsmdSimulator",
    "Interpreter",
    "InterpreterError",
    "SimulationError",
    "SimulationResult",
    "Testbench",
    "TestbenchOutcome",
    "codegen_for",
    "compiled_for",
    "default_observed_arrays",
    "engine_driver",
    "hamming_distance_fraction",
    "iter_outcomes",
    "output_bit_vector",
    "resolve_engine",
    "run_function",
    "run_testbench",
    "run_testbench_batch",
    "simulate",
    "simulate_batch",
]
