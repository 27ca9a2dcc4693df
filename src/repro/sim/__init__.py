"""Simulation: golden IR interpreter, the three-tier cycle-accurate
FSMD engine stack (``interp`` reference interpreter, ``compiled``
closure plans, ``codegen`` generated + key-batched source) and the
testbench harness.  :func:`resolve_engine` picks the FSMD engine:
explicit argument > ``$REPRO_SIM_ENGINE`` > ``"compiled"``; batched
trials enter through :func:`simulate_batch` /
:func:`run_testbench_batch`."""

from repro.sim.codegen import CodegenDesign, codegen_for
from repro.sim.compiled import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
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
    output_bit_vector,
    run_testbench,
    run_testbench_batch,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV",
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
    "output_bit_vector",
    "resolve_engine",
    "run_function",
    "run_testbench",
    "run_testbench_batch",
    "simulate",
    "simulate_batch",
]
