"""Testbench harness: compare FSMD simulations against the golden
software model (paper §4.1: Bambu-generated testbenches extended with
locking-key inputs).

A :class:`Testbench` holds a workload (scalar args + array contents)
for one top function; :func:`run_testbench` executes the golden IR
interpretation and the FSMD simulation and reports agreement, output
bit vectors (for Hamming-distance corruptibility) and cycle counts.
:func:`iter_outcomes` runs any number of keys on one workload, in lane
batches of at most :data:`BATCH_LANES`.

The golden execution is key-independent, so by default it is memoized
in the process-wide :data:`repro.runtime.cache.GOLDEN_CACHE` — a
100-key validation campaign interprets the software model exactly once
per ``(design, testbench)`` pair.  Pass ``golden_cache=None`` to force
a fresh interpretation, or any :class:`~repro.runtime.cache.GoldenCache`
instance to isolate the memoization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro.hls.design import FsmdDesign
from repro.ir.function import Module
from repro.ir.types import IntType
from repro.runtime.cache import GOLDEN_CACHE, GoldenCache
from repro.sim.fsmd_sim import DEFAULT_MAX_CYCLES, SimulationResult, simulate_batch
from repro.sim.interpreter import ExecutionResult, Interpreter

#: Most keys one :func:`run_testbench_batch` call simulates for
#: :func:`iter_outcomes`: it bounds the per-batch lane storage (each
#: lane carries private register and memory images) while keeping
#: batches wide enough that the codegen tier's per-batch costs
#: (``bind_keys``, memory setup) amortize.  Results never depend on it:
#: every trial is a pure function of its key.
BATCH_LANES = 64


@dataclass
class Testbench:
    """One workload for a top-level function.

    ``observed_arrays`` names the arrays whose final contents count as
    outputs (default: every parameter array the function stores to,
    which is how HLS testbenches treat output memories).
    """

    __test__ = False  # not a pytest test class

    args: list[int] = field(default_factory=list)
    arrays: dict[str, list[int]] = field(default_factory=dict)
    observed_arrays: Optional[list[str]] = None


@dataclass
class TestbenchOutcome:
    """Joint result of golden execution and FSMD simulation."""

    golden: ExecutionResult
    simulated: SimulationResult
    matches: bool
    golden_bits: list[int]
    simulated_bits: list[int]

    @property
    def cycles(self) -> int:
        return self.simulated.cycles


def output_bit_vector(
    return_value: Optional[int],
    arrays: dict[str, list[int]],
    observed: Sequence[str],
    module: Module,
    func_name: str,
) -> list[int]:
    """Flatten observable outputs into a bit list (for Hamming distance)."""
    func = module.function(func_name)
    bits: list[int] = []
    if func.returns_value and isinstance(func.return_type, IntType):
        width = func.return_type.width
        value = (return_value or 0) & ((1 << width) - 1)
        bits.extend((value >> i) & 1 for i in range(width))
    for name in observed:
        array = func.arrays[name]
        width = array.element_type.width
        contents = arrays.get(name, [0] * array.size)
        for element in contents:
            pattern = element & ((1 << width) - 1)
            bits.extend((pattern >> i) & 1 for i in range(width))
    return bits


def default_observed_arrays(module: Module, func_name: str) -> list[str]:
    """Parameter arrays written by the function (its output memories)."""
    from repro.ir.instructions import Opcode

    func = module.function(func_name)
    written = {
        inst.array.name
        for inst in func.instructions()
        if inst.opcode is Opcode.STORE and inst.array is not None
    }
    return [a.name for a in func.array_params() if a.name in written]


class _DefaultCache:
    """Sentinel type: 'use the process-wide golden cache'."""


_DEFAULT_CACHE = _DefaultCache()


def run_testbench(
    design: FsmdDesign,
    bench: Testbench,
    working_key: int = 0,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    golden_cache: Union[GoldenCache, None, _DefaultCache] = _DEFAULT_CACHE,
    engine: Optional[str] = None,
) -> TestbenchOutcome:
    """Run golden software and FSMD simulation; compare observables.

    The golden interpretation is memoized (see module docstring);
    ``golden_cache=None`` disables the cache for this call.
    ``engine`` selects the FSMD engine (``"compiled"``, the default;
    ``"codegen"`` batched source generation; ``"interp"`` reference)
    — the outcome is engine-independent by the determinism contract of
    :mod:`repro.sim.compiled`.  A one-lane delegation to
    :func:`run_testbench_batch`, so scalar and batched trials agree by
    construction.
    """
    return run_testbench_batch(
        design,
        bench,
        [working_key],
        max_cycles=max_cycles,
        golden_cache=golden_cache,
        engine=engine,
    )[0]


def run_testbench_batch(
    design: FsmdDesign,
    bench: Testbench,
    working_keys: Sequence[int],
    max_cycles: int = DEFAULT_MAX_CYCLES,
    golden_cache: Union[GoldenCache, None, _DefaultCache] = _DEFAULT_CACHE,
    engine: Optional[str] = None,
    fingerprint: Optional[str] = None,
) -> list[TestbenchOutcome]:
    """Run one workload under a batch of working keys; compare each lane.

    The golden reference is key-independent, so the batch needs it only
    once: with a cache attached, one lookup hashes the module once and
    counts one hit or miss per lane, so cache telemetry (lookups per
    trial) stays identical to running the same keys through scalar
    :func:`run_testbench` calls, and every lane gets its own copy; with
    ``golden_cache=None`` the interpreter runs once and every lane
    shares the result.  Simulation goes through
    :func:`repro.sim.fsmd_sim.simulate_batch` — one ``bind_keys`` +
    sweep under the codegen engine, a scalar loop elsewhere —
    returning one :class:`TestbenchOutcome` per key, in key order.
    ``fingerprint``, the module's golden fingerprint when the caller
    already holds it, spares the cache lookup its hash.
    """
    module = design.module
    func_name = design.func.name
    observed = bench.observed_arrays
    if observed is None:
        observed = default_observed_arrays(module, func_name)

    cache = GOLDEN_CACHE if isinstance(golden_cache, _DefaultCache) else golden_cache
    if cache is None:
        golden = Interpreter(module).run(
            func_name, bench.args, dict(bench.arrays)
        )
        golden_bits = output_bit_vector(
            golden.return_value, golden.arrays, observed, module, func_name
        )
        goldens = [(golden, golden_bits)] * len(working_keys)
    else:
        goldens = cache.goldens_for(
            design, bench, observed, len(working_keys), fingerprint
        )
    simulated_batch = simulate_batch(
        design,
        bench.args,
        dict(bench.arrays),
        working_keys=working_keys,
        max_cycles=max_cycles,
        engine=engine,
    )
    outcomes: list[TestbenchOutcome] = []
    for (golden, golden_bits), simulated in zip(goldens, simulated_batch):
        simulated_bits = output_bit_vector(
            simulated.return_value, simulated.arrays, observed, module, func_name
        )
        matches = simulated.completed and golden_bits == simulated_bits
        outcomes.append(
            TestbenchOutcome(
                golden=golden,
                simulated=simulated,
                matches=matches,
                golden_bits=golden_bits,
                simulated_bits=simulated_bits,
            )
        )
    return outcomes


def iter_outcomes(
    design: FsmdDesign,
    bench: Testbench,
    working_keys: Sequence[int],
    max_cycles: int = DEFAULT_MAX_CYCLES,
    engine: Optional[str] = None,
    fingerprint: Optional[str] = None,
) -> Iterator[TestbenchOutcome]:
    """Run any number of working keys on one workload; yield in key order.

    The keys go through :func:`run_testbench_batch` in balanced
    contiguous batches of at most :data:`BATCH_LANES` (130 keys run as
    44 + 44 + 42), so memory holds one batch's outcomes, not every
    key's.  Every caller that simulates many keys iterates this; the
    batch boundaries depend only on ``len(working_keys)``.
    """
    count = len(working_keys)
    if not count:
        return
    size = -(-count // -(-count // BATCH_LANES))
    for start in range(0, count, size):
        yield from run_testbench_batch(
            design,
            bench,
            working_keys[start : start + size],
            max_cycles=max_cycles,
            engine=engine,
            fingerprint=fingerprint,
        )


def hamming_distance_fraction(a: Sequence[int], b: Sequence[int]) -> float:
    """Fraction of differing bits between two equal-length bit vectors.

    When lengths differ (e.g. a timed-out run produced no outputs), the
    missing tail counts as fully corrupted.
    """
    length = max(len(a), len(b))
    if length == 0:
        return 0.0
    differing = sum(
        1
        for i in range(length)
        if (a[i] if i < len(a) else None) != (b[i] if i < len(b) else None)
    )
    return differing / length
