"""Benchmark registry: the five Table-1 kernels and their workloads.

Each :class:`Benchmark` carries the C-subset source text, the top
function name and a workload generator producing
:class:`repro.sim.testbench.Testbench` instances.  All kernels here are
original integer re-implementations of the named algorithms, sized so
the pure-Python FSMD simulation of a full run stays in the thousands of
cycles.

Benchmarks are capabilities: they live in the process-wide
:data:`repro.registry.REGISTRY` under kind ``"benchmark"``, in Table-1
order, so ``repro list benchmark`` and ``--benchmarks all`` enumerate
them and an unknown name fails with the registry's uniform error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registry import REGISTRY
from repro.sim.testbench import Testbench


@dataclass
class Benchmark:
    """One benchmark kernel of the evaluation suite."""

    name: str
    source: str
    top: str
    description: str
    make_testbenches: Callable[..., list[Testbench]]


def register(benchmark: Benchmark) -> Benchmark:
    REGISTRY.register(
        "benchmark",
        benchmark.name,
        benchmark,
        description=benchmark.description,
    )
    return benchmark


def get_benchmark(name: str) -> Benchmark:
    load_builtin_benchmarks()
    return REGISTRY.get("benchmark", name)


def all_benchmarks() -> dict[str, Benchmark]:
    load_builtin_benchmarks()
    return {entry.name: entry.value for entry in REGISTRY.entries("benchmark")}


def benchmark_names() -> list[str]:
    load_builtin_benchmarks()
    return list(REGISTRY.names("benchmark"))


_BUILTINS_LOADED = False


def load_builtin_benchmarks() -> None:
    """Import the five kernel modules (once), registering each in the
    canonical Table-1 order: gsm, adpcm, sobel, backprop, viterbi."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.benchsuite import adpcm, backprop, gsm, sobel, viterbi

    for module in (gsm, adpcm, sobel, backprop, viterbi):
        register(module.BENCHMARK)

