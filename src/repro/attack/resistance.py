"""Brute-force resistance curves: keyspace coverage vs. corruption CDF.

The baseline adversary of paper §2: no activated chip at all, just the
netlist and compute.  Brute force over the locking keyspace is the
only move left, and this module measures what it buys — for a seeded
sample of wrong locking keys it records the distribution of output
corruption (the CDF over per-key mean Hamming fractions), the number
of keys that unlock the design (must be zero, §4.3), and how
vanishingly little of the 2^K keyspace the sample covers.

A flat-zero low tail of the CDF (no wrong key anywhere near correct
outputs) plus a coverage exponent hundreds of bits below zero is the
quantitative form of the paper's brute-force-resistance argument.

All trials are driven through ``bind_keys``/``run_batch`` lane batches
(:func:`repro.sim.testbench.iter_outcomes`), so thousand-key curves
ride the batched codegen engine; results are batch-layout- and
engine-independent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.attack.contract import inapplicable
from repro.registry import REGISTRY
from repro.sim.testbench import run_testbench

if TYPE_CHECKING:  # type-only: repro.tao imports back into this package
    from repro.sim.testbench import Testbench
    from repro.tao.flow import ObfuscatedComponent

#: Number of equal-width corruption bins the CDF is sampled at.
CDF_BINS = 10


@dataclass
class ResistanceCurveResult:
    """Corruption distribution of a seeded wrong-key sample."""

    keys_tried: int
    keyspace_bits: int
    keys_unlocking: int
    mean_corruption: float
    min_corruption: float
    max_corruption: float
    #: log2 of the sampled keyspace fraction (e.g. -250 for 64 keys of
    #: a 256-bit space): the honest "coverage" of a brute-force run.
    coverage_log2: float
    #: CDF sampled at ``cdf_edges``: fraction of wrong keys whose mean
    #: output corruption is <= the edge.
    cdf_edges: list[float] = field(default_factory=list)
    cdf: list[float] = field(default_factory=list)
    simulated_trials: int = 0


def resistance_curve(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    n_trials: int = 64,
    seed: int = 0xB7F,
    engine: Optional[str] = None,
) -> ResistanceCurveResult:
    """Sample wrong locking keys; build the output-corruption CDF.

    Wrong keys are drawn up front from the seed (deduplicated, never
    the correct key) and run through
    :func:`~repro.tao.metrics.run_key_trials`; per-key corruption is
    its mean Hamming fraction over workloads.
    """
    from repro.tao.metrics import (
        generate_wrong_keys,
        run_key_trials,
        wrong_key_cycle_cap,
    )

    if n_trials < 1:
        raise ValueError(f"n_trials={n_trials}: need at least one wrong key")
    rng = random.Random(seed)
    wrong_keys = generate_wrong_keys(component.locking_key, n_trials, rng)
    if not wrong_keys:
        raise ValueError("keyspace has no wrong keys to sample")
    baseline = run_testbench(
        component.design,
        benches[0],
        working_key=component.correct_working_key,
        engine=engine,
    )
    cap = wrong_key_cycle_cap(baseline.cycles)

    trials = run_key_trials(component, benches, wrong_keys, cap, engine=engine)
    corruptions = [trial.hamming_fraction for trial in trials]

    edges = [i / CDF_BINS for i in range(CDF_BINS + 1)]
    cdf = [
        sum(1 for value in corruptions if value <= edge) / len(corruptions)
        for edge in edges
    ]
    keyspace_bits = component.locking_key.width
    return ResistanceCurveResult(
        keys_tried=len(wrong_keys),
        keyspace_bits=keyspace_bits,
        keys_unlocking=sum(trial.output_matches for trial in trials),
        mean_corruption=sum(corruptions) / len(corruptions),
        min_corruption=min(corruptions),
        max_corruption=max(corruptions),
        coverage_log2=math.log2(len(wrong_keys)) - keyspace_bits,
        cdf_edges=edges,
        cdf=cdf,
        simulated_trials=len(wrong_keys) * len(benches),
    )


@REGISTRY.register(
    "attack",
    "resistance-curve",
    description="brute-force sweep: keyspace coverage vs. output-corruption CDF",
)
def _resistance_curve_adapter(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    *,
    seed: int = 0xB7F,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    try:
        result = resistance_curve(
            component, benches, n_trials=64, seed=seed, engine=engine
        )
    except ValueError as error:
        return inapplicable("resistance-curve", str(error))
    return {
        "name": "resistance-curve",
        "applicable": True,
        "cost": {
            # Oracle-free by construction: the CDF compares against
            # the golden model the *defender* holds; the brute-force
            # adversary never touches a chip.
            "oracle_queries": 0,
            "simulated_trials": result.simulated_trials,
            "iterations": 1,
        },
        "outcome": {
            "keys_tried": result.keys_tried,
            "keyspace_bits": result.keyspace_bits,
            "keys_unlocking": result.keys_unlocking,
            "mean_corruption": result.mean_corruption,
            "min_corruption": result.min_corruption,
            "max_corruption": result.max_corruption,
            "coverage_log2": result.coverage_log2,
            "cdf_edges": result.cdf_edges,
            "cdf": result.cdf,
        },
    }
