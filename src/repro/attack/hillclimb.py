"""Greedy bit-flip (hill-climbing) key recovery.

A cheaper adversary than the oracle-guided pruner
(:mod:`repro.attack.oracle_guided`): again per paper §2/§3.1 the
attacker holds the netlist and — hypothetically — an activated chip,
but instead of maintaining a candidate population they walk a single
working key downhill on the Hamming distance between their simulated
outputs and the chip's observed outputs, flipping one key bit at a
time and restarting from fresh random keys when stuck.

This models the "approximate" family of attacks on logic locking:
it only works when output corruption degrades *gradually* with key
distance.  TAO's margins are exactly the opposite — §4.3's
corruptibility results show wrong keys land at ~50-60 % output
Hamming distance with no usable gradient toward the correct key, so
the climber stalls in local minima far from recovery; the per-restart
fitness trajectories the result records make that visible.

Determinism: restart starting points and flip neighborhoods are drawn
from the seed, candidate flips are evaluated in batched lanes, and
ties break on the lowest bit index, so the walk is a pure function of
``(component, benches, options)`` on every engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.attack.contract import inapplicable
from repro.registry import REGISTRY
from repro.sim.testbench import (
    hamming_distance_fraction,
    iter_outcomes,
    run_testbench,
)

if TYPE_CHECKING:  # type-only: repro.tao imports back into this package
    from repro.sim.testbench import Testbench
    from repro.tao.flow import ObfuscatedComponent


@dataclass
class HillClimbResult:
    """Outcome of a multi-restart greedy bit-flip walk."""

    key_bits: int
    restarts: int
    rounds: int
    evaluated_keys: int
    simulated_trials: int
    oracle_queries: int
    best_hamming: float
    recovered: bool
    #: Defender-side ground truth: Hamming distance (in bits) between
    #: the best key found and the correct working key.
    best_key_distance: int
    #: Per-restart fitness trajectories (starting fitness, then one
    #: entry per accepted downhill move).
    trajectories: list[list[float]] = field(default_factory=list)


class _FitnessOracle:
    """Memoized fitness: mean output Hamming distance to the chip.

    The chip's responses (the golden outputs) are observed once per
    workload — ``oracle_queries`` — and every candidate key is then
    scored against them offline in batched simulations of the
    attacker's own copies.
    """

    def __init__(self, component, benches, cycle_cap, engine) -> None:
        self.design = component.design
        self.benches = benches
        self.cap = cycle_cap
        self.engine = engine
        self.cache: dict[int, float] = {}
        self.trials = 0
        self.oracle: dict[int, tuple[int, ...]] = {}

    def score(self, keys: Sequence[int]) -> list[float]:
        missing = sorted({key for key in keys if key not in self.cache})
        sums = dict.fromkeys(missing, 0.0)
        for bench_index, bench in enumerate(self.benches):
            outcomes = iter_outcomes(
                self.design, bench, missing, self.cap, self.engine
            )
            for key, outcome in zip(missing, outcomes):
                self.oracle.setdefault(bench_index, tuple(outcome.golden_bits))
                sums[key] += hamming_distance_fraction(
                    outcome.golden_bits, outcome.simulated_bits
                )
            self.trials += len(missing)
        for key in missing:
            self.cache[key] = sums[key] / len(self.benches)
        return [self.cache[key] for key in keys]


def hill_climb_attack(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    restarts: int = 2,
    max_rounds: int = 6,
    neighborhood: int = 16,
    seed: int = 0xC11B,
    engine: Optional[str] = None,
) -> HillClimbResult:
    """Walk working-key bits downhill on output Hamming distance.

    Each restart begins at a seeded random working key; each round
    scores up to ``neighborhood`` seeded single-bit flips in one lane
    batch and moves to the best strict improvement (ties to the lowest
    bit index).  A round with no improvement ends the restart (local
    minimum); reaching fitness 0 means the chip's outputs are
    reproduced on every probe workload — key recovery.
    """
    design = component.design
    width = design.key_config.working_key_bits
    if width == 0:
        raise ValueError("design consumes no key bits")
    if restarts < 1:
        raise ValueError(f"restarts={restarts}: need at least one restart")
    from repro.tao.metrics import wrong_key_cycle_cap

    rng = random.Random(seed)
    baseline = run_testbench(
        design,
        benches[0],
        working_key=component.correct_working_key,
        engine=engine,
    )
    cap = wrong_key_cycle_cap(baseline.cycles)
    oracle = _FitnessOracle(component, benches, cap, engine)

    best_key = 0
    best_fitness = float("inf")
    rounds = 0
    trajectories: list[list[float]] = []
    for _restart in range(restarts):
        current = rng.getrandbits(width)
        fitness = oracle.score([current])[0]
        trajectory = [fitness]
        for _round in range(max_rounds):
            if fitness == 0.0:
                break
            rounds += 1
            flips = sorted(
                rng.sample(range(width), min(width, neighborhood))
            )
            candidates = [current ^ (1 << bit) for bit in flips]
            scores = oracle.score(candidates)
            move = min(
                range(len(candidates)), key=lambda i: (scores[i], flips[i])
            )
            if scores[move] >= fitness:
                break  # local minimum: no strict improvement
            current = candidates[move]
            fitness = scores[move]
            trajectory.append(fitness)
        trajectories.append(trajectory)
        if fitness < best_fitness:
            best_fitness = fitness
            best_key = current

    return HillClimbResult(
        key_bits=width,
        restarts=restarts,
        rounds=rounds,
        evaluated_keys=len(oracle.cache),
        simulated_trials=oracle.trials,
        oracle_queries=len(benches),
        best_hamming=best_fitness,
        recovered=best_fitness == 0.0,
        best_key_distance=bin(best_key ^ component.correct_working_key).count(
            "1"
        ),
        trajectories=trajectories,
    )


@REGISTRY.register(
    "attack",
    "hill-climb",
    description="greedy bit-flip walk on output Hamming distance, with restarts",
)
def _hill_climb_adapter(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    *,
    seed: int = 0xC11B,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    try:
        result = hill_climb_attack(
            component,
            benches,
            restarts=2,
            max_rounds=4,
            neighborhood=12,
            seed=seed,
            engine=engine,
        )
    except ValueError as error:
        return inapplicable("hill-climb", str(error))
    return {
        "name": "hill-climb",
        "applicable": True,
        "cost": {
            "oracle_queries": result.oracle_queries,
            "simulated_trials": result.simulated_trials,
            "iterations": result.rounds,
        },
        "outcome": {
            "key_bits": result.key_bits,
            "restarts": result.restarts,
            "evaluated_keys": result.evaluated_keys,
            "best_hamming": result.best_hamming,
            "recovered": result.recovered,
            "best_key_distance": result.best_key_distance,
            "trajectories": result.trajectories,
        },
    }
