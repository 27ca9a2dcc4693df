"""Oracle-guided iterative key recovery (SAT-style distinguishing-input
pruning).

This is the strongest adversary the evaluation models: the classic
oracle-guided attack on logic locking, transplanted to TAO's
working-key FSMDs.  The attacker of paper §2 holds the obfuscated
netlist (so by Kerckhoffs' principle the working-key *layout* — which
bits mask branches, which slices select DFG variants, which slices
decode constants — is known from reverse engineering) and, in this
hypothetical, additionally obtained an activated chip to query.  The
attack maintains a population of candidate working keys, searches for
a *distinguishing input* — a workload on which surviving candidates
disagree — via batched simulation of their own fab'd copies, queries
the oracle chip for the true outputs, and prunes every candidate the
response contradicts, until the population converges or the query
budget runs out.

Why TAO resists it (§3.1/§4.3), and what the numbers show:

* The 32-bit constant slices make the candidate space astronomically
  deep.  A tractable population can only cover the *tractable* bits
  (branch masks + small variant selectors) under some hypothesis for
  the constant slices; when constants are obfuscated no hypothesis
  member ever matches the oracle, every query *refutes the whole
  population* (pruning it would eliminate the true key's equivalence
  class along with everything else), and the attack stalls with ~0 %
  of the pool eliminated.
* On a cell whose constants are NOT obfuscated, the tractable bits
  are the whole key: the population encloses the true key, every
  distinguishing-input query is informative, and the attack prunes
  the pool to the oracle-consistent survivors within a handful of
  queries — the keys-eliminated-per-query curve the result reports.

The asymmetry between those two curves is the paper's central
security claim, asserted in ``tests/test_attack_engine.py``.

Determinism: candidates are drawn up front from the seed, workloads
are scanned in order, and simulation outputs are engine-independent,
so the result is a pure function of ``(component, benches, options)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.attack.contract import inapplicable
from repro.registry import REGISTRY
from repro.sim.testbench import iter_outcomes, run_testbench

if TYPE_CHECKING:  # type-only: repro.tao imports back into this package
    from repro.sim.testbench import Testbench
    from repro.tao.flow import ObfuscatedComponent

#: A key slice wider than this is *intractable* for population
#: enumeration (2^width candidates per slice): the attacker pins it to
#: a shared hypothesis instead of sweeping it.  8 covers branch bits
#: (width 1) and the paper's 4-bit variant selectors, while the 32-bit
#: constant slices land far beyond it.
TRACTABLE_SLICE_BITS = 8

#: Stall/termination reasons reported in the outcome block.
CONVERGED = "converged"
NO_DISTINGUISHING_INPUT = "no-distinguishing-input"
POPULATION_REFUTED = "population-refuted"
QUERY_BUDGET_EXHAUSTED = "query-budget-exhausted"


@dataclass
class KeyBitPartition:
    """The attacker's reverse-engineered view of the working-key layout.

    ``tractable`` holds the bit positions the population sweeps
    (branch-mask bits and variant-selector slices of at most
    :data:`TRACTABLE_SLICE_BITS` bits); ``intractable`` the positions
    pinned to the all-zeros hypothesis (constant-decode slices, and
    any selector slice too wide to enumerate).
    """

    tractable: list[int] = field(default_factory=list)
    intractable: list[int] = field(default_factory=list)


def partition_key_bits(component: ObfuscatedComponent) -> KeyBitPartition:
    """Split the working-key layout into tractable / intractable bits."""
    config = component.design.key_config
    tractable: set[int] = set(config.branch_bits.values())
    intractable: set[int] = set()
    for offset, width in config.constant_slices:
        intractable.update(range(offset, offset + width))
    for offset, width in config.block_slices.values():
        bits = range(offset, offset + width)
        if width <= TRACTABLE_SLICE_BITS:
            tractable.update(bits)
        else:
            intractable.update(bits)
    # Any layout gap (e.g. ROM slices recorded only in the
    # apportionment) is unknown territory: pin it with the hypothesis.
    covered = tractable | intractable
    intractable.update(
        bit for bit in range(config.working_key_bits) if bit not in covered
    )
    return KeyBitPartition(
        tractable=sorted(tractable), intractable=sorted(intractable)
    )


@dataclass
class OracleGuidedResult:
    """Outcome of one oracle-guided pruning run."""

    pool_size: int
    survivors: int
    tractable_bits: int
    intractable_bits: int
    oracle_queries: int
    informative_queries: int
    refuted_queries: int
    simulated_trials: int
    iterations: int
    stall_reason: str
    recovered_bits: int
    key_recovered: bool
    #: One entry per oracle query, in order: the keys-eliminated-per-
    #: query curve ({"query", "workload", "eliminated", "survivors",
    #: "informative"}).
    curve: list[dict[str, Any]] = field(default_factory=list)

    @property
    def pool_pruned_fraction(self) -> float:
        if self.pool_size == 0:
            return 0.0
        return (self.pool_size - self.survivors) / self.pool_size


def _candidate_pool(
    partition: KeyBitPartition, pool_size: int, rng: random.Random
) -> list[int]:
    """Candidate working keys: tractable-bit assignments over the
    all-zeros hypothesis for intractable bits.

    When the tractable space fits in the pool it is enumerated
    exhaustively (the population then provably contains the true
    key's tractable assignment — iff the hypothesis holds); otherwise
    ``pool_size`` distinct assignments are sampled from the seed.
    """
    bits = partition.tractable
    if len(bits) <= 30 and (1 << len(bits)) <= pool_size:
        assignments: Sequence[int] = range(1 << len(bits))
    else:
        seen: set[int] = set()
        limit = min(pool_size, 1 << min(len(bits), 62))
        while len(seen) < limit:
            seen.add(rng.getrandbits(len(bits)))
        assignments = sorted(seen)
    pool = []
    for assignment in assignments:
        key = 0
        for index, position in enumerate(bits):
            if (assignment >> index) & 1:
                key |= 1 << position
        pool.append(key)
    return pool


class _Simulator:
    """Memoized batched simulation of candidate keys per workload.

    The attacker simulates their own fab'd copies: each (key, workload)
    pair runs at most once, in lane batches through
    :func:`iter_outcomes` (``bind_keys`` + sweep under the codegen
    engine), and ``trials`` counts the simulations actually
    executed — the ``simulated_trials`` cost the result reports.
    """

    def __init__(self, component, benches, cycle_cap, engine) -> None:
        self.design = component.design
        self.benches = benches
        self.cap = cycle_cap
        self.engine = engine
        self.outputs: dict[tuple[int, int], tuple[int, ...]] = {}
        self.trials = 0

    def outputs_for(
        self, bench_index: int, keys: Sequence[int]
    ) -> list[tuple[int, ...]]:
        missing = [
            key for key in keys if (bench_index, key) not in self.outputs
        ]
        outcomes = iter_outcomes(
            self.design, self.benches[bench_index], missing, self.cap, self.engine
        )
        for key, outcome in zip(missing, outcomes):
            self.outputs[bench_index, key] = tuple(outcome.simulated_bits)
        self.trials += len(missing)
        return [self.outputs[bench_index, key] for key in keys]


def oracle_guided_attack(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    pool_size: int = 256,
    max_queries: int = 16,
    seed: int = 0xD1B,
    engine: Optional[str] = None,
) -> OracleGuidedResult:
    """Run the oracle-guided distinguishing-input attack.

    Maintains up to ``pool_size`` candidate working keys (tractable
    bits swept, intractable slices pinned to the all-zeros
    hypothesis), repeatedly finds a workload on which survivors
    disagree, queries the oracle chip, and prunes.

    A query only prunes when it is *informative* — at least one
    survivor matches the oracle response exactly.  A response no
    survivor matches refutes the entire population (the hypothesis for
    the intractable slices is wrong); that workload is retired and the
    attack moves on, stalling with ``population-refuted`` when every
    workload refutes.  This is what a real oracle-guided attacker
    observes against obfuscated constants: pruning on a refuting
    response would discard the true key's equivalence class, so no
    progress is possible (§3.1/§4.3).

    Oracle queries are counted per distinct workload (responses are
    remembered); wrong-key simulations are capped at 8x the oracle
    chip's observed latency, like every wrong-key trial in the repo.
    """
    design = component.design
    width = design.key_config.working_key_bits
    if width == 0:
        raise ValueError("design consumes no key bits")
    partition = partition_key_bits(component)
    if not partition.tractable:
        raise ValueError("no tractable key bits to enumerate")
    rng = random.Random(seed)
    pool = _candidate_pool(partition, pool_size, rng)

    from repro.tao.metrics import wrong_key_cycle_cap

    # The oracle chip's response latency is observable from outside;
    # 8x it bounds every candidate simulation (shared repo-wide cap).
    baseline = run_testbench(
        design,
        benches[0],
        working_key=component.correct_working_key,
        engine=engine,
    )
    cap = wrong_key_cycle_cap(baseline.cycles)
    simulator = _Simulator(component, benches, cap, engine)

    oracle_bits: dict[int, tuple[int, ...]] = {}

    def query_oracle(bench_index: int) -> tuple[int, ...]:
        # golden_bits IS the activated chip's response: the golden
        # software model defines the unlocked design's behaviour.
        if bench_index not in oracle_bits:
            outcome = run_testbench(
                design,
                benches[bench_index],
                working_key=component.correct_working_key,
                engine=engine,
            )
            oracle_bits[bench_index] = tuple(outcome.golden_bits)
        return oracle_bits[bench_index]

    survivors = list(pool)
    curve: list[dict[str, Any]] = []
    retired: set[int] = set()
    informative = 0
    refuted = 0
    iterations = 0
    stall = QUERY_BUDGET_EXHAUSTED

    while len(curve) < max_queries:
        iterations += 1
        if len(survivors) <= 1:
            stall = CONVERGED
            break
        # Distinguishing-input search: first live workload on which
        # the surviving candidates disagree.
        disputed = None
        for bench_index in range(len(benches)):
            if bench_index in retired:
                continue
            outputs = simulator.outputs_for(bench_index, survivors)
            if len(set(outputs)) > 1:
                disputed = (bench_index, outputs)
                break
            retired.add(bench_index)  # unanimous: can never prune
        if disputed is None:
            stall = (
                POPULATION_REFUTED if refuted and len(retired) == len(benches)
                else NO_DISTINGUISHING_INPUT
            )
            break
        bench_index, outputs = disputed
        response = query_oracle(bench_index)
        matching = [
            key
            for key, bits in zip(survivors, outputs)
            if bits == response
        ]
        if matching:
            informative += 1
            eliminated = len(survivors) - len(matching)
            survivors = matching
        else:
            # No survivor reproduces the chip: the intractable-slice
            # hypothesis is refuted — pruning would empty the pool.
            refuted += 1
            eliminated = 0
            retired.add(bench_index)
        curve.append(
            {
                "query": len(curve) + 1,
                "workload": bench_index,
                "eliminated": eliminated,
                "survivors": len(survivors),
                "informative": bool(matching),
            }
        )
    else:
        stall = QUERY_BUDGET_EXHAUSTED

    # Bits recovered: tractable positions every survivor agrees on —
    # meaningful only once at least one informative response anchored
    # the population to the real chip.
    recovered_bits = 0
    key_recovered = False
    if informative and survivors:
        correct = component.correct_working_key
        for position in partition.tractable:
            mask = 1 << position
            values = {key & mask for key in survivors}
            if len(values) == 1 and (values.pop() == (correct & mask)):
                recovered_bits += 1
        key_recovered = survivors == [correct]

    return OracleGuidedResult(
        pool_size=len(pool),
        survivors=len(survivors),
        tractable_bits=len(partition.tractable),
        intractable_bits=len(partition.intractable),
        oracle_queries=len(oracle_bits),
        informative_queries=informative,
        refuted_queries=refuted,
        simulated_trials=simulator.trials,
        iterations=iterations,
        stall_reason=stall,
        recovered_bits=recovered_bits,
        key_recovered=key_recovered,
        curve=curve,
    )


@REGISTRY.register(
    "attack",
    "oracle-guided",
    description="SAT-style distinguishing-input pruning of a candidate-key pool",
)
def _oracle_guided_adapter(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    *,
    seed: int = 0xD1B,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    try:
        result = oracle_guided_attack(
            component,
            benches,
            pool_size=64,
            max_queries=8,
            seed=seed,
            engine=engine,
        )
    except ValueError as error:
        return inapplicable("oracle-guided", str(error))
    return {
        "name": "oracle-guided",
        "applicable": True,
        "cost": {
            "oracle_queries": result.oracle_queries,
            "simulated_trials": result.simulated_trials,
            "iterations": result.iterations,
        },
        "outcome": {
            "pool_size": result.pool_size,
            "survivors": result.survivors,
            "pool_pruned_fraction": result.pool_pruned_fraction,
            "tractable_bits": result.tractable_bits,
            "intractable_bits": result.intractable_bits,
            "informative_queries": result.informative_queries,
            "refuted_queries": result.refuted_queries,
            "stall_reason": result.stall_reason,
            "recovered_bits": result.recovered_bits,
            "key_recovered": result.key_recovered,
            "curve": result.curve,
        },
    }
