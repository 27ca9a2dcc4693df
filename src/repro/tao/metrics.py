"""Security-validation metrics (paper §4.3).

The paper validates each obfuscated circuit with 100 random 256-bit
locking keys: the correct key must reproduce the golden outputs, every
other key must corrupt them, and "output corruptibility" is measured
as the Hamming distance of the wrong-key outputs from the baseline
outputs (62.2 % average over the five benchmarks).  This module runs
that campaign on our designs.

Execution rides on :mod:`repro.runtime`: the golden software model is
memoized per ``(design, testbench)`` (it is key-independent, so a
100-key campaign interprets it exactly once per workload), wrong keys
run through the *batched* trial path (:func:`run_key_trials`, which
iterates :func:`repro.sim.testbench.iter_outcomes`) so the codegen
engine can bind and sweep lane batches of keys, and with ``jobs > 1``
the keys fan out across worker processes via
:func:`repro.runtime.campaign.parallel_map`.  All keys are drawn up
front from the campaign seed and each trial is a pure function of its
key, so every batch/process layout produces identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.sim.testbench import (
    DEFAULT_MAX_CYCLES,
    Testbench,
    hamming_distance_fraction,
    iter_outcomes,
)
from repro.tao.flow import ObfuscatedComponent
from repro.tao.key import LockingKey

#: Cycle cap for a trial before the baseline latency is known (shared
#: with run_testbench's default so both paths agree on "uncapped").
UNCAPPED_CYCLES = DEFAULT_MAX_CYCLES
#: Floor of the wrong-key cycle cap (8x baseline, but never below this).
WRONG_KEY_CYCLE_FLOOR = 4000
@dataclass
class KeyTrialResult:
    """Outcome of simulating one locking key."""

    locking_key: LockingKey
    is_correct_key: bool
    output_matches: bool
    hamming_fraction: float
    cycles: int
    completed: bool


@dataclass
class ValidationReport:
    """Aggregate of a key-validation campaign on one component.

    ``n_keys`` is the number of trials actually run (narrow key widths
    can yield fewer distinct wrong keys than requested).
    ``wrong_keys_all_corrupt`` is ``None`` when the campaign produced
    no wrong-key trials at all — a vacuous campaign must not report
    success.
    """

    component_name: str
    n_keys: int
    correct_key_ok: bool
    wrong_keys_all_corrupt: Optional[bool]
    average_hamming: float
    min_hamming: float
    max_hamming: float
    baseline_cycles: int
    latency_changed_keys: int
    trials: list[KeyTrialResult] = field(default_factory=list)


def generate_wrong_keys(
    correct: LockingKey,
    n_wrong: int,
    rng: random.Random,
    max_attempts: Optional[int] = None,
) -> list[LockingKey]:
    """Draw up to ``n_wrong`` distinct wrong keys of ``correct``'s width.

    Rejection sampling is bounded and deduplicates candidates against
    both the correct key and each other, so narrow widths terminate:
    when the keyspace itself is smaller than the request (width w with
    2^w - 1 < n_wrong) the entire wrong-key space is returned in
    rng-shuffled order, and a pathological collision streak merely
    yields a shorter list instead of spinning forever.
    """
    width = correct.width
    if width <= 20 and (1 << width) - 1 <= n_wrong:
        values = [v for v in range(1 << width) if v != correct.bits]
        rng.shuffle(values)
        return [LockingKey(bits=v, width=width) for v in values]
    if max_attempts is None:
        max_attempts = max(64 * n_wrong, 1024)
    seen = {correct.bits}
    keys: list[LockingKey] = []
    attempts = 0
    while len(keys) < n_wrong and attempts < max_attempts:
        attempts += 1
        candidate = LockingKey.random(rng, width)
        if candidate.bits in seen:
            continue
        seen.add(candidate.bits)
        keys.append(candidate)
    return keys


def wrong_key_cycle_cap(
    baseline_cycles: int, max_cycles: Optional[int] = None
) -> int:
    """The §4.3 wrong-key cap: ``max_cycles`` when given, else 8x the
    correct-key latency and never below :data:`WRONG_KEY_CYCLE_FLOOR`
    (corrupted loop bounds can otherwise spin for the full 2^32 range).
    Key validation and every attack bound their trials with it."""
    if max_cycles is not None:
        return max_cycles
    return max(8 * baseline_cycles, WRONG_KEY_CYCLE_FLOOR)


def run_key_trials(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    keys: Sequence[LockingKey],
    cycle_cap: int,
    engine: Optional[str] = None,
) -> list[KeyTrialResult]:
    """Simulate a batch of locking keys over all workloads.

    A pure function of ``(component, benches, keys, cycle_cap)`` — the
    unit the campaign engine parallelizes, one lane per key.  Each
    workload runs through :func:`iter_outcomes`, so under the codegen
    engine each lane batch is bound once and swept through
    lane-vectorized storage; per-key aggregation (matches over all
    workloads, workload-averaged Hamming fraction, max cycles) is
    order-independent, so the result list matches scalar
    :func:`run_key_trial` calls key for key on every engine.  The
    golden reference comes from the process-wide cache.
    """
    working = [component.working_key_for(key) for key in keys]
    matches_all = [True] * len(keys)
    completed_all = [True] * len(keys)
    hamming_sum = [0.0] * len(keys)
    cycles = [0] * len(keys)
    for bench in benches:
        outcomes = iter_outcomes(
            component.design, bench, working, cycle_cap, engine
        )
        for lane, outcome in enumerate(outcomes):
            matches_all[lane] &= outcome.matches
            completed_all[lane] &= outcome.simulated.completed
            hamming_sum[lane] += hamming_distance_fraction(
                outcome.golden_bits, outcome.simulated_bits
            )
            cycles[lane] = max(cycles[lane], outcome.cycles)
    return [
        KeyTrialResult(
            locking_key=key,
            is_correct_key=key.bits == component.locking_key.bits,
            output_matches=matches_all[lane],
            hamming_fraction=hamming_sum[lane] / max(1, len(benches)),
            cycles=cycles[lane],
            completed=completed_all[lane],
        )
        for lane, key in enumerate(keys)
    ]


def run_key_trial(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    key: LockingKey,
    cycle_cap: int,
    engine: Optional[str] = None,
) -> KeyTrialResult:
    """Simulate one locking key over all workloads.

    A one-lane delegation to :func:`run_key_trials`, so scalar and
    batched campaigns agree by construction.
    """
    return run_key_trials(component, benches, [key], cycle_cap, engine=engine)[0]


def _key_batch_worker(shared, key_bits_batch: Sequence[int]):
    """Module-level trampoline so pool workers can unpickle the task.

    Each task is one worker's share of the locking-key bit patterns
    (see :func:`repro.runtime.campaign.key_batches`), simulated in one
    :func:`run_key_trials` call so the codegen engine sweeps them as
    lanes.  Returns ``(trials, cache_delta)``: the worker measures its
    own cache-counter increments per task so the parent can absorb
    them — trials run in nested pools would otherwise vanish from
    campaign telemetry (the workers' counters die with their
    processes).
    """
    from repro.runtime.cache import cache_stats, stats_delta

    component, benches, cycle_cap, width, engine = shared
    stats_before = cache_stats()
    keys = [LockingKey(bits=bits, width=width) for bits in key_bits_batch]
    trials = run_key_trials(component, benches, keys, cycle_cap, engine=engine)
    return trials, stats_delta(stats_before, cache_stats())


def build_report(
    component_name: str,
    trials: Sequence[KeyTrialResult],
) -> ValidationReport:
    """Aggregate trials (correct key first) into a report.

    The baseline latency is the correct-key trial's cycle count.  With
    no wrong-key trials ``wrong_keys_all_corrupt`` is ``None`` —
    ``all([])`` would vacuously claim every wrong key corrupts.
    """
    if not trials:
        raise ValueError(
            "build_report needs at least the correct-key trial"
        )
    correct_trial = trials[0]
    baseline_cycles = correct_trial.cycles
    wrong_trials = list(trials[1:])
    wrong_hammings = [t.hamming_fraction for t in wrong_trials]
    latency_changed = sum(
        1 for t in wrong_trials if t.cycles != baseline_cycles
    )
    return ValidationReport(
        component_name=component_name,
        n_keys=len(trials),
        correct_key_ok=correct_trial.output_matches,
        wrong_keys_all_corrupt=(
            all(not t.output_matches for t in wrong_trials)
            if wrong_trials
            else None
        ),
        average_hamming=(
            sum(wrong_hammings) / len(wrong_hammings) if wrong_hammings else 0.0
        ),
        min_hamming=min(wrong_hammings, default=0.0),
        max_hamming=max(wrong_hammings, default=0.0),
        baseline_cycles=baseline_cycles,
        latency_changed_keys=latency_changed,
        trials=list(trials),
    )


def validate_component(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    n_keys: int = 100,
    seed: int = 7,
    max_cycles: int | None = None,
    jobs: int = 1,
    engine: Optional[str] = None,
) -> ValidationReport:
    """Run the §4.3 campaign: one correct key + ``n_keys - 1`` wrong keys.

    A key "corrupts" when at least one workload's outputs differ from
    the golden outputs.  Hamming fractions are averaged over workloads
    and wrong keys.  Wrong-key simulations are capped at 8x the
    correct-key latency; a timed-out run counts as corrupted with its
    produced outputs.

    ``n_keys`` must be at least 2: a campaign with no wrong keys can
    only report vacuous success.  Wrong keys always flow through the
    batched trial path (:func:`run_key_trials`); with ``jobs > 1`` they
    are split into ``jobs`` batches
    (:func:`repro.runtime.campaign.key_batches`) that fan out over a
    process pool instead of running inline.
    Keys are drawn up front from ``seed`` and trial results are
    independent of the batch boundaries, so every process/batch layout
    produces the identical report, and the workers' cache counters are
    folded back into this process so telemetry counts every trial.

    ``engine`` selects the FSMD engine for every trial (compiled
    default / codegen batched / interp reference — the report is
    engine-independent).  The fast tiers lower the design exactly once
    per process (``compiled_for`` / ``codegen_for`` memoize on the
    design object): the compiled plan rebinds per key via a cheap
    ``bind_key``, while the codegen plan binds each key batch at once
    (``bind_keys``) and sweeps it through lane-vectorized storage.
    Nested pool workers each receive the component once through the
    pool initializer, so they too compile once and share the plan
    across all their trials.
    """
    if n_keys < 2:
        raise ValueError(
            f"n_keys={n_keys}: a validation campaign needs the correct key "
            "plus at least one wrong key"
        )
    if not benches:
        raise ValueError(
            "a validation campaign needs at least one workload: with no "
            "testbenches every key vacuously 'matches'"
        )
    rng = random.Random(seed)
    correct = component.locking_key
    wrong_keys = generate_wrong_keys(correct, n_keys - 1, rng)

    correct_trial = run_key_trial(
        component,
        benches,
        correct,
        UNCAPPED_CYCLES if max_cycles is None else max_cycles,
        engine=engine,
    )
    baseline_cycles = correct_trial.cycles
    cap = wrong_key_cycle_cap(baseline_cycles, max_cycles)

    if jobs > 1 and len(wrong_keys) > 1:
        from repro.runtime.cache import absorb_stats
        from repro.runtime.campaign import key_batches, parallel_map

        outcomes = parallel_map(
            _key_batch_worker,
            key_batches([key.bits for key in wrong_keys], jobs),
            shared=(
                component,
                benches,
                cap,
                correct.width,
                engine,
            ),
            jobs=jobs,
        )
        wrong_trials = [trial for trials, _delta in outcomes for trial in trials]
        # Fold the workers' counter deltas into this process so
        # cache_stats() (and campaign --cache-stats) counts every
        # trial, not just the ones run inline.
        for _trials, delta in outcomes:
            absorb_stats(delta)
    else:
        wrong_trials = run_key_trials(
            component, benches, wrong_keys, cap, engine=engine
        )
    return build_report(component.design.name, [correct_trial, *wrong_trials])


def output_corruptibility(
    component: ObfuscatedComponent,
    bench: Testbench,
    wrong_keys: Sequence[LockingKey],
    max_cycles: int = 400_000,
    engine: Optional[str] = None,
) -> float:
    """Average output Hamming fraction over the given wrong keys
    (:func:`run_key_trials` on the one workload)."""
    trials = run_key_trials(component, [bench], wrong_keys, max_cycles, engine)
    return sum(trial.hamming_fraction for trial in trials) / max(1, len(wrong_keys))
