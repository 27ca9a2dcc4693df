"""The attack-engine subsystem: key-recovery adversaries as registered
capabilities.

Models the spectrum of adversaries the untrusted-foundry threat model
(paper §2, §3.1) must resist, each registered under the ``attack``
capability kind and swept as a campaign axis (``repro campaign
--attack``):

* :mod:`repro.attack.surface` — the defender-margin probes
  (``random-key``, ``key-sensitivity``, ``slice-brute-force``,
  ``replication-leak``);
* :mod:`repro.attack.oracle_guided` — SAT-style distinguishing-input
  pruning of a candidate-key population (``oracle-guided``);
* :mod:`repro.attack.hillclimb` — greedy bit-flip descent on output
  Hamming distance with restarts (``hill-climb``);
* :mod:`repro.attack.resistance` — brute-force resistance curves:
  keyspace coverage vs. output-corruption CDF (``resistance-curve``);
* :mod:`repro.attack.contract` — the structured result shape every
  adapter must return (name + cost + outcome) and the validating
  :func:`run_attack` funnel.

Importing this package registers every builtin attack (it is the
``attack`` entry of ``repro.registry._BUILTIN_SOURCES``).
"""

from repro.attack.contract import (
    COST_FIELDS,
    AttackResultError,
    attack_names,
    inapplicable,
    run_attack,
    validate_attack_result,
    zero_cost,
)
from repro.attack.hillclimb import HillClimbResult, hill_climb_attack
from repro.attack.oracle_guided import (
    TRACTABLE_SLICE_BITS,
    KeyBitPartition,
    OracleGuidedResult,
    oracle_guided_attack,
    partition_key_bits,
)
from repro.attack.resistance import ResistanceCurveResult, resistance_curve
from repro.attack.surface import (
    KeySensitivityResult,
    RandomKeyAttackResult,
    ReplicationLeakResult,
    SliceBruteForceResult,
    brute_force_slice_with_oracle,
    key_sensitivity_analysis,
    random_key_attack,
    replication_leak_analysis,
)

__all__ = [
    "AttackResultError",
    "COST_FIELDS",
    "HillClimbResult",
    "KeyBitPartition",
    "KeySensitivityResult",
    "OracleGuidedResult",
    "RandomKeyAttackResult",
    "ReplicationLeakResult",
    "ResistanceCurveResult",
    "SliceBruteForceResult",
    "TRACTABLE_SLICE_BITS",
    "attack_names",
    "brute_force_slice_with_oracle",
    "hill_climb_attack",
    "inapplicable",
    "key_sensitivity_analysis",
    "oracle_guided_attack",
    "partition_key_bits",
    "random_key_attack",
    "replication_leak_analysis",
    "resistance_curve",
    "run_attack",
    "validate_attack_result",
    "zero_cost",
]
