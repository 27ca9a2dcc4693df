"""Unit tests for the security-validation metrics module."""

import random

import pytest

from repro.sim import Testbench
from repro.sim.testbench import hamming_distance_fraction
from repro.tao import LockingKey, TaoFlow
from repro.tao.metrics import (
    UNCAPPED_CYCLES,
    WRONG_KEY_CYCLE_FLOOR,
    generate_wrong_keys,
    output_corruptibility,
    validate_component,
    wrong_key_cycle_cap,
)

SOURCE = """
int kernel(int seed, int out[4]) {
  int acc = seed * 21 + 4;
  for (int i = 0; i < 4; i++) {
    if (acc % 2 == 0) acc = acc / 2 + 3;
    else acc = acc * 3 - 1;
    out[i] = acc;
  }
  return acc;
}
"""

BENCH = Testbench(args=[7])


@pytest.fixture(scope="module")
def component():
    return TaoFlow().obfuscate(SOURCE, "kernel")


class TestValidateComponent:
    def test_first_trial_is_correct_key(self, component):
        report = validate_component(component, [BENCH], n_keys=6)
        assert report.trials[0].is_correct_key
        assert report.trials[0].output_matches
        assert report.trials[0].hamming_fraction == 0.0

    def test_report_bounds(self, component):
        report = validate_component(component, [BENCH], n_keys=8)
        assert 0.0 <= report.min_hamming <= report.average_hamming
        assert report.average_hamming <= report.max_hamming <= 1.0
        assert report.baseline_cycles > 0

    def test_multiple_workloads_aggregate(self, component):
        benches = [BENCH, Testbench(args=[11])]
        report = validate_component(component, benches, n_keys=5)
        assert report.correct_key_ok
        assert report.wrong_keys_all_corrupt

    def test_keys_distinct(self, component):
        report = validate_component(component, [BENCH], n_keys=10)
        bits = [t.locking_key.bits for t in report.trials]
        assert len(set(bits)) == len(bits)

    def test_explicit_cycle_cap_respected(self, component):
        report = validate_component(component, [BENCH], n_keys=4, max_cycles=200)
        for trial in report.trials[1:]:
            assert trial.cycles <= 200

    def test_wrong_key_cap_is_never_the_uncapped_budget(self):
        """The wrong-key cap is 8x the baseline with a floor, including for
        a zero-cycle baseline; only an explicit cap overrides it."""
        assert wrong_key_cycle_cap(0, None) == WRONG_KEY_CYCLE_FLOOR < UNCAPPED_CYCLES
        assert wrong_key_cycle_cap(WRONG_KEY_CYCLE_FLOOR // 8 - 1, None) == WRONG_KEY_CYCLE_FLOOR
        assert wrong_key_cycle_cap(1000, None) == 8000
        assert wrong_key_cycle_cap(0, 77) == wrong_key_cycle_cap(1000, 77) == 77

    def test_deterministic_per_seed(self, component):
        a = validate_component(component, [BENCH], n_keys=5, seed=3)
        b = validate_component(component, [BENCH], n_keys=5, seed=3)
        assert [t.hamming_fraction for t in a.trials] == [
            t.hamming_fraction for t in b.trials
        ]


class TestWrongKeyKeyspaceBoundaries:
    def test_exact_keyspace_enumerates_all(self):
        # 2^w - 1 == n_wrong: the request exactly matches the wrong-key
        # space, so enumeration must return every wrong key once.
        rng = random.Random(1)
        correct = LockingKey(bits=9, width=4)
        keys = generate_wrong_keys(correct, 15, rng)
        assert sorted(k.bits for k in keys) == [
            b for b in range(16) if b != 9
        ]

    def test_one_above_exact_keyspace_still_enumerates(self):
        # n_wrong one larger than the keyspace: still the full space.
        rng = random.Random(2)
        correct = LockingKey(bits=0, width=4)
        keys = generate_wrong_keys(correct, 16, rng)
        assert sorted(k.bits for k in keys) == list(range(1, 16))

    def test_width_just_above_enumeration_cutoff_samples(self):
        # width 21 > the 20-bit enumeration cutoff: rejection sampling
        # must still deliver the full request, deduplicated, with every
        # candidate inside the 21-bit keyspace and none the correct key.
        rng = random.Random(3)
        correct = LockingKey(bits=123456, width=21)
        keys = generate_wrong_keys(correct, 64, rng)
        assert len(keys) == 64
        bits = [k.bits for k in keys]
        assert len(set(bits)) == len(bits)
        assert correct.bits not in bits
        assert all(0 <= b < (1 << 21) for b in bits)
        assert all(k.width == 21 for k in keys)

    def test_width_at_cutoff_small_request_samples(self):
        # width exactly 20 but a small request: the keyspace dwarfs
        # n_wrong, so sampling (not a 2^20 enumeration) serves it.
        rng = random.Random(4)
        correct = LockingKey(bits=7, width=20)
        keys = generate_wrong_keys(correct, 10, rng)
        assert len(keys) == 10
        bits = [k.bits for k in keys]
        assert len(set(bits)) == len(bits)
        assert correct.bits not in bits
        assert all(0 <= b < (1 << 20) for b in bits)


class TestHammingLengthMismatch:
    """A timed-out run can produce fewer (or zero) output bits than the
    golden vector; the missing tail must count as fully corrupted."""

    def test_missing_tail_counts_as_corrupted(self):
        golden = [1, 0, 1, 1]
        truncated = [1, 0]  # simulation died before writing the tail
        assert hamming_distance_fraction(golden, truncated) == 0.5

    def test_longer_simulated_vector_also_penalized(self):
        assert hamming_distance_fraction([1], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_empty_against_nonempty_is_full_corruption(self):
        assert hamming_distance_fraction([0, 1, 0], []) == 1.0
        assert hamming_distance_fraction([], [0, 1, 0]) == 1.0

    def test_both_empty_is_zero(self):
        assert hamming_distance_fraction([], []) == 0.0


class TestOutputCorruptibility:
    def test_zero_for_correct_key(self, component):
        value = output_corruptibility(component, BENCH, [component.locking_key])
        assert value == 0.0

    def test_positive_for_wrong_keys(self, component):
        rng = random.Random(2)
        wrong = [LockingKey.random(rng) for _ in range(3)]
        value = output_corruptibility(component, BENCH, wrong, max_cycles=50_000)
        assert 0.0 < value <= 1.0

    def test_empty_key_list(self, component):
        assert output_corruptibility(component, BENCH, []) == 0.0
