"""Unit tests for locking-key management (replication and AES schemes)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.tao.key import LockingKey
from repro.tao.keymgmt import (
    AesKeyManager,
    ReplicationKeyManager,
    choose_working_key,
)


class TestReplication:
    def test_fanout(self):
        assert ReplicationKeyManager(512, 256).fanout == 2
        assert ReplicationKeyManager(257, 256).fanout == 2
        assert ReplicationKeyManager(256, 256).fanout == 1
        assert ReplicationKeyManager(0, 256).fanout == 0

    def test_derive_replicates_bits(self):
        key = LockingKey(bits=0b1011, width=4)
        manager = ReplicationKeyManager(10, locking_key_width=4)
        working = manager.derive_working_key(key)
        for i in range(10):
            assert (working >> i) & 1 == key.bit(i % 4)

    @pytest.mark.parametrize("key_width", [1, 8, 256])
    @pytest.mark.parametrize("working_bits", [0, 1, 255, 256, 257, 4625])
    def test_closed_form_matches_bitwise_loop(self, working_bits, key_width):
        def reference(key: LockingKey) -> int:
            # The bitwise definition: bit i is locking-key bit i mod K.
            working = 0
            for i in range(working_bits):
                working |= key.bit(i) << i
            return working

        rng = random.Random(working_bits * 1000 + key_width)
        manager = ReplicationKeyManager(working_bits, locking_key_width=key_width)
        keys = [LockingKey(0, key_width), LockingKey((1 << key_width) - 1, key_width)]
        keys += [LockingKey.random(rng, key_width) for _ in range(3)]
        for key in keys:
            assert manager.derive_working_key(key) == reference(key)

    def test_install_consistency(self):
        rng = random.Random(0)
        key = LockingKey.random(rng)
        manager = ReplicationKeyManager(600)
        working = manager.derive_working_key(key)
        recovered = manager.install(working)
        assert manager.derive_working_key(recovered) == working

    def test_install_rejects_nonperiodic_key(self):
        manager = ReplicationKeyManager(300, locking_key_width=256)
        # bit 257 set but bit 1 clear -> not replication-consistent
        with pytest.raises(ValueError, match="replication-consistent"):
            manager.install(1 << 257)

    def test_zero_overhead(self):
        assert ReplicationKeyManager(4096).overhead().total == 0.0


class TestAesScheme:
    def test_roundtrip(self):
        rng = random.Random(1)
        locking = LockingKey.random(rng)
        manager = AesKeyManager(1000)
        working = rng.getrandbits(1000)
        manager.install(locking, working)
        assert manager.derive_working_key(locking) == working

    def test_wrong_locking_key_garbage(self):
        rng = random.Random(2)
        locking = LockingKey.random(rng)
        wrong = LockingKey.random(rng)
        manager = AesKeyManager(1000)
        working = rng.getrandbits(1000)
        manager.install(locking, working)
        derived = manager.derive_working_key(wrong)
        assert derived != working
        # Garbage should look random: roughly half the bits differ.
        differ = bin(derived ^ working).count("1")
        assert 300 < differ < 700

    def test_requires_programming(self):
        manager = AesKeyManager(64)
        with pytest.raises(ValueError, match="NVM"):
            manager.derive_working_key(LockingKey.random(random.Random(0)))

    def test_overhead_scales_with_w(self):
        small = AesKeyManager(100).overhead()
        large = AesKeyManager(4000).overhead()
        assert small.aes_core == large.aes_core  # fixed contribution
        assert large.nvm_bits > small.nvm_bits
        assert large.key_registers > small.key_registers
        assert large.total > small.total

    def test_invalid_locking_width(self):
        with pytest.raises(ValueError):
            AesKeyManager(100, locking_key_width=100)

    def test_zero_width_working_key_derives_zero(self):
        # Regression: the NVM image always stores >= 1 byte, and the
        # old mask max(1, W) let a zero-width working key decrypt to 1
        # whenever the image's low bit happened to be set.  A design
        # with no key bits must derive the empty (0) working key for
        # every delivered locking key.
        rng = random.Random(6)
        locking = LockingKey.random(rng)
        manager = AesKeyManager(0)
        manager.install(locking, 0)
        assert manager.derive_working_key(locking) == 0
        for _ in range(8):
            assert manager.derive_working_key(LockingKey.random(rng)) == 0

    def test_zero_width_via_choose_working_key(self):
        key = LockingKey.random(random.Random(7))
        manager, working = choose_working_key(0, key, scheme="aes")
        assert working == 0
        assert manager.derive_working_key(key) == 0


class TestChooseWorkingKey:
    def test_replication_scheme(self):
        key = LockingKey.random(random.Random(3))
        manager, working = choose_working_key(700, key, scheme="replication")
        assert isinstance(manager, ReplicationKeyManager)
        assert manager.derive_working_key(key) == working

    def test_aes_scheme(self):
        key = LockingKey.random(random.Random(4))
        manager, working = choose_working_key(700, key, scheme="aes")
        assert isinstance(manager, AesKeyManager)
        assert manager.derive_working_key(key) == working

    def test_unknown_scheme(self):
        key = LockingKey.random(random.Random(5))
        with pytest.raises(ValueError, match="unknown"):
            choose_working_key(100, key, scheme="bogus")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=2**64))
    def test_property_both_schemes_deterministic(self, w, seed):
        key = LockingKey.random(random.Random(seed))
        for scheme in ("replication", "aes"):
            m1, w1 = choose_working_key(w, key, scheme=scheme, rng=random.Random(0))
            m2, w2 = choose_working_key(w, key, scheme=scheme, rng=random.Random(0))
            assert w1 == w2
            assert m1.derive_working_key(key) == m2.derive_working_key(key)
