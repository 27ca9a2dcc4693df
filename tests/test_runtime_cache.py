"""Tests for the runtime memoization caches (golden model + front end)."""

import pytest

import repro.runtime.cache as cache_module
from repro.runtime.cache import (
    FRONTEND_CACHE,
    GOLDEN_CACHE,
    GoldenCache,
    absorb_stats,
    cache_stats,
    golden_fingerprint,
    reset_caches,
    stats_delta,
)
from repro.sim import Testbench, run_testbench, run_testbench_batch
from repro.tao import ObfuscationParameters, TaoFlow

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


@pytest.fixture(autouse=True)
def fresh_caches():
    reset_caches()
    yield
    reset_caches()


@pytest.fixture()
def component():
    return TaoFlow().obfuscate(SOURCE, "kernel")


class TestGoldenCache:
    def test_second_run_hits(self, component):
        GOLDEN_CACHE.stats.reset()
        run_testbench(component.design, BENCH, working_key=component.correct_working_key)
        run_testbench(component.design, BENCH, working_key=123, max_cycles=2000)
        assert GOLDEN_CACHE.stats.misses == 1
        assert GOLDEN_CACHE.stats.hits == 1

    def test_distinct_workloads_distinct_entries(self, component):
        GOLDEN_CACHE.stats.reset()
        key = component.correct_working_key
        run_testbench(component.design, BENCH, working_key=key)
        run_testbench(component.design, Testbench(args=[8]), working_key=key)
        assert GOLDEN_CACHE.stats.misses == 2
        assert GOLDEN_CACHE.stats.hits == 0

    def test_returns_defensive_copies(self, component):
        key = component.correct_working_key
        outcome_a = run_testbench(component.design, BENCH, working_key=key)
        outcome_a.golden.arrays["out"][0] ^= 0xFFFF
        outcome_a.golden_bits[:] = []
        outcome_b = run_testbench(component.design, BENCH, working_key=key)
        assert outcome_b.golden_bits  # cached master untouched
        assert outcome_b.golden.arrays["out"][0] != outcome_a.golden.arrays["out"][0]

    def test_batch_hashes_once_and_counts_per_lane(self, component, monkeypatch):
        """A cold N-lane batch fingerprints the module once, counts one
        miss plus N-1 hits, and hands every lane its own copy."""
        calls = []
        fingerprint = cache_module.golden_fingerprint

        def counted(module):
            calls.append(module)
            return fingerprint(module)

        monkeypatch.setattr(cache_module, "golden_fingerprint", counted)
        key = component.correct_working_key
        lanes = 4
        outcomes = run_testbench_batch(
            component.design, BENCH, [key] * lanes, max_cycles=2000
        )
        assert len(calls) == 1
        assert GOLDEN_CACHE.stats.misses == 1
        assert GOLDEN_CACHE.stats.hits == lanes - 1
        intact = list(outcomes[1].golden.arrays["out"])
        outcomes[0].golden.arrays["out"][0] ^= 0xFFFF
        outcomes[0].golden_bits[:] = []
        assert outcomes[1].golden.arrays["out"] == intact
        assert outcomes[1].golden_bits == outcomes[2].golden_bits != []
        # A warm batch hits on every lane, still hashing once.
        run_testbench_batch(component.design, BENCH, [key] * lanes, max_cycles=2000)
        assert len(calls) == 2
        assert GOLDEN_CACHE.stats.misses == 1
        assert GOLDEN_CACHE.stats.hits == 2 * lanes - 1

    def test_opt_out_bypasses_cache(self, component):
        GOLDEN_CACHE.stats.reset()
        key = component.correct_working_key
        run_testbench(component.design, BENCH, working_key=key, golden_cache=None)
        run_testbench(component.design, BENCH, working_key=key, golden_cache=None)
        assert GOLDEN_CACHE.stats.lookups == 0

    def test_private_cache_instance(self, component):
        private = GoldenCache()
        key = component.correct_working_key
        run_testbench(component.design, BENCH, working_key=key, golden_cache=private)
        run_testbench(component.design, BENCH, working_key=key, golden_cache=private)
        assert private.stats.misses == 1
        assert private.stats.hits == 1
        assert GOLDEN_CACHE.stats.lookups == 0

    def test_mutated_initializer_invalidates_entry(self):
        # ROM initializers don't appear in str(module); the checksum
        # must still see them (the interpreter reads them).
        rom_source = """
        const int lut[4] = {11, 21, 31, 41};
        int rom_kernel(int i, int out[4]) {
          for (int k = 0; k < 4; k++) {
            out[k] = lut[k] + i;
          }
          return out[3];
        }
        """
        component = TaoFlow().obfuscate(rom_source, "rom_kernel")
        GOLDEN_CACHE.stats.reset()
        key = component.correct_working_key
        bench = Testbench(args=[5])
        first = run_testbench(component.design, bench, working_key=key)
        func = component.design.module.function("rom_kernel")
        rom = next(
            a
            for a in func.arrays.values()
            if not a.is_param and a.initializer is not None
        )
        rom.initializer[0] += 100
        second = run_testbench(component.design, bench, working_key=key)
        assert GOLDEN_CACHE.stats.misses == 2
        assert second.golden_bits != first.golden_bits

    def test_mutated_module_invalidates_entry(self, component):
        GOLDEN_CACHE.stats.reset()
        key = component.correct_working_key
        run_testbench(component.design, BENCH, working_key=key)
        # In-place IR change (anything visible in the printed module)
        # must recompute the golden reference, not serve a stale entry.
        module = component.design.module
        func = module.function(component.design.func.name)
        module.functions["kernel_alias"] = func
        try:
            run_testbench(component.design, BENCH, working_key=key)
        finally:
            del module.functions["kernel_alias"]
        assert GOLDEN_CACHE.stats.misses == 2
        assert GOLDEN_CACHE.stats.hits == 0

    def test_golden_matches_uncached(self, component):
        key = component.correct_working_key
        cached = run_testbench(component.design, BENCH, working_key=key)
        fresh = run_testbench(component.design, BENCH, working_key=key, golden_cache=None)
        assert cached.golden_bits == fresh.golden_bits
        assert cached.golden.return_value == fresh.golden.return_value
        assert cached.golden.arrays == fresh.golden.arrays


class TestGoldenFingerprint:
    def test_stable_across_rebuilds_and_configs(self, component):
        # Distinct module objects, distinct obfuscation configs and key
        # schemes — identical golden semantics, identical fingerprint.
        rebuilt = TaoFlow().obfuscate(SOURCE, "kernel")
        dfg_only = TaoFlow(
            params=ObfuscationParameters(
                obfuscate_branches=False, obfuscate_constants=False
            )
        ).obfuscate(SOURCE, "kernel")
        aes = TaoFlow(key_scheme="aes").obfuscate(SOURCE, "kernel")
        reference = golden_fingerprint(component.design.module)
        for other in (rebuilt, dfg_only, aes):
            assert other.design.module is not component.design.module
            assert golden_fingerprint(other.design.module) == reference

    def test_differs_across_sources(self, component):
        other = TaoFlow().obfuscate(SOURCE.replace("21", "22"), "kernel")
        assert golden_fingerprint(other.design.module) != golden_fingerprint(
            component.design.module
        )

    def test_call_array_bindings_hashed(self):
        # Two programs differing only in WHICH array a call passes must
        # not collide: array_args is interpreter-visible but absent
        # from the IR printer, so the fingerprint hashes it explicitly.
        template = """
        int helper(int src[4], int n) {{
          int total = 0;
          for (int i = 0; i < n; i++) total = total + src[i];
          return total;
        }}
        int top(int a[4], int b[4], int out[4]) {{
          int x = helper({arg}, 4);
          out[0] = x;
          return x;
        }}
        """
        from repro.frontend.lowering import compile_c

        mod_a = compile_c(template.format(arg="a"), "m")
        mod_b = compile_c(template.format(arg="b"), "m")
        assert golden_fingerprint(mod_a) != golden_fingerprint(mod_b)

    def test_eviction_bound_respected(self, component):
        private = GoldenCache(max_entries=2)
        key = component.correct_working_key
        for seed in range(4):
            run_testbench(
                component.design,
                Testbench(args=[seed]),
                working_key=key,
                golden_cache=private,
            )
        assert len(private) == 2  # FIFO-bounded, oldest evicted
        assert private.stats.misses == 4


class TestStatsPlumbing:
    def test_stats_delta_and_absorb(self):
        before = cache_stats()
        TaoFlow().compile_front_end(SOURCE)
        delta = stats_delta(before, cache_stats())
        assert delta["frontend"]["misses"] == 1
        absorb_stats(delta)  # fold the same delta in again
        assert cache_stats()["frontend"]["misses"] == 2

    def test_absorb_rejects_unknown_cache(self):
        with pytest.raises(KeyError, match="unknown cache"):
            absorb_stats({"bogus": {"hits": 1}})


class TestFrontEndCache:
    def test_synthesize_pair_compiles_once(self):
        FRONTEND_CACHE.stats.reset()
        TaoFlow().synthesize_pair(SOURCE, "kernel")
        assert FRONTEND_CACHE.stats.misses == 1
        assert FRONTEND_CACHE.stats.hits == 1

    def test_copies_are_independent(self):
        flow = TaoFlow()
        module_a = flow.compile_front_end(SOURCE, "a")
        module_b = flow.compile_front_end(SOURCE, "b")
        assert module_a is not module_b
        assert module_a.name == "a" and module_b.name == "b"
        module_a.functions.clear()
        assert module_b.functions  # master and sibling copy untouched

    def test_baseline_equals_uncached_baseline(self):
        flow = TaoFlow()
        cached_first = flow.synthesize_baseline(SOURCE, "kernel")
        cached_second = flow.synthesize_baseline(SOURCE, "kernel")
        assert str(cached_first.func) == str(cached_second.func)

    def test_stats_snapshot(self):
        TaoFlow().compile_front_end(SOURCE)
        stats = cache_stats()
        assert stats["frontend"]["misses"] == 1
        assert set(stats) == {"golden", "frontend"}
