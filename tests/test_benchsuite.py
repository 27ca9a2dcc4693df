"""Tests for the five-benchmark suite: compilation, golden execution,
HLS agreement and obfuscated correct-key behaviour."""

import pytest

from repro.benchsuite import all_benchmarks, benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.hls import hls_flow
from repro.sim import run_testbench
from repro.tao import TaoFlow

NAMES = ["gsm", "adpcm", "sobel", "backprop", "viterbi"]


class TestRegistry:
    def test_all_five_registered(self):
        assert benchmark_names() == NAMES

    def test_get_benchmark(self):
        bench = get_benchmark("sobel")
        assert bench.top == "sobel"
        assert "image" in bench.description

    def test_descriptions_match_paper_domains(self):
        benches = all_benchmarks()
        assert "telecommunication" in benches["gsm"].description
        assert "pulse code" in benches["adpcm"].description
        assert "neural" in benches["backprop"].description
        assert "Markov" in benches["viterbi"].description


@pytest.mark.parametrize("name", NAMES)
class TestPerBenchmark:
    def test_compiles(self, name):
        bench = get_benchmark(name)
        module = compile_c(bench.source, name)
        assert bench.top in module.functions

    def test_workloads_generated(self, name):
        bench = get_benchmark(name)
        benches = bench.make_testbenches(seed=1, count=3)
        assert len(benches) == 3

    def test_workloads_deterministic(self, name):
        bench = get_benchmark(name)
        a = bench.make_testbenches(seed=5, count=1)[0]
        b = bench.make_testbenches(seed=5, count=1)[0]
        assert a.args == b.args
        assert a.arrays == b.arrays

    def test_fsmd_matches_golden(self, name):
        bench = get_benchmark(name)
        module = compile_c(bench.source, name)
        design = hls_flow(module, bench.top)
        testbench = bench.make_testbenches(seed=0, count=1)[0]
        outcome = run_testbench(design, testbench)
        assert outcome.matches

    def test_golden_output_nontrivial(self, name):
        """The workload must exercise real behaviour (nonzero outputs)."""
        bench = get_benchmark(name)
        module = compile_c(bench.source, name)
        design = hls_flow(module, bench.top)
        testbench = bench.make_testbenches(seed=0, count=1)[0]
        outcome = run_testbench(design, testbench)
        assert any(outcome.golden_bits)


@pytest.mark.parametrize("name", NAMES)
def test_obfuscated_correct_key_matches(name):
    bench = get_benchmark(name)
    component = TaoFlow().obfuscate(bench.source, bench.top)
    testbench = bench.make_testbenches(seed=0, count=1)[0]
    outcome = run_testbench(
        component.design, testbench, working_key=component.correct_working_key
    )
    assert outcome.matches
