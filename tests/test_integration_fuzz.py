"""End-to-end fuzzing: randomly generated C kernels through the whole
stack (parse → optimize → HLS → simulate, then the full TAO flow).

The generator (``fuzz_programs.ProgramGenerator``) builds structurally
diverse but always-terminating kernels: bounded for-loops, loops whose
exit also depends on data, counted loops with literal bounds, early
returns from inside loops, nested ifs, array reads/writes and a mix of
arithmetic operators.  Four properties are checked per program:

1. the FSMD simulation of the baseline design equals the golden IR
   interpretation;
2. the fully obfuscated design under the *correct* working key equals
   the golden interpretation, and a bit-flipped key does not lock up
   the harness (it either corrupts or times out);
3. under sampled wrong keys and a small cycle cap, the compiled plan
   running its loops as loop closures equals the interpreter field by
   field;
4. so it does at the validation campaign's cap, where wrong keys that
   decode a counted loop's bound far away take counter jumps.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.compiled as compiled_module
from fuzz_programs import ProgramGenerator, workload
from repro.sim import run_testbench
from repro.sim.compiled import CompiledDesign
from repro.sim.fsmd_sim import FsmdSimulator
from repro.tao import TaoFlow


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_baseline_hls_agrees_with_golden(seed):
    source = ProgramGenerator(seed).program()
    flow = TaoFlow()
    design = flow.synthesize_baseline(source, "fuzz")
    outcome = run_testbench(design, workload(seed))
    assert outcome.matches, f"seed {seed} diverged:\n{source}"


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_obfuscated_correct_key_agrees(seed):
    source = ProgramGenerator(seed + 100).program()
    component = TaoFlow().obfuscate(source, "fuzz")
    outcome = run_testbench(
        component.design, workload(seed), working_key=component.correct_working_key
    )
    assert outcome.matches, f"seed {seed} diverged under correct key:\n{source}"


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_flipped_key_bit_never_crashes(seed):
    source = ProgramGenerator(seed + 200).program()
    component = TaoFlow().obfuscate(source, "fuzz")
    bench = workload(seed)
    good = run_testbench(
        component.design, bench, working_key=component.correct_working_key
    )
    assert good.matches
    rng = random.Random(seed)
    w = component.working_key_bits
    for _ in range(3):
        flipped = component.correct_working_key ^ (1 << rng.randrange(w))
        outcome = run_testbench(
            component.design, bench, working_key=flipped, max_cycles=6 * good.cycles
        )
        # Must terminate (possibly by budget) without raising.
        assert outcome.cycles > 0


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_wrong_keys_in_loop_closures_match_interp(seed, monkeypatch):
    """Sampled wrong keys at a small cap: a compiled plan that runs each
    cycle of chain entries as a loop closure from its first dispatch
    equals the interpreter, field by field."""
    monkeypatch.setattr(compiled_module, "_FUSE_AFTER", 1)
    monkeypatch.setattr(compiled_module, "_WARM_AFTER", 0)
    monkeypatch.setattr(compiled_module, "_LOOP_REPAY", 0)
    source = ProgramGenerator(seed + 300).program()
    component = TaoFlow().obfuscate(source, "fuzz")
    design = component.design
    bench = workload(seed)
    good = FsmdSimulator(design).run(
        bench.args, dict(bench.arrays), component.correct_working_key
    )
    cap = 2 * good.cycles
    plan = CompiledDesign(design)
    rng = random.Random(seed)
    for _ in range(6):
        key = rng.getrandbits(component.working_key_bits)
        interp = FsmdSimulator(design, max_cycles=cap).run(bench.args, dict(bench.arrays), key)
        compiled = plan.run(bench.args, dict(bench.arrays), working_key=key, max_cycles=cap)
        assert (
            compiled.return_value,
            compiled.arrays,
            compiled.cycles,
            compiled.completed,
        ) == (interp.return_value, interp.arrays, interp.cycles, interp.completed), source
    assert plan.loop_cycles > 0, source


def test_fuzz_wrong_keys_take_counter_jumps(monkeypatch):
    """Kernels of counted loops under sampled wrong keys at the
    campaign's cap (8x the correct-key latency, at least 4000 cycles),
    loops built at once: every compiled result equals the interpreter's,
    and at least half the programs take counter jumps."""
    for name, value in (("_FUSE_AFTER", 1), ("_WARM_AFTER", 0), ("_LOOP_REPAY", 0)):
        monkeypatch.setattr(compiled_module, name, value)
    jumped = 0
    for seed in range(6):
        source = ProgramGenerator(seed + 500).counted_program()
        component = TaoFlow().obfuscate(source, "fuzz")
        design = component.design
        bench = workload(seed)
        good = FsmdSimulator(design).run(
            bench.args, dict(bench.arrays), component.correct_working_key
        )
        cap = max(8 * good.cycles, 4000)
        plan = CompiledDesign(design)
        rng = random.Random(seed)
        for _ in range(4):
            key = rng.getrandbits(component.working_key_bits)
            interp = FsmdSimulator(design, max_cycles=cap).run(
                bench.args, dict(bench.arrays), key
            )
            compiled = plan.run(bench.args, dict(bench.arrays), working_key=key, max_cycles=cap)
            assert (
                compiled.return_value,
                compiled.arrays,
                compiled.cycles,
                compiled.completed,
            ) == (interp.return_value, interp.arrays, interp.cycles, interp.completed), source
        jumped += plan.counter_skips > 0
    assert jumped >= 3


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1000, max_value=9999))
def test_property_fuzz_pipeline_stability(seed):
    """Hypothesis sweep: any generated program compiles, schedules,
    binds and simulates consistently."""
    source = ProgramGenerator(seed).program()
    flow = TaoFlow()
    design = flow.synthesize_baseline(source, "fuzz")
    outcome = run_testbench(design, workload(seed))
    assert outcome.matches
