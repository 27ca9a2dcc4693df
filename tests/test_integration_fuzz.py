"""End-to-end fuzzing: randomly generated C kernels through the whole
stack (parse → optimize → HLS → simulate, then the full TAO flow).

The generator builds structurally diverse but always-terminating
kernels: bounded for-loops, loops whose exit also depends on data,
early returns from inside loops, nested ifs, array reads/writes and a
mix of arithmetic operators.  Three properties are checked per program:

1. the FSMD simulation of the baseline design equals the golden IR
   interpretation;
2. the fully obfuscated design under the *correct* working key equals
   the golden interpretation, and a bit-flipped key does not lock up
   the harness (it either corrupts or times out);
3. under sampled wrong keys and a small cycle cap, the compiled plan
   running its loops as loop closures equals the interpreter field by
   field.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.compiled as compiled_module
from repro.sim import Testbench, run_testbench
from repro.sim.compiled import CompiledDesign
from repro.sim.fsmd_sim import FsmdSimulator
from repro.tao import TaoFlow


class ProgramGenerator:
    """Seeded generator of terminating C-subset kernels."""

    OPERATORS = ["+", "-", "*", "/", "%", "&", "|", "^", ">>", "<<"]
    COMPARATORS = ["<", "<=", ">", ">=", "==", "!="]

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.scalars = ["a", "b", "acc"]

    def expression(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            choice = rng.random()
            if choice < 0.4:
                return rng.choice(self.scalars)
            if choice < 0.7:
                return str(rng.randint(1, 50))
            return f"data[{rng.choice(['i', str(rng.randint(0, 7))])}]"
        lhs = self.expression(depth + 1)
        rhs = self.expression(depth + 1)
        op = rng.choice(self.OPERATORS)
        if op in ("/", "%"):
            rhs = str(self.rng.randint(1, 9))  # avoid div-by-zero noise
        if op in (">>", "<<"):
            rhs = str(self.rng.randint(0, 7))  # bounded shift
        return f"({lhs} {op} {rhs})"

    def condition(self) -> str:
        return (
            f"({self.expression(1)} {self.rng.choice(self.COMPARATORS)} "
            f"{self.expression(1)})"
        )

    def statement(self, depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.08:
            # Every statement sits inside a loop: an early return.
            return f"if {self.condition()} {{ return {self.expression()}; }}"
        if roll < 0.45 or depth >= 2:
            target = rng.choice(self.scalars + ["out[i % 8]"])
            return f"{target} = {self.expression()};"
        if roll < 0.75:
            then_stmt = self.statement(depth + 1)
            else_stmt = self.statement(depth + 1)
            return (
                f"if {self.condition()} {{ {then_stmt} }} "
                f"else {{ {else_stmt} }}"
            )
        body = " ".join(self.statement(depth + 1) for _ in range(rng.randint(1, 2)))
        bound = rng.randint(2, 6)
        loop_var = f"j{depth}"
        body = body.replace("i %", f"{loop_var} %")
        exit_test = f"{loop_var} < {bound}"
        if roll < 0.85:
            # The body's writes can end the loop before its bound.
            exit_test += f" && {self.condition()}"
        return f"for (int {loop_var} = 0; {exit_test}; {loop_var}++) {{ {body} }}"

    def program(self) -> str:
        body = "\n    ".join(self.statement(0) for _ in range(self.rng.randint(2, 4)))
        return f"""
int fuzz(int a, int b, int data[8], int out[8]) {{
  int acc = 1;
  for (int i = 0; i < 8; i++) {{
    {body}
  }}
  return acc + a + b;
}}
"""


def workload(seed: int) -> Testbench:
    rng = random.Random(seed ^ 0xBEEF)
    return Testbench(
        args=[rng.randint(-20, 20), rng.randint(-20, 20)],
        arrays={"data": [rng.randint(-50, 50) for _ in range(8)]},
    )


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
