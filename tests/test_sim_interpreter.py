"""Focused tests for the golden IR interpreter's runtime behaviour, and
its equivalence with a reference that dispatches every instruction on
its opcode at every step."""

import pytest

import repro.opt.constant_folding as constant_folding
from fuzz_programs import ProgramGenerator, workload
from repro.benchsuite import benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.ir.instructions import Opcode
from repro.ir.types import IntType
from repro.ir.values import Constant, ObfuscatedConstant
from repro.opt.constant_folding import evaluate_op
from repro.sim.interpreter import Interpreter, InterpreterError, run_function
from repro.tao import TaoFlow


class TestRuntimeBehaviour:
    def test_step_budget_enforced(self):
        source = "int f() { int s = 0; while (1) { s += 1; } return s; }"
        module = compile_c(source)
        interpreter = Interpreter(module, max_steps=500)
        with pytest.raises(InterpreterError, match="exceeded"):
            interpreter.run("f")

    def test_unknown_function(self):
        module = compile_c("int f() { return 1; }")
        with pytest.raises(InterpreterError, match="ghost"):
            Interpreter(module).run("ghost")

    def test_wrong_arg_count(self):
        module = compile_c("int f(int a) { return a; }")
        with pytest.raises(InterpreterError, match="expects"):
            run_function(module, "f", [1, 2])

    def test_block_trace(self):
        source = "int f(int a) { if (a) return 1; return 0; }"
        module = compile_c(source)
        result = Interpreter(module).run("f", [1], trace_blocks=True)
        assert result.block_trace
        assert result.block_trace[0].startswith("entry")

    def test_instruction_count_grows_with_work(self):
        source = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
        module = compile_c(source)
        small = run_function(module, "f", [2]).instructions_executed
        large = run_function(module, "f", [20]).instructions_executed
        assert large > small

    def test_array_index_wraps(self):
        source = "int f(int a[4]) { return a[7]; }"  # 7 % 4 == 3
        module = compile_c(source)
        result = run_function(module, "f", [], {"a": [10, 20, 30, 40]})
        assert result.return_value == 40

    def test_negative_store_value_wrapped_to_element_type(self):
        source = """
        int f(int out[2]) {
          out[0] = 300;
          return out[0];
        }
        """
        module = compile_c(source)
        # out is int32: 300 fits, no wrap
        assert run_function(module, "f").return_value == 300
        source_char = """
        int f(char out[2]) {
          out[0] = 300;
          return out[0];
        }
        """
        module = compile_c(source_char)
        assert run_function(module, "f").return_value == 300 - 256

    def test_uninitialized_scalar_reads_zero(self):
        source = "int f() { int x; return x + 5; }"
        module = compile_c(source)
        assert run_function(module, "f").return_value == 5

    def test_provided_array_shorter_than_declared(self):
        source = "int f(int a[6]) { return a[5]; }"
        module = compile_c(source)
        assert run_function(module, "f", [], {"a": [1, 2]}).return_value == 0

    def test_callee_array_writes_visible_to_caller(self):
        source = """
        void bump(int a[3]) { for (int i = 0; i < 3; i++) a[i] += 1; }
        int f(int data[3]) { bump(data); bump(data); return data[2]; }
        """
        module = compile_c(source)
        result = run_function(module, "f", [], {"data": [7, 8, 9]})
        assert result.return_value == 11
        assert result.arrays["data"] == [9, 10, 11]

    def test_void_return_value_none(self):
        source = "void f(int out[1]) { out[0] = 3; }"
        module = compile_c(source)
        assert run_function(module, "f").return_value is None

    def test_nested_call_depth(self):
        source = """
        int add1(int x) { return x + 1; }
        int add2(int x) { return add1(add1(x)); }
        int add4(int x) { return add2(add2(x)); }
        int f(int x) { return add4(x); }
        """
        module = compile_c(source)
        assert run_function(module, "f", [10]).return_value == 14


class ReferenceInterpreter(Interpreter):
    """The interpreter as it was before decoded blocks: each step
    re-dispatches the instruction on its opcode and each operand on its
    kind.  Kept as the reference the decoded interpreter must match."""

    def _call(self, func, args, memories, trace, decoded=None):
        env = {}
        scalar_params = func.scalar_params()
        if len(args) != len(scalar_params):
            raise InterpreterError(
                f"{func.name} expects {len(scalar_params)} scalar args, "
                f"got {len(args)}"
            )
        for param, arg in zip(scalar_params, args):
            env[param] = param.type.wrap(arg)
        block = func.entry
        while True:
            if trace is not None:
                trace.append(block.name)
            next_block = None
            for inst in block.instructions:
                self._steps += 1
                if self._steps > self.max_steps:
                    raise InterpreterError(
                        f"exceeded {self.max_steps} steps in {func.name} "
                        "(runaway loop from obfuscated bounds?)"
                    )
                outcome = self._execute(func, inst, env, memories, trace)
                if outcome is _RETURN:
                    return env.get(_RETURN_SLOT)
                if isinstance(outcome, str):
                    next_block = outcome
                    break
            if next_block is None:
                raise InterpreterError(f"block {block.name} fell through")
            block = func.blocks[next_block]

    def _execute(self, func, inst, env, memories, trace):
        op = inst.opcode
        if op is Opcode.JUMP:
            return inst.targets[0]
        if op is Opcode.BRANCH:
            cond = self._read(inst.operands[0], env)
            return inst.targets[0] if cond else inst.targets[1]
        if op is Opcode.RET:
            if inst.operands:
                env[_RETURN_SLOT] = self._read(inst.operands[0], env)
            else:
                env.pop(_RETURN_SLOT, None)
            return _RETURN
        if op is Opcode.LOAD:
            memory = memories[inst.array.name]
            index = self._read(inst.operands[0], env) % len(memory)
            env[inst.result] = memory[index]
            return None
        if op is Opcode.STORE:
            memory = memories[inst.array.name]
            index = self._read(inst.operands[0], env) % len(memory)
            value = self._read(inst.operands[1], env)
            memory[index] = inst.array.element_type.wrap(value)
            return None
        if op is Opcode.CALL:
            return self._execute_call(inst, env, memories, trace)
        result_type = inst.result.type
        operand_values = [self._read(v, env) for v in inst.operands]
        operand_types = [v.type for v in inst.operands]
        value = evaluate_op(op, operand_values, operand_types, result_type)
        if value is None:
            raise InterpreterError(f"cannot evaluate {inst}")
        env[inst.result] = value
        return None

    def _execute_call(self, inst, env, memories, trace):
        callee = self.module.get(inst.callee or "")
        if callee is None:
            raise InterpreterError(f"call to unknown function {inst.callee!r}")
        args = [self._read(v, env) for v in inst.operands]
        callee_memories = {}
        for array in callee.arrays.values():
            if array.is_param:
                bound = inst.array_args.get(array.name)
                if bound is None:
                    raise InterpreterError(
                        f"call to {callee.name!r}: array {array.name!r} unbound"
                    )
                callee_memories[array.name] = memories[bound.name]
            elif array.initializer is not None:
                callee_memories[array.name] = [
                    array.element_type.wrap(v) for v in array.initializer
                ]
            else:
                callee_memories[array.name] = [0] * array.size
        value = self._call(callee, args, callee_memories, trace)
        if inst.result is not None:
            env[inst.result] = inst.result.type.wrap(value or 0)
        return None

    @staticmethod
    def _read(value, env):
        if isinstance(value, ObfuscatedConstant):
            return value.original.value
        if isinstance(value, Constant):
            return value.value
        if value not in env:
            return 0
        return env[value]


_RETURN = object()
_RETURN_SLOT = Constant(0, IntType(1, signed=False))


def outcome(interpreter_class, module, func_name, args=(), arrays=None, **options):
    """Everything a run shows: return value, arrays, step count and
    block trace, or the error message."""
    max_steps = options.pop("max_steps", 5_000_000)
    try:
        result = interpreter_class(module, max_steps).run(
            func_name, args, arrays, **options
        )
    except InterpreterError as exc:
        return ("error", str(exc))
    return (
        result.return_value,
        result.arrays,
        result.instructions_executed,
        result.block_trace,
    )


def assert_matches_reference(module, func_name, args=(), arrays=None, **options):
    decoded = outcome(Interpreter, module, func_name, args, arrays, **options)
    reference = outcome(ReferenceInterpreter, module, func_name, args, arrays, **options)
    assert decoded == reference
    return decoded


CALLS = """
int scale(int x, int k[2]) { int s = 0; for (int i = 0; i < 2; i++) s += x * k[i]; return s; }
void bump(int a[3]) { for (int i = 0; i < 3; i++) a[i] += 1; }
int twice(int x, int k[2]) { return scale(scale(x, k), k); }
int f(int x, int data[3], int k[2]) {
  bump(data);
  int t = twice(x, k);
  if (t > 100) bump(data);
  return t + data[2];
}
"""


class TestDecodedMatchesReference:
    @pytest.mark.parametrize("kernel", benchmark_names())
    def test_kernel_workloads(self, kernel):
        bench = get_benchmark(kernel)
        flow = TaoFlow()
        modules = (
            flow.synthesize_baseline(bench.source, bench.top).module,
            flow.obfuscate(bench.source, bench.top).design.module,
        )
        for module in modules:
            for testbench in bench.make_testbenches():
                assert_matches_reference(
                    module,
                    bench.top,
                    testbench.args,
                    dict(testbench.arrays),
                    trace_blocks=True,
                )

    @pytest.mark.parametrize("seed", range(50))
    def test_fuzz_programs(self, seed):
        generator = ProgramGenerator(seed + 300)
        source = generator.counted_program() if seed % 5 == 4 else generator.program()
        module = TaoFlow().obfuscate(source, "fuzz").design.module
        bench = workload(seed)
        result = assert_matches_reference(
            module, "fuzz", bench.args, dict(bench.arrays), trace_blocks=True
        )
        assert result[0] != "error"
        assert_matches_reference(module, "fuzz", bench.args, dict(bench.arrays))

    def test_call_into_module_not_inlined(self):
        module = compile_c(CALLS)
        assert any(
            inst.opcode is Opcode.CALL for inst in module.function("f").instructions()
        )
        for x in (1, 3, 9):
            value, arrays, steps, trace = assert_matches_reference(
                module, "f", [x], {"data": [7, 8, 9], "k": [2, 5]}, trace_blocks=True
            )
            assert steps > 0 and len(trace) > 3

    def test_every_step_budget_fails_where_the_reference_does(self):
        # The budget is charged a run at a time; it must raise in the
        # same function (caller or callee) as charging every step would.
        module = compile_c(CALLS)
        arrays = {"data": [7, 8, 9], "k": [2, 5]}
        total = outcome(Interpreter, module, "f", [9], dict(arrays))[2]
        errors = 0
        for budget in range(1, total + 1):
            result = assert_matches_reference(
                module, "f", [9], dict(arrays), max_steps=budget
            )
            errors += result[0] == "error"
        assert errors == total - 1

    def test_step_budget_error(self):
        module = compile_c("int f() { int s = 0; while (1) { s += 1; } return s; }")
        assert assert_matches_reference(module, "f", max_steps=500) == (
            "error",
            "exceeded 500 steps in f (runaway loop from obfuscated bounds?)",
        )

    def test_uninitialized_reads(self):
        source = """
        int f(int n, int out[2]) {
          int x; int y;
          for (int i = 0; i < n; i++) { if (i > 1) y = x + i; x = i; }
          out[1] = y;
          return x + y;
        }
        """
        module = compile_c(source)
        for n in (0, 1, 2, 4):
            assert_matches_reference(module, "f", [n], trace_blocks=True)

    def test_store_wraps_to_the_element_type(self):
        # The front end casts before it stores; an IR store of a wider
        # value must still wrap to the array's element type.
        module = compile_c("int f(char out[2], int v) { out[1] = v; return out[1]; }")
        store = next(
            inst
            for inst in module.function("f").instructions()
            if inst.opcode is Opcode.STORE
        )
        store.operands[1] = Constant(300, IntType(32))
        value, arrays, _steps, _trace = assert_matches_reference(module, "f", [0])
        assert value == arrays["out"][1] == 300 - 256

    def test_operation_missing_from_the_table(self, monkeypatch):
        module = compile_c("int f(int a, int b) { int c = a + 1; return c * b; }")
        monkeypatch.delitem(constant_folding.OPERATIONS, Opcode.MUL)
        result = assert_matches_reference(module, "f", [2, 3])
        assert result[0] == "error" and result[1].startswith("cannot evaluate")

    def test_block_that_falls_through(self):
        module = compile_c("int f(int a) { if (a) return 1; return 2; }")
        func = module.function("f")
        last = list(func.blocks.values())[-1]
        assert last.instructions.pop().opcode is Opcode.RET
        for a in (0, 1):
            assert_matches_reference(module, "f", [a], trace_blocks=True)

    def test_module_mutated_between_runs_is_decoded_afresh(self):
        module = compile_c("int f(int a) { return a * 3 + 4; }")
        interpreter = Interpreter(module)
        assert interpreter.run("f", [2]).return_value == 10
        inst = next(
            inst
            for inst in module.function("f").instructions()
            if any(isinstance(v, Constant) and v.value == 4 for v in inst.operands)
        )
        inst.operands = [
            Constant(40, v.type) if isinstance(v, Constant) and v.value == 4 else v
            for v in inst.operands
        ]
        assert interpreter.run("f", [2]).return_value == 46
        assert_matches_reference(module, "f", [2])
