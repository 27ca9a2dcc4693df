"""Seeded generator of terminating C-subset kernels, shared by the fuzz
tests.

A kernel is one ``for`` loop over eight elements holding two to four
random statements: assignments over a mix of arithmetic operators,
nested ifs, early returns, array reads and writes, short loops whose
exit may also test data, and counted loops.  A counted loop has a
literal bound (which the ``constants`` stage obfuscates, so a wrong key
decodes another bound), counts up or down by a literal step, sometimes
in a ``char`` or ``short`` counter, and reads its counter as an array
index, a shift amount or a comparison operand, or stores it to memory.
"""

import random

from repro.sim import Testbench


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

    def counted_loop(self, depth: int) -> str:
        """A loop with a literal bound whose counter the body reads."""
        rng = self.rng
        var = f"k{depth}"
        kind = rng.choice(["int", "int", "char", "short"])
        bound = rng.randint(3, 24)
        step = rng.choice([1, 1, 2, 3])
        if rng.random() < 0.35:
            header = f"for ({kind} {var} = {bound}; {var} > 0; {var} -= {step})"
        else:
            header = f"for ({kind} {var} = 0; {var} < {bound}; {var} += {step})"
        uses = []
        for _ in range(rng.randint(1, 2)):
            target = rng.choice(self.scalars)
            roll = rng.random()
            if roll < 0.3:
                uses.append(f"{target} = {target} + data[{var}];")
            elif roll < 0.45:
                uses.append(f"out[{var}] = {self.expression(1)};")
            elif roll < 0.6:
                uses.append(f"{target} = {target} + ({rng.randint(1, 9)} << {var});")
            elif roll < 0.75:
                uses.append(
                    f"if ({var} {rng.choice(self.COMPARATORS)} {self.expression(2)}) "
                    f"{{ {target} = {target} + {rng.randint(1, 9)}; }}"
                )
            elif roll < 0.9:
                uses.append(f"{target} = {target} - {rng.randint(1, 5)};")
            else:
                # A stored counter: the loop's repeats must be exact.
                uses.append(f"out[{rng.randint(0, 7)}] = {var};")
        return f"{header} {{ {' '.join(uses)} }}"

    def statement(self, depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.08:
            # Every statement sits inside a loop: an early return.
            return f"if {self.condition()} {{ return {self.expression()}; }}"
        if roll < 0.2 and depth < 2:
            return self.counted_loop(depth)
        if roll < 0.5 or depth >= 2:
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
        return self.kernel(body)

    def counted_program(self) -> str:
        """A kernel whose loop body holds only counted loops."""
        body = "\n    ".join(self.counted_loop(1) for _ in range(self.rng.randint(1, 3)))
        return self.kernel(body)

    @staticmethod
    def kernel(body: str) -> str:
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
