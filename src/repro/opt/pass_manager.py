"""Pass manager orchestrating IR optimization passes.

Passes are callables ``(Function, Module) -> bool`` returning whether
they changed the IR; the manager iterates function-local passes to a
fixed point, mirroring a compiler's -O pipeline.  TAO's front-end runs
this pipeline before counting constants/blocks/branches (Table 1
reports post-optimization numbers).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.ir.function import Function, Module
from repro.ir.verifier import verify_module

FunctionPass = Callable[[Function, Module], bool]


class PassManager:
    """Runs function passes to a fixed point, then verifies the module."""

    def __init__(
        self,
        function_passes: Sequence[FunctionPass],
        max_iterations: int = 25,
        verify: bool = True,
    ) -> None:
        self.function_passes = list(function_passes)
        self.max_iterations = max_iterations
        self.verify = verify
        self.statistics: dict[str, int] = {}

    def run(self, module: Module) -> bool:
        """Apply all passes; returns True when anything changed."""
        changed_any = False
        for func in module:
            for iteration in range(self.max_iterations):
                changed = False
                for pass_fn in self.function_passes:
                    if pass_fn(func, module):
                        changed = True
                        name = getattr(pass_fn, "__name__", str(pass_fn))
                        self.statistics[name] = self.statistics.get(name, 0) + 1
                changed_any |= changed
                if not changed:
                    break
        if self.verify:
            verify_module(module)
        return changed_any


def default_pipeline() -> "PassManager":
    """The standard -O2-like pipeline used before HLS and TAO."""
    from repro.opt.algebraic import simplify_algebraic
    from repro.opt.constant_folding import fold_constants
    from repro.opt.cse import local_cse
    from repro.opt.dce import eliminate_dead_code
    from repro.opt.simplify_cfg import simplify_cfg

    return PassManager(
        [
            fold_constants,
            simplify_algebraic,
            simplify_cfg,
            local_cse,
            eliminate_dead_code,
        ]
    )


def optimize_module(module: Module, inline: bool = True) -> Module:
    """Run inlining (optional) followed by the default pipeline."""
    if inline:
        from repro.opt.inline import inline_module

        inline_module(module)
    default_pipeline().run(module)
    return module
