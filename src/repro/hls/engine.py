"""HLS driver: compile an IR function into an FSMD design.

This is the mid-level of Figure 2 in the paper: scheduling, module /
register / interconnection binding, and controller synthesis.  The TAO
flow (``repro.tao.flow``) wraps this driver with the obfuscation
passes.
"""

from __future__ import annotations

from typing import Optional

from repro.hls.binding import bind_function
from repro.hls.controller import synthesize_controller
from repro.hls.design import FsmdDesign
from repro.hls.resources import ResourceConstraints
from repro.hls.scheduling import schedule_function
from repro.ir.function import Function, Module
from repro.ir.instructions import Opcode
from repro.opt.pass_manager import optimize_module


class HlsError(Exception):
    """Raised when a function cannot be synthesized."""


def synthesize_function(
    module: Module,
    func_name: str,
    constraints: Optional[ResourceConstraints] = None,
) -> FsmdDesign:
    """Synthesize ``func_name`` (already optimized/inlined) to an FSMD."""
    func = module.get(func_name)
    if func is None:
        raise HlsError(f"no function {func_name!r} in module")
    _reject_calls(func)
    # Each block's schedule is checked against the DFG it was built
    # from inside the scheduler.
    schedule = schedule_function(func, constraints)
    binding = bind_function(func, schedule)
    controller = synthesize_controller(func, schedule)
    return FsmdDesign(
        module=module,
        func=func,
        schedule=schedule,
        binding=binding,
        controller=controller,
    )


def hls_flow(
    module: Module,
    top: str,
    constraints: Optional[ResourceConstraints] = None,
    optimize: bool = True,
) -> FsmdDesign:
    """Full baseline flow: optimize + inline the module, then synthesize.

    ``top`` names the top-level function; every callee is inlined into
    it first (the HLS engine handles one flat function, as TAO does
    after its front-end transformations, §3.3.1).
    """
    if optimize:
        optimize_module(module, inline=True)
    return synthesize_function(module, top, constraints)


def _reject_calls(func: Function) -> None:
    for inst in func.instructions():
        if inst.opcode is Opcode.CALL:
            raise HlsError(
                f"{func.name} still contains a call to {inst.callee!r}; "
                "run inlining first (opt.inline_module)"
            )
