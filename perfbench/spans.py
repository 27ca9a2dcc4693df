"""Span tracing of the campaign's layers, installed from outside ``src/``.

:func:`install` wraps each layer's public entry point where its caller
looks the name up (``repro.tao.flow`` imports ``synthesize_function``
by name, ``repro.sim.testbench`` imports ``simulate_batch`` by name,
and so on), so the program itself is unchanged.  Every call records a
span ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``unit`` the campaign unit
index that owns it.  Spans stay in memory; the measured process writes
them out when it exits.

:func:`self_times` turns spans into per-name self time: a span's
duration minus the time its direct children cover, minus the reference
sampler's handler time that landed in it.
"""

from __future__ import annotations

import bisect
import functools
import time
from collections import Counter
from typing import Any, Callable, Optional, Sequence, Union

Label = Union[str, Callable[[tuple, dict], str]]
After = Callable[[Counter, Any, tuple, dict], None]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unit: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside any wrapper (e.g. imports)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.unit])

    def wrap(
        self,
        fn: Callable,
        label: Label,
        after: Optional[After] = None,
        unit_of: Optional[Callable[[tuple, dict], int]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            outer_unit = tracer.unit
            if unit_of is not None:
                tracer.unit = unit_of(args, kwargs)
            record = [
                name,
                time.perf_counter(),
                0.0,
                tracer._stack[-1] if tracer._stack else -1,
                tracer.unit,
            ]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                tracer.unit = outer_unit
            if after is not None:
                after(tracer.counts, result, args, kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, label: Label, **options) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`restore`)."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(getattr(owner, attr), label, **options))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ----------------------------------------------------------------------
# Count hooks: called with the wrapped call's result and arguments
# ----------------------------------------------------------------------
def _count_states(counts: Counter, design, args, kwargs) -> None:
    counts["hls.states"] += design.controller.n_states


def _count_build(counts: Counter, _none, args, kwargs) -> None:
    counts["sim.builds"] += 1
    source = getattr(args[0], "source", None)
    if source is not None:
        counts["sim.codegen_source_chars"] += len(source)


def _count_golden(counts: Counter, _result, args, kwargs) -> None:
    counts["sim.golden_runs"] += 1


def _count_batch(counts: Counter, results, args, kwargs) -> None:
    counts["sim.batches"] += 1
    counts["sim.trials"] += len(results)
    counts["sim.cycles"] += sum(r.cycles for r in results)
    counts["sim.capped_lanes"] += sum(1 for r in results if not r.completed)


def _count_attack(counts: Counter, result, args, kwargs) -> None:
    counts["attack.simulated_trials"] += result["cost"]["simulated_trials"]
    counts["attack.oracle_queries"] += result["cost"]["oracle_queries"]


def _count_retries(counts: Counter, result, args, kwargs) -> None:
    counts["runtime.retries"] += (result.execution or {}).get("retries", 0)


def _count_json(counts: Counter, path, args, kwargs) -> None:
    counts["runtime.json_bytes"] += path.stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of a ``repro campaign`` run."""
    import repro.attack as attack
    import repro.runtime.campaign as campaign
    import repro.runtime.executor as executor
    import repro.sim.testbench as testbench
    import repro.tao.flow as flow
    import repro.tao.metrics as metrics
    from repro.registry import REGISTRY
    from repro.runtime.results import CampaignResult
    from repro.sim.codegen import CodegenDesign
    from repro.sim.compiled import CompiledDesign
    from repro.sim.interpreter import Interpreter

    tracer.patch(flow, "compile_c", "frontend.compile")
    tracer.patch(flow, "optimize_module", "opt.optimize")
    tracer.patch(flow, "synthesize_function", "hls.synthesize", after=_count_states)
    tracer.patch(flow.TaoFlow, "obfuscate", "tao.obfuscate")
    for stage_class in dict.fromkeys(
        type(REGISTRY.get("stage", name)) for name in REGISTRY.names("stage")
    ):
        tracer.patch(stage_class, "apply", lambda args, kw: f"tao.stage.{args[0].name}")
    tracer.patch(metrics, "validate_component", "tao.validate")
    tracer.patch(Interpreter, "run", "sim.golden", after=_count_golden)
    tracer.patch(CompiledDesign, "__init__", "sim.build", after=_count_build)
    tracer.patch(CodegenDesign, "__init__", "sim.build", after=_count_build)
    tracer.patch(testbench, "simulate_batch", "sim.trials", after=_count_batch)
    tracer.patch(attack, "run_attack", lambda args, kw: f"attack.{args[0]}", after=_count_attack)
    tracer.patch(campaign, "plan_campaign", "runtime.plan")
    tracer.patch(executor, "execute_plan", "runtime.execute", after=_count_retries)
    tracer.patch(
        executor, "_execute_unit", "runtime.unit", unit_of=lambda args, kw: args[1][0]
    )
    tracer.patch(CampaignResult, "write", "runtime.write", after=_count_json)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(
    spans: Sequence[Sequence], handler_samples: Sequence[Sequence[float]] = ()
) -> dict[str, float]:
    """Self seconds per span name.

    Spans must nest properly (one thread), which the wrappers
    guarantee.  Each reference sample ``(start, period)`` is charged to
    the innermost span that contains its start, so the sampler's own
    time never counts as any layer's work.
    """
    own = [end - start for _name, start, end, _parent, _unit in spans]
    for _name, start, end, parent, _unit in spans:
        if parent >= 0:
            own[parent] -= end - start
    order = sorted(range(len(spans)), key=lambda i: spans[i][1])
    starts = [spans[i][1] for i in order]
    for sample_start, period in handler_samples:
        position = bisect.bisect_right(starts, sample_start) - 1
        index = order[position] if position >= 0 else -1
        while index >= 0 and spans[index][2] < sample_start:
            index = spans[index][3]
        if index >= 0:
            own[index] -= period
    totals: dict[str, float] = {}
    for (name, *_rest), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals
