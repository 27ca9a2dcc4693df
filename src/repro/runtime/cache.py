"""Process-wide memoization caches for the campaign engine.

Two hot paths dominate every validation campaign:

* the golden software interpretation of a ``(design, testbench)`` pair,
  which is key-independent and therefore identical for all 100 locking
  keys the §4.3 campaign simulates — :class:`GoldenCache` memoizes it so
  the interpreter runs exactly once per pair;
* the front-end compilation + optimization pipeline, which
  ``TaoFlow.synthesize_pair`` used to run twice on the same source
  (baseline + obfuscated) — :class:`FrontEndCache` memoizes the
  optimized module, pickled, keyed on the SHA-256 of the source text
  and unpickles a fresh copy per lookup so callers may mutate freely.

Cache keys:

* golden results: ``(golden fingerprint, func name, testbench
  fingerprint)``.  The golden fingerprint is a *content* checksum of
  the module as the golden interpreter sees it — obfuscated constants
  canonicalize back to their design-time plaintext — so every
  parameter config, key scheme and resource budget of one benchmark
  addresses the same entry: a multi-axis sweep runs the software model
  once per workload, not once per axis cell.
* front-end modules: ``sha256(source)``.  The module name is cosmetic
  and is re-applied to each copy, so ``synthesize_pair``'s baseline and
  obfuscated compilations share one cache entry.

The resolved obfuscation pipeline (:class:`repro.tao.pipeline.FlowSpec`)
deliberately enters *neither* key, because it affects neither cached
output: the front-end cache stores the pre-obfuscation module (stages
run on a private copy afterwards), and the golden fingerprint
canonicalizes obfuscated constants to their plaintext while every
post-schedule stage mutates the FSMD design, never the IR the golden
interpreter reads.  Sweeping the campaign's pipeline axis therefore
rotates no cache keys — all pipelines of one benchmark share one
golden run per workload (asserted by tests).  A future
*semantics-changing* pass would change the golden fingerprint by
construction, which is exactly the fold-in the content addressing
provides.

Both caches live in memory and die with their process; nothing is
persisted.  The module-level singletons (:data:`GOLDEN_CACHE`,
:data:`FRONTEND_CACHE`) are per process, so campaign workers each
warm their own.  :func:`reset_caches` clears both (used by tests and
by long-lived servers that want a cold start).  Worker processes
report their counter increments back as dicts (:func:`stats_delta`)
and the parent folds them in with :func:`absorb_stats`, so telemetry
stays honest across nested process pools.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Optional, Sequence

from repro.ir.values import ObfuscatedConstant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.hls.design import FsmdDesign
    from repro.ir.function import Module
    from repro.ir.instructions import Instruction
    from repro.sim.interpreter import ExecutionResult
    from repro.sim.testbench import Testbench


@dataclass
class CacheStats:
    """Hit/miss counters exposed for tests and campaign telemetry."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


def testbench_fingerprint(
    bench: "Testbench", observed: Sequence[str]
) -> Hashable:
    """Value-based identity of a workload (args, arrays, observables)."""
    return (
        tuple(bench.args),
        tuple(sorted((name, tuple(vals)) for name, vals in bench.arrays.items())),
        tuple(observed),
    )


def _semantic_operand(operand) -> str:
    """Render an operand as the golden interpreter reads it.

    Obfuscated constants decode to their design-time plaintext under
    the correct key, and that plaintext is what the interpreter uses —
    so the fingerprint substitutes the original constant.  This (plus
    obfuscation passes beyond constants operating on the FSMD, not the
    IR) is what makes the fingerprint identical across every parameter
    config, key scheme and resource budget of one benchmark.
    """
    if isinstance(operand, ObfuscatedConstant):
        operand = operand.original
    return str(operand)


def _semantic_instruction(inst: "Instruction") -> str:
    parts: list[str] = []
    if inst.result is not None:
        parts.append(f"{inst.result} = ")
    parts.append(str(inst.opcode))
    if inst.callee:
        parts.append(f" @{inst.callee}")
    if inst.array is not None:
        parts.append(f" {inst.array.name}")
    if inst.operands:
        parts.append(" " + ", ".join(_semantic_operand(op) for op in inst.operands))
    if inst.array_args:
        # Call-site array bindings are interpreter-visible (the callee
        # reads/writes the bound caller arrays) but absent from the IR
        # printer — hash them or two modules differing only in which
        # array a call passes would collide.
        bindings = ", ".join(
            f"{param}={arr.name}"
            for param, arr in sorted(inst.array_args.items())
        )
        parts.append(f" [{bindings}]")
    if inst.targets:
        parts.append(" -> " + ", ".join(inst.targets))
    return "".join(parts)


def golden_fingerprint(module: "Module") -> str:
    """Content checksum of ``module`` under golden (correct-key) semantics.

    Hashes every function's signature, arrays (including initializer
    contents, which ``str(module)`` omits but the interpreter reads)
    and instructions, with obfuscated constants rendered as their
    plaintext originals.  Two modules with equal fingerprints produce
    identical golden executions for any workload, so the fingerprint —
    not object identity — keys :class:`GoldenCache`.  In-place IR
    mutation (an optimization or obfuscation pass run after a
    simulation) changes the fingerprint and therefore misses instead
    of serving stale golden outputs.
    """
    hasher = hashlib.sha256()
    for func in module:
        params = ", ".join(f"{p.type} {p.name}" for p in func.params)
        hasher.update(
            f"func {func.return_type} @{func.name}({params})\n".encode("utf-8")
        )
        for array in func.arrays.values():
            init = (
                tuple(array.initializer)
                if array.initializer is not None
                else None
            )
            hasher.update(
                f"array {array.type} {array.name} param={array.is_param} "
                f"init={init}\n".encode("utf-8")
            )
        for name, block in func.blocks.items():
            hasher.update(f"{name}:\n".encode("utf-8"))
            for inst in block.instructions:
                hasher.update(
                    (_semantic_instruction(inst) + "\n").encode("utf-8")
                )
    return hasher.hexdigest()


def _copy_execution_result(result: "ExecutionResult") -> "ExecutionResult":
    """Defensive copy so callers cannot mutate the cached master."""
    from repro.sim.interpreter import ExecutionResult

    return ExecutionResult(
        return_value=result.return_value,
        arrays={name: list(vals) for name, vals in result.arrays.items()},
        instructions_executed=result.instructions_executed,
        block_trace=list(result.block_trace),
    )


class GoldenCache:
    """Memoizes golden interpreter executions per ``(content, testbench)``.

    The golden model is key-independent: a validation campaign that
    simulates N locking keys over the same workload needs the software
    reference exactly once.  Entries also store the flattened golden
    output bit vector so the Hamming baseline is not recomputed per key.

    Keys are content-addressed via :func:`golden_fingerprint`: modules
    rebuilt for different parameter configs, key schemes or resource
    budgets of the same benchmark — or mutated in place — hash to the
    fingerprint their golden semantics imply, so stale or aliased
    entries cannot be served and identical workloads share one run.

    Content keys have no owning object to garbage-collect with, so the
    cache bounds itself: beyond ``max_entries`` the oldest entry is
    evicted (insertion-order FIFO — campaigns touch each (content,
    workload) pair in one burst, so recency ≈ insertion here), keeping
    long-lived processes from accumulating every golden run forever.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self._entries: dict[
            Hashable, tuple["ExecutionResult", list[int]]
        ] = {}
        self.max_entries = max_entries
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.stats.reset()

    def goldens_for(
        self,
        design: "FsmdDesign",
        bench: "Testbench",
        observed: Sequence[str],
        lanes: int,
        fingerprint: Optional[str] = None,
    ) -> list[tuple["ExecutionResult", list[int]]]:
        """Golden execution + output bit vector for ``lanes`` trials of
        one workload, computed at most once.

        The key is hashed once per call, but the counters move as
        ``lanes`` separate lookups would: a miss computes the entry and
        the other lanes hit it.  Every lane gets its own copy.
        ``fingerprint`` is ``golden_fingerprint(design.module)`` when
        the caller has already hashed the unchanged module.
        """
        if lanes <= 0:
            return []
        module = design.module
        func_name = design.func.name
        key = (
            golden_fingerprint(module) if fingerprint is None else fingerprint,
            func_name,
            testbench_fingerprint(bench, observed),
        )
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += lanes
        else:
            self.stats.misses += 1
            self.stats.hits += lanes - 1
            entry = self._compute(module, func_name, bench, observed)
            while len(self._entries) >= max(1, self.max_entries):
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry
        golden, bits = entry
        return [(_copy_execution_result(golden), list(bits)) for _ in range(lanes)]

    # ------------------------------------------------------------------
    def _compute(
        self,
        module: "Module",
        func_name: str,
        bench: "Testbench",
        observed: Sequence[str],
    ) -> tuple["ExecutionResult", list[int]]:
        from repro.sim.interpreter import Interpreter
        from repro.sim.testbench import output_bit_vector

        golden = Interpreter(module).run(
            func_name, bench.args, dict(bench.arrays)
        )
        bits = output_bit_vector(
            golden.return_value, golden.arrays, observed, module, func_name
        )
        return golden, bits


class FrontEndCache:
    """Memoizes front-end compilation keyed on the source text hash.

    Stores the pristine optimized module as pickle bytes and unpickles
    a fresh copy per lookup (several times cheaper than a deep copy of
    the same module): the TAO obfuscation passes mutate the IR in
    place, so the master must never escape.  The requested module name
    is applied to the copy, letting baseline and obfuscated
    compilations of the same source share one entry.
    """

    def __init__(self) -> None:
        self._masters: dict[str, bytes] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._masters)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._masters.clear()
        self.stats.reset()

    @staticmethod
    def source_key(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()

    def get_or_compile(
        self,
        source: str,
        name: str,
        compile_fn: Callable[[str, str], "Module"],
    ) -> "Module":
        """Return a private copy of the optimized module for ``source``."""
        key = self.source_key(source)
        master = self._masters.get(key)
        if master is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            master = pickle.dumps(compile_fn(source, name), pickle.HIGHEST_PROTOCOL)
            self._masters[key] = master
        module = pickle.loads(master)
        module.name = name
        return module


#: Per-process singletons; campaign workers each warm their own.
GOLDEN_CACHE = GoldenCache()
FRONTEND_CACHE = FrontEndCache()


def reset_caches() -> None:
    """Cold-start hook (tests, long-lived servers): clear both caches."""
    GOLDEN_CACHE.clear()
    FRONTEND_CACHE.clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Snapshot of both caches' counters (campaign telemetry).

    Each cache also reports ``l2_hits``, always 0: there is no second
    tier, but the campaign benchmark (``perfbench/run.py``) reads the
    key when it computes the golden hit ratio.
    """
    return {
        "golden": {**GOLDEN_CACHE.stats.as_dict(), "l2_hits": 0},
        "frontend": {**FRONTEND_CACHE.stats.as_dict(), "l2_hits": 0},
    }


def stats_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Counter increments between two :func:`cache_stats` snapshots."""
    return {
        cache: {
            counter: after[cache][counter] - before.get(cache, {}).get(counter, 0)
            for counter in after[cache]
        }
        for cache in after
    }


def absorb_stats(delta: dict[str, dict[str, int]]) -> None:
    """Fold a worker process's counter delta into this process's caches.

    Used by nested key-level pools: each pool task measures its own
    :func:`stats_delta` and the parent absorbs the sum, so campaign
    telemetry counts every trial no matter how many process layers ran
    it.  Only the counters move — cached entries stay in the process
    that computed them.
    """
    stats_of = {"golden": GOLDEN_CACHE.stats, "frontend": FRONTEND_CACHE.stats}
    for cache, counters in delta.items():
        stats = stats_of.get(cache)
        if stats is None:
            raise KeyError(f"unknown cache in stats delta: {cache!r}")
        stats.hits += counters.get("hits", 0)
        stats.misses += counters.get("misses", 0)
