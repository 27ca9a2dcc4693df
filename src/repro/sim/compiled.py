"""Compiled FSMD execution engine: lower a design once, run many keys.

The reference interpreter (:class:`repro.sim.fsmd_sim.FsmdSimulator`)
re-resolves everything per cycle: ``isinstance`` dispatch on operand
kinds, ``register_of`` dictionary lookups, cstep-filtering of each
state's operation list and per-cycle variant selection.  A §4.3
validation campaign pays that cost once per cycle per key — thousands
of times over for work whose answer never changes.

:class:`CompiledDesign` lowers a bound :class:`~repro.hls.design.
FsmdDesign` **once** into a flat execution plan (the design analysis —
slot assignment, wrap elision, state indexing, transitions, variant
tables — lives in the shared :class:`repro.sim.layout.DesignLayout`,
which the codegen tier consumes too):

* registers become a ``list[int]`` with slot indices precomputed per
  value, and memories a ``list[list[int]]`` with slot indices
  precomputed per array;
* each op becomes **one fused closure** that reads its register slots,
  key cells and constants inline, folds its result wrap into the
  arithmetic and writes its register or memory in place.  The closure
  comes from a factory per op *shape* — the op's rendered body, with
  slots, masks and constants as factory arguments — that is built
  with ``compile()`` on first use and cached for the process.  The
  arithmetic is rendered by :func:`repro.sim.layout.arith_expr`, the
  renderer the codegen tier uses too;
* writes commit in place, except in a state or DFG arm where a later
  op of the same cycle reads an earlier op's register or memory write:
  that op list keeps the two-phase clock edge (all reads, then all
  commits) as one closure, chosen once at compile time;
* a memory whose every image has one length — an encrypted ROM, or an
  array with no initializer or a full-length one — is indexed modulo
  that length, with no empty-memory check; any other memory keeps the
  checked access.  A LOAD at its memory's element type and a MOV of an
  already-wrapped register skip their identity wraps;
* runs of ``SEQ`` states become **chains**: one dispatch runs the
  chain's ops back to back and charges its length in cycles.  A chain
  ends at its first ``COND`` state, whose transition closes the
  dispatch, and holds no done state, no state with a ``RET`` in any
  arm and no state twice; those states run alone.  When the cycle
  budget ends inside a chain, only the states that fit run;
* a chain dispatched :data:`_FUSE_AFTER` times is **fused**: rendered
  as one closure that runs every op of every state inline (a two-phase
  op list stays one call) and returns the next dispatch target.  A
  register write that a later op of the chain overwrites before any
  read is left out.  A run, traced or not, dispatches a fused chain
  with that one call when the chain fits its budget; unfused chains,
  states that run alone and a budget that ends inside a chain run the
  per-state closures.  Dispatch counts and fused closures live on the
  plan across runs;
* when an untraced run brings a chain to :data:`_FUSE_AFTER`
  dispatches and the chain entries that are warm (at least
  :data:`_WARM_AFTER` dispatches) close a cycle through it, that
  strongly connected set becomes one **loop closure**: a ``while``
  loop over an ``if state == head`` ladder whose rungs inline the
  chains, with registers, memories and key cells in locals.  It runs
  until control leaves the set or the next entry does not fit the
  budget, writing its registers back then and around each two-phase
  call.  A set that cannot repay its build — fewer than
  :data:`_LOOP_REPAY` cycles of budget left per op — is not built, and
  the chain is fused alone.  The uncapped default budget
  (:data:`~repro.sim.fsmd_sim.DEFAULT_MAX_CYCLES`) says nothing about
  how long a run lasts, so under it the cycles the run has already run
  stand for the budget left; an entry fused alone for want of them is
  judged again each time the run doubles its cycles, and in the next
  run.  Traced runs take no loop;
* each loop call probes for a repeat at its hottest entry, the loop's
  **probe head**.  After :data:`_PROBE_DELAY` visits it takes, for
  :data:`_PROBE_ITERATIONS` more, a snapshot of the registers the loop
  writes that are live at the probe head (next bullet) other than its
  counters, the memories it stores to and each counter's residue modulo
  the lengths it is read by, and notes the counters beside it.  A
  snapshot seen before with the same counters is an **exact repeat** of
  period P cycles: the loop jumps the largest multiple of P that stays
  within the budget and runs on.  With what the loop never writes, the
  snapshot and the counters hold every value a period reads before
  writing it, so the loop repeats that period until the cap, every
  stored memory and the result at the cap is the interpreter's, and the
  registers left out of the snapshot are never read before the loop
  rewrites them.  A snapshot seen P and 2P cycles before with each
  counter moved by the same step both times is a **counter repeat**.  A
  probe that finds nothing makes the run's next loop call wait twice as
  long, and a counter repeat that does not confirm makes later probes
  look only for longer periods;
* the **counter rule** is decided once per loop body, from its op
  lists.  A register is *live* where an entry starts when some op of
  the region may read it before writing it; the region's exits add
  nothing, and the reads of every op count, dead ones too.  A register
  the loop writes that is not live at the probe head is left out of the
  snapshot and is no counter.  An op is *dead* when its result reaches,
  through the ops that read it, no store, no branch and no register
  live where its entry ends (a load, shift or comparison whose own
  result is dead is dead too); no op of a two-phase op list is dead.  A
  value is *changing* when it derives from a register the loop carries
  through add, sub, neg, not, mov, a product with an unchanging value
  or a left shift by an unchanging amount; it may also be read as a
  memory index or a shift amount (each reduced modulo a length) or
  compared.  Any other read of it by a live op (a store of it, and, or,
  xor, division, remainder, a right shift of it, a branch on it or a
  product of two) makes the registers it derives from unchanging, and a
  loop left with none repeats only exactly.  A SUB or XOR of two reads
  of one register slot at one type is the constant 0: it reads and
  derives from nothing.  The counters are the registers live at the
  probe head that an entry writes and ends holding a changing value in;
  a register outside them that is live where an entry ends must not hold
  one.  A dead op is probed for nothing and taints nothing, so a wrapping
  product the next period reloads before reading costs no jump;
* a counter repeat is confirmed by running two more periods through
  **recording closures**: each entry's chain with the value of every
  read the rule allows, and of each changing result whose wrap may fold,
  appended to a list (dead ops record nothing).  The two periods must
  follow one path, repeat the snapshot and move each counter by the same
  step again (``x = 2 * x`` does not).  The counters then move by k
  steps and the count by k periods, for the largest k that the budget
  allows and that keeps every recorded value in its type's range (no
  wrap), every comparison's outcome and every index's and shift amount's
  residue, so a loop whose bound lies within the budget jumps to just
  before its exit and leaves on the interpreter's cycle.  After the
  landing the next period reads only live registers and memories: the
  counters moved by exactly k steps, the other live registers repeat
  (the snapshot checks them), the stored memories are in the snapshot,
  and every register left out is written before it is read.  A jump
  bounded by an exit rather than by the budget, in a loop that leaves
  registers out, lands one period earlier, so a whole period on the
  confirmed path rewrites them before the exit and every register holds
  the interpreter's value there.  A jump bounded by the budget may end
  the run at the cap with stale left-out registers, which no result
  shows: a :class:`~repro.sim.fsmd_sim.SimulationResult` holds no
  register, and traced runs take no loop.  The plan counts loops built,
  cycles run in them, exact and counter jumps and cycles skipped;
* controller transitions are pre-resolved into fused condition
  closures (key-bit XOR included) and next-state indices;
* a DFG variant arm is compiled the first time a bound key selects
  it and kept on the plan, so a sweep cell that binds two keys
  compiles at most two of each variant state's arms; a chain through a
  variant state runs the bound arm, so binding rebuilds its op list.
  Arms are keyed by content, the op fields of the state's filtered op
  list, looked up the first time a bind selects the list: selectors
  that share a list (equal Hamming distance, by default) share one arm,
  and so do lists at different distances that hold the same ops in
  that state, so a key that moves selectors only between lists of
  equal content rebuilds nothing.  A bind that changes a state's arm
  drops the fused closure, the dispatch count and the loop closure of
  exactly the chains that run that state (a loop from every entry of
  its set);
* the plan keeps every fused chain and loop closure it builds, keyed
  by the entries it runs and the identity of each of their states'
  arms (one arm per content), so a later key that selects the same
  ops finds them built.  Loop regions still come from what the
  current key runs: an entry that heated under an earlier key heats
  again after :data:`_REHEAT_AFTER` dispatches since the bind, not
  :data:`_FUSE_AFTER`, and looks its closure up.  A plan holds one
  fused closure per entry, and one loop closure per region, for each
  arm combination its keys selected; all of them die with the plan.

Key-dependent pieces — obfuscated-constant decodes, ROM decode masks,
variant selections and branch key bits — live in small mutable cells
that :meth:`CompiledDesign.bind_key` fills per working key, so one
compilation serves every key of a campaign.

This is one of three engine tiers: ``interp`` (the reference
oracle), ``compiled`` (this module: one dispatch per chain, one
closure call per op, or one per hot chain, or one per visit to a hot
loop, which may jump whole periods) and ``codegen``
(:mod:`repro.sim.codegen`: one exec()-generated sweep function per
design, registers in locals, lane-vectorized across a whole key
batch).

Determinism contract: for any design, arguments, arrays, key and cycle
budget, every engine's :class:`~repro.sim.fsmd_sim.SimulationResult`
is **field-identical** to the interpreter's (return value, arrays,
cycle count, completed flag and — when tracing — the state trace).
``tests/test_sim_compiled.py`` asserts this differentially over every
benchmark, preset pipeline and key class; the interpreter remains the
oracle.

Engine seam: :func:`resolve_engine` picks the engine for
``simulate``/``run_testbench`` — the explicit ``engine`` argument, else
the default ``"compiled"``.  :func:`compiled_for` memoizes compilations
per design object (guarded by a cheap obfuscation-metadata fingerprint,
so re-obfuscating a design in place recompiles rather than running
stale code).  A plan also assumes the design's memory images keep the
lengths they had when it was lowered; a run that builds an image of
another length raises :class:`~repro.sim.fsmd_sim.SimulationError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.hls.design import FsmdDesign
from repro.ir.instructions import Opcode
from repro.ir.types import IntType
from repro.ir.values import Constant, ObfuscatedConstant, Value
from repro.opt.constant_folding import evaluate_op
from repro.registry import REGISTRY
from repro.sim.fsmd_sim import (
    DEFAULT_MAX_CYCLES,
    FsmdSimulator,
    SimulationError,
    SimulationResult,
    zero_size_memory_error,
)
from repro.sim.layout import (
    COND,
    EXPR_HELPERS,
    DesignLayout,
    PlanCache,
    arith_expr,
    op_fields,
    wrap_expr,
)

DEFAULT_ENGINE = "compiled"


@dataclass(frozen=True)
class EngineDriver:
    """One simulation engine as a registered capability.

    ``run`` executes a single key trial with the
    ``(design, args, arrays, working_key, max_cycles)`` signature of
    :func:`repro.sim.fsmd_sim.simulate`; ``run_batch`` (optional)
    sweeps one workload across many keys at once — engines without a
    native batch path are looped scalar by ``simulate_batch``.  Every
    engine must return :class:`SimulationResult`\\ s field-identical
    to the ``interp`` reference oracle.
    """

    name: str
    description: str
    run: Callable[..., SimulationResult]
    run_batch: Optional[Callable[..., list]] = None


def _compiled_run(design, args, arrays, working_key, max_cycles):
    return compiled_for(design).run(
        args, arrays=arrays, working_key=working_key, max_cycles=max_cycles
    )


def _interp_run(design, args, arrays, working_key, max_cycles):
    return FsmdSimulator(design, max_cycles=max_cycles).run(args, arrays, working_key)


def _codegen_run(design, args, arrays, working_key, max_cycles):
    from repro.sim.codegen import codegen_for

    return codegen_for(design).run(
        args, arrays=arrays, working_key=working_key, max_cycles=max_cycles
    )


def _codegen_run_batch(design, args, arrays, working_keys, max_cycles):
    from repro.sim.codegen import codegen_for

    return codegen_for(design).run_batch(
        args, arrays=arrays, working_keys=working_keys, max_cycles=max_cycles
    )


for _driver in (
    EngineDriver(
        name="compiled",
        description="closure-compiled plan, lowered once per design (default)",
        run=_compiled_run,
    ),
    EngineDriver(
        name="interp",
        description="reference interpreter: the differential oracle",
        run=_interp_run,
    ),
    EngineDriver(
        name="codegen",
        description="exec()-generated source, lane-vectorized across key batches",
        run=_codegen_run,
        run_batch=_codegen_run_batch,
    ),
):
    REGISTRY.register(
        "engine", _driver.name, _driver, description=_driver.description
    )
del _driver

def engine_driver(name: str) -> EngineDriver:
    """The registered :class:`EngineDriver` called ``name``, with the
    uniform unknown-capability error."""
    return REGISTRY.get("engine", name)


def resolve_engine(engine: Optional[str] = None) -> str:
    """The engine to run: the explicit choice, else :data:`DEFAULT_ENGINE`."""
    if not engine:
        return DEFAULT_ENGINE
    REGISTRY.entry("engine", engine, context="(from engine argument)")
    return engine


#: Dispatch-entry kinds: a chain of states, a state of a block that
#: returns, and a done state.
_CHAIN = 0
_RETURNS = 1
_DONE = 2

#: Op shape (the op closure's body text) -> its factory, compiled on
#: first use and kept for the process.  A factory depends only on its
#: body text, so every plan in the process shares one per shape.  Fused
#: chains keep their factories on their plan (see :class:`_Shape`).
_OP_FACTORIES: dict[str, Callable] = {}

#: Dispatches of a chain entry after which the plan renders the whole
#: chain as one closure, or the hot loop around it as a loop closure.
#: Most entries of a few-key sweep cell never get there; the hot loops
#: of a capped wrong-key trial do within the first trial.
_FUSE_AFTER = 256

#: Dispatches since its chain was last rebuilt after which an entry is
#: warm: a loop closure runs the warm entries that close a cycle with
#: the hot one.
_WARM_AFTER = 32

#: Dispatches since a bind changed its chain after which an entry that
#: heated under an earlier key heats again (or :data:`_FUSE_AFTER`, when
#: that is lower); it often finds its fused chain or loop closure for the
#: new arms already built (see :meth:`CompiledDesign._heat`).  It exceeds
#: :data:`_WARM_AFTER`, so the other entries of a loop are warm when its
#: head heats.  On perfbench ``attack`` (campaign seed 4, in-process, 2
#: vCPUs, 3 runs each) trial time was 113-116 ms at 40, 116-128 at 48,
#: 116-118 at 64, 119-124 at 96 and 131-132 at 256: 40 to 64 read the same
#: within noise, and 48 keeps a margin above the warm threshold.
_REHEAT_AFTER = 48

#: Cycles of remaining budget a loop closure needs per op it runs to
#: be built; a hot entry whose loop would not repay is fused alone.  A
#: build costs 25-55 µs per op, most of it ``compile()`` (less when the
#: plan compiled the same body before), and a loop saves 20 ns or more
#: per cycle over fused chains.  On the five kernels at 100 keys, 800
#: built adpcm loops that did not repay and 3,200 lost gsm's gain.
_LOOP_REPAY = 1600

#: Visits to its hottest entry a loop call makes before it probes for a
#: repeat (doubled, plus the window, after each probe of the run that
#: found none), the visits it then probes, and the latest earlier
#: occurrences of a snapshot a new one is matched against.  On perfbench
#: ``attack`` (campaign seed 4, delay 16) a window of 128 visits jumped
#: 102 of the 145 capped trials, and 256 and 512 jumped 125.  The delay
#: keeps short loop calls, which runs that complete are made of, from
#: probing: at 16, ``sweep``'s completed runs made 1,308 probes and at 48
#: none, while ``attack`` jumped 126 capped trials.
_PROBE_DELAY = 48
_PROBE_ITERATIONS = 256
_REPEAT_LOOKBACK = 16


def _store_zero_error(mems: list, later: tuple, name: str) -> SimulationError:
    """The error a STORE raises when its memory ``name`` is empty.

    A two-phase cycle commits its stores after every read, so a LOAD
    later in the same cycle from another empty memory raises first;
    ``later`` lists those LOADs as ``(memory slot, name)`` and the
    in-place STORE reports what the interpreter would.
    """
    for mem_idx, load_name in later:
        if not mems[mem_idx]:
            return zero_size_memory_error(load_name)
    return zero_size_memory_error(name)


def _repeat(history: dict, snap: tuple, cycles: int, counts: tuple, shortest: int) -> int:
    """What a loop's probe (see :meth:`CompiledDesign._loop`) found at
    ``cycles``, where its entry, watched registers and stored memories
    are ``snap`` and its counters ``counts``: ``-P`` when ``snap`` was
    seen P cycles ago with the same counters (an exact repeat); ``P``,
    more than ``shortest``, when it was seen P and 2P cycles ago and
    every counter moved by the same step both times; else 0, and the
    occurrence joins ``history``.  Only the latest
    :data:`_REPEAT_LOOKBACK` occurrences of a snapshot are matched."""
    seen = history.get(snap)
    if seen is None:
        history[snap] = {cycles: counts}
        return 0
    for at in itertools.islice(reversed(seen), _REPEAT_LOOKBACK):
        then = seen[at]
        if then == counts:
            return at - cycles
        period = cycles - at
        if period > shortest:
            first = seen.get(at - period)
            if first is not None and all(
                b - a == c - b for a, b, c in zip(first, then, counts)
            ):
                return period
    seen[cycles] = counts
    return 0


_OP_GLOBALS: dict = {
    "_zero": zero_size_memory_error,
    "_store_zero": _store_zero_error,
    "_repeat": _repeat,
    **EXPR_HELPERS,
}


class _Shape:
    """One op being rendered: its body lines name every slot, mask,
    constant and key cell as a factory argument (``_0``, ``_1``, …), so
    ops that differ only in those share one factory.

    A fused chain passes its plan's own ``factories``: it writes its
    numbers (and ``None``) into the body, which runs faster than reading
    closure cells, and keeps only key cells, names and closures as
    arguments.  Such a body fits one chain of one design under one arm
    combination, so its factory is kept with the plan, not the process.
    """

    def __init__(self, factories: Optional[dict[str, Callable]] = None) -> None:
        self.args: list = []
        self.literals = factories is not None
        self.factories = _OP_FACTORIES if factories is None else factories

    def lit(self, value: object) -> str:
        if self.literals and (value is None or type(value) is int):
            return f"({value!r})"
        self.args.append(value)
        return f"_{len(self.args) - 1}"

    def reg(self, slot: int) -> str:
        """Register ``slot``, to read or to assign."""
        return f"regs[{self.lit(slot)}]"

    def mem(self, slot: int) -> str:
        """Memory ``slot``'s word list."""
        return f"mems[{self.lit(slot)}]"

    def cell(self, cell: list[int]) -> str:
        """The value of a key-dependent cell."""
        return f"{self.lit(cell)}[0]"

    def two_phase(self, unit: Callable, writes: Sequence[int]) -> list[str]:
        """A call of a two-phase op list's closure, which writes the
        register slots ``writes``."""
        return [f"{self.lit(unit)}(regs, mems)"]

    def closure(self, lines: list[str], params: str = "regs, mems") -> Callable:
        """The op's ``op(regs, mems)`` closure (or one taking
        ``params``), from its shape's factory (compiled the first time
        any design needs the shape)."""
        body = "\n".join(lines)
        key = body if params == "regs, mems" else f"def op({params}):\n{body}"
        factory = self.factories.get(key)
        if factory is None:
            args = ", ".join(f"_{i}" for i in range(len(self.args)))
            indented = "".join(f"        {line}\n" for line in lines)
            source = f"def _make({args}):\n    def op({params}):\n{indented}    return op\n"
            namespace = dict(_OP_GLOBALS)
            exec(compile(source, "<compiled op>", "exec"), namespace)
            factory = self.factories[key] = namespace["_make"]
        return factory(*self.args)


class _LoopShape(_Shape):
    """A loop closure being rendered (see :meth:`CompiledDesign._loop`):
    registers, memories and key cells are locals (``r3``, ``m1``,
    ``k0``), loaded once per call; ``written`` lists the register slots
    the loop writes back to ``regs`` whenever it hands control back or
    calls a two-phase op list, which reads ``regs``."""

    def __init__(self, factories: dict[str, Callable], written: Sequence[int]) -> None:
        super().__init__(factories)
        self.written = written
        self.regs: set[int] = set(written)
        self.mems: set[int] = set()
        self.cells: dict[int, str] = {}
        self.prologue: list[str] = []

    def reg(self, slot: int) -> str:
        self.regs.add(slot)
        return f"r{slot}"

    def mem(self, slot: int) -> str:
        self.mems.add(slot)
        return f"m{slot}"

    def cell(self, cell: list[int]) -> str:
        name = self.cells.get(id(cell))
        if name is None:
            name = self.cells[id(cell)] = f"k{len(self.cells)}"
            self.prologue.append(f"{name} = {self.lit(cell)}[0]")
        return name

    def two_phase(self, unit: Callable, writes: Sequence[int]) -> list[str]:
        return [
            *(f"regs[{slot}] = r{slot}" for slot in self.written),
            *super().two_phase(unit, writes),
            *(f"r{slot} = regs[{slot}]" for slot in writes),
        ]


#: No counter: the value of a constant, or of a register that holds the
#: same value at every period (see :meth:`CompiledDesign._counter_reads`).
_FIXED: frozenset = frozenset()

#: Comparison opcode -> ``(sign, threshold)``: the comparison holds when
#: ``sign * (a - b) <= threshold``.  EQ and NE test ``a - b == 0``.
_ORDERED = {
    Opcode.LT: (1, -1),
    Opcode.LE: (1, 0),
    Opcode.GT: (-1, -1),
    Opcode.GE: (-1, 0),
}


def _type_range(type_: IntType) -> tuple[int, int]:
    if type_.signed:
        return -(1 << (type_.width - 1)), (1 << (type_.width - 1)) - 1
    return 0, (1 << type_.width) - 1


def _reg_render(slot: int) -> Callable:
    return lambda shape: shape.reg(slot)


def _range_probe(type_: IntType, slot: int) -> tuple:
    """Probe register ``slot`` after its write, in ``type_``'s range."""
    return ("range", *_type_range(type_)), _reg_render(slot)


def _jump_bound(guards: Sequence[tuple], before: Sequence[int], after: Sequence[int], mems: list):
    """The most periods a counter jump may skip past the second of two
    consecutive periods, from their probe values (None: no limit).

    A value stays linear while it stays in its type's range, so no wrap
    happens, and a comparison keeps its outcome.  An index or shift
    amount is reduced modulo a length, so its step must be a multiple of
    that length.  Any probe on which the two periods disagree allows no
    jump.
    """
    periods = None
    for guard, a, b in zip(guards, before, after):
        step = b - a
        kind = guard[0]
        if kind == "mod":
            if step % (guard[1] or len(mems[guard[2]])):
                return 0
            continue
        if kind == "range":
            low, high = guard[1], guard[2]
            if not low <= a <= high:
                return 0
            room = (high - b) // step if step > 0 else (b - low) // -step if step else None
        elif kind == "le":
            threshold = guard[1]
            holds = b <= threshold
            if (a <= threshold) != holds:
                return 0
            if holds and step > 0:
                room = (threshold - b) // step
            elif not holds and step < 0:
                room = (b - threshold - 1) // -step
            else:
                room = None
        else:  # "eq": the comparison is a - b == 0 (EQ or NE)
            if (a == 0) != (b == 0):
                return 0
            room = -b // step - 1 if step and b and -b % step == 0 and -b // step > 0 else None
        if room is not None and (periods is None or room < periods):
            periods = room
    return periods


class _Loop:
    """A loop closure (``run``, see :meth:`CompiledDesign._loop`) with
    what its counter jumps need (:meth:`CompiledDesign._counter_jump`):
    its region, each entry's :meth:`~CompiledDesign._chain_steps`, the
    region's :meth:`~CompiledDesign._liveness` (``live``: the registers
    live where each entry ends, and each entry's dead ops), the
    registers that may move by a fixed step each period (``counters``),
    the other registers it writes that are live at its probe head
    (``watched``), whether it writes any that are not (``left_out``),
    the memories it stores to, and, once a jump is first tried, each
    entry's recording closure."""

    __slots__ = (
        "run", "region", "steps", "live", "counters", "watched", "left_out", "stored",
        "recorders",
    )

    def __init__(self, run, region, steps, live, counters, watched, left_out, stored) -> None:
        self.run = run
        self.region = region
        self.steps = steps
        self.live = live
        self.counters = counters
        self.watched = watched
        self.left_out = left_out
        self.stored = stored
        #: Per entry, its recording closure and the guards of the values
        #: it records (see :meth:`CompiledDesign._recorders`).
        self.recorders: Optional[dict[int, tuple[Callable, list]]] = None


class CompiledDesign:
    """One FSMD design lowered into a slot-indexed execution plan.

    Compile once (the constructor), then :meth:`run` any number of
    trials.  The plan is a dispatch table over the states a run can
    enter: each entry is a chain of states whose op closures run back
    to back, followed by one transition.  A chain that reaches
    :data:`_FUSE_AFTER` dispatches is fused into one closure that runs
    its ops inline and returns the next entry, or runs with the warm
    entries around it in one loop closure (:meth:`_loop`).
    :meth:`bind_key` specializes the key-dependent cells per working
    key, compiling each DFG variant arm the first time a key selects it
    and refreshing the chains that run it (which drops their fused and
    loop closures; the plan keeps them for a later key that selects the
    same arms), and is called automatically by :meth:`run`.
    Instances hold closures and are deliberately **not picklable** —
    worker processes compile their own plan from the (picklable)
    design via :func:`compiled_for`.
    """

    def __init__(self, design: FsmdDesign) -> None:
        self.design = design
        layout = self.layout = DesignLayout(design)
        self._reg_slots = layout.reg_slots
        self._n_regs = layout.n_regs
        self._mem_slots = layout.mem_slots
        # --- key-dependent cells (filled by bind_key) --------------
        self._kconst_cells: dict[ObfuscatedConstant, list[int]] = {}
        #: Per obfuscated-constant cell, ``(cell, key offset, storage mask,
        #: stored pattern, storage sign bit, type mask, type sign bit)``;
        #: the sign bits are 0 for an unsigned constant (see
        #: :meth:`_kconst_cell`).
        self._kconst_binds: list[tuple] = []
        self._rom_cells: dict[str, list[int]] = {}
        self._rom_binds: list[tuple] = []
        #: Key bit -> its cell, shared by every closure that tests it.
        self._kb_cells: dict[int, list[int]] = {}
        #: Per obfuscated block, ``(BlockVariants, [(state idx, {selector:
        #: op list}, {id(op list): compiled arm})])``; an op list finds
        #: its arm on its first bind (the layout keeps the lists alive,
        #: so their ids are stable), by its ops in :attr:`_arm_of`.
        self._variant_binds: list[tuple] = []
        #: ``(state idx, *ops as op fields)`` -> the compiled arm: one arm
        #: per distinct content of a variant state, however many of the
        #: layout's lists hold it (see :meth:`_arm`).
        self._arm_of: dict[tuple, list] = {}
        self._bound_key: Optional[int] = None
        self._n_scalar_params = layout.n_scalar_params
        self._param_latches = layout.param_latches
        self._mem_lengths = self._static_lengths()
        # --- per-state op closures ---------------------------------
        #: Per state, the op list it runs and its compiled closures; a
        #: variant state holds its bound arm.
        self._state_ops: list[Sequence] = [
            ops if ops is not None else () for ops in layout.state_op_lists
        ]
        self._state_units: list[list] = [[] for _ in layout.states]
        for idx, ops in enumerate(layout.state_op_lists):
            if ops is not None:
                self._state_units[idx] = self._compile_ops(ops)
        variant_states: set[int] = set()
        for variants, tables in layout.variant_tables:
            self._variant_binds.append(
                (variants, [(idx, per_selector, {}) for idx, per_selector in tables])
            )
            variant_states.update(idx for idx, _ in tables)
        # Every state of a block that returns runs alone: which of them
        # holds the RET can depend on the bound DFG arm.
        returning = {
            name
            for name, block_schedule in design.schedule.blocks.items()
            if any(i.opcode is Opcode.RET for i in block_schedule.block.instructions)
        }
        returns = [state.block in returning for state in layout.states]
        # --- dispatch entries ----------------------------------------
        self._entry_idx = layout.entry_idx
        #: Per dispatch target, the entry tuple ``(kind, units,
        #: condition, next, alternative, chain, names)``; None for states
        #: no run enters by dispatch.
        self._entries: list[Optional[tuple]] = [None] * len(layout.states)
        #: Per variant state, the dispatch targets whose chain runs it.
        self._heads_through: dict[int, list[int]] = {}
        #: Per dispatch target, its chain length (the cycles one dispatch
        #: charges), its dispatches since it was lowered or last rebuilt,
        #: and its chain fused into one closure once those reach
        #: :data:`_FUSE_AFTER` (see :meth:`_fuse_chain`).
        self._lengths = [0] * len(layout.states)
        self._dispatches = [0] * len(layout.states)
        self._fused: list[Optional[Callable]] = [None] * len(layout.states)
        #: Per dispatch target, the loop closure that runs it with the
        #: other entries of its region (see :meth:`_loop`), and whether
        #: it heated under some key (see :data:`_REHEAT_AFTER`).
        self._loops: list[Optional[_Loop]] = [None] * len(layout.states)
        self._heated = [False] * len(layout.states)
        #: Entries whose loop could not repay its build in this run, and
        #: those of them fused alone because an uncapped run had not yet
        #: run the cycles to repay it (see :meth:`run`).
        self._unrepaid: set[int] = set()
        self._deferred: set[int] = set()
        #: Every fused chain and loop closure the plan built, by the
        #: entries it runs and their arms (see :meth:`_arms`).
        self._fusions: dict[tuple, Callable] = {}
        self._built_loops: dict[tuple, _Loop] = {}
        #: Fused chain and loop body text -> its factory, for this plan
        #: alone.
        self._chain_factories: dict[str, Callable] = {}
        #: Loop closures built, and fused chains and loop closures taken
        #: from the memo instead of built; cycles the loops ran (not
        #: jumped), exact repeats and counter repeats they jumped, and the
        #: cycles both kinds of jump skipped, over the plan's life.
        self.loops_built = 0
        self.fusions_reused = 0
        self.loops_reused = 0
        self.loop_cycles = 0
        self.repeat_skips = 0
        self.counter_skips = 0
        self.skipped_cycles = 0
        pending = [layout.entry_idx]
        while pending:
            head = pending.pop()
            if head is None or self._entries[head] is not None:
                continue
            entry = self._lower_entry(head, returns)
            self._entries[head] = entry
            self._lengths[head] = len(entry[5])
            for idx in variant_states.intersection(entry[5]):
                self._heads_through.setdefault(idx, []).append(head)
            pending.extend((entry[3], entry[4]))

    # ------------------------------------------------------------------
    # Compilation helpers
    # ------------------------------------------------------------------
    def _slot_of(self, value: Value) -> int:
        register = self.design.binding.register_of.get(value)
        if register is None:
            raise SimulationError(f"value {value} has no bound register")
        return self._reg_slots[register.name]

    def _operand(self, value: Value, shape: _Shape) -> str:
        """One operand read as source: a key cell, a constant, or a
        register slot (re-wrapped unless every writer shares its type)."""
        if isinstance(value, ObfuscatedConstant):
            return shape.cell(self._kconst_cell(value))
        if isinstance(value, Constant):
            return shape.lit(value.value)
        slot = self._slot_of(value)
        assert isinstance(value.type, IntType)
        read = shape.reg(slot)
        if self.layout.elidable_read(slot, value.type):
            return read
        return wrap_expr(read, value.type, shape.lit)

    def _kconst_cell(self, constant: ObfuscatedConstant) -> list[int]:
        """The key cell holding ``constant``'s decode.  :meth:`bind_key`
        decodes it as :meth:`ObfuscatedConstant.decode` does, from numbers
        taken here once: the stored pattern XOR the key slice, read as a
        signed or unsigned ``storage_width``-bit number, then wrapped to
        the constant's type."""
        cell = self._kconst_cells.get(constant)
        if cell is None:
            cell = self._kconst_cells[constant] = [0]
            type_ = constant.type
            assert isinstance(type_, IntType)
            width = constant.storage_width
            signed = type_.signed
            self._kconst_binds.append(
                (
                    cell,
                    constant.key_offset,
                    (1 << width) - 1,
                    constant.stored_value,
                    1 << (width - 1) if signed else 0,
                    (1 << type_.width) - 1,
                    1 << (type_.width - 1) if signed else 0,
                )
            )
        return cell

    def _static_lengths(self) -> dict[str, int]:
        """Memory name -> the length of every image a run can build, for
        the memories where that length is fixed and not zero: an
        encrypted ROM, or an array with no initializer or a full-length
        one (a provided array is padded or cut to the array's size).
        Their accesses index with that length and need no empty check;
        any other memory keeps the checked access."""
        lengths: dict[str, int] = {}
        for name, array, rom, _ in self.layout.memory_specs:
            if rom is not None:
                length = len(rom.encrypted_image)
            elif array.initializer is None or len(array.initializer) == array.size:
                length = array.size
            else:
                continue
            if length:
                lengths[name] = length
        return lengths

    def _rom_cell(self, array_name: str, element_type: IntType) -> list[int]:
        cell = self._rom_cells.get(array_name)
        if cell is None:
            cell = [0]
            self._rom_cells[array_name] = cell
            rom = self.design.obfuscated_roms[array_name]
            self._rom_binds.append((rom, element_type, cell))
        return cell

    @staticmethod
    def _fields(ops: Sequence) -> list[tuple]:
        """The :func:`op_fields` of the ops a cycle executes (the
        controller handles JUMP and BRANCH)."""
        return [
            op_fields(op)
            for op in ops
            if op.opcode is not Opcode.JUMP and op.opcode is not Opcode.BRANCH
        ]

    def _with_later_loads(self, fields: Sequence[tuple]) -> list[tuple]:
        """Each op of an in-place op list with the LOADs after it in the
        same cycle (see :func:`_store_zero_error`)."""
        loads = [
            (position, (self._mem_slots[array_name], array_name))
            for position, (opcode, _, _, array_name) in enumerate(fields)
            if opcode is Opcode.LOAD
        ]
        return [
            (op, tuple(load for at, load in loads if at > position))
            for position, op in enumerate(fields)
        ]

    def _compile_ops(self, ops: Sequence) -> list:
        """The closures running one state's (or arm's) ops for a cycle.

        Ops write in place unless a later op would read an earlier op's
        register or memory write; then the list keeps the two-phase
        clock edge as one closure.
        """
        fields = self._fields(ops)
        if self._reads_own_writes(fields):
            return [self._two_phase(fields)]
        return [
            self._fuse(op, True, later_loads)
            for op, later_loads in self._with_later_loads(fields)
        ]

    def _reads_own_writes(self, fields: Sequence[tuple]) -> bool:
        """True when an op reads a register or memory that an earlier op
        of the same cycle writes (so in-place writes would be seen)."""
        register_of = self.design.binding.register_of
        written: set[str] = set()
        stored: set[str] = set()
        for opcode, result, operands, array_name in fields:
            for value in operands:
                register = register_of.get(value)
                if register is not None and register.name in written:
                    return True
            if opcode is Opcode.LOAD and array_name in stored:
                return True
            if opcode is Opcode.STORE:
                stored.add(array_name)
            elif result in register_of:
                written.add(register_of[result].name)
        return False

    def _fuse(self, fields: tuple, in_place: bool, later_loads: tuple = ()) -> Callable:
        """One op, given as its :func:`op_fields`, as one closure
        ``op(regs, mems)``.

        In place, the closure writes its register or memory; otherwise
        it returns the value (a STORE returns ``(index, value)``) for
        :meth:`_two_phase` to commit.  A ``RET`` returns its value
        either way.  ``later_loads`` are the LOADs after an in-place
        STORE in the same cycle (see :func:`_store_zero_error`).
        """
        shape = _Shape()
        return shape.closure(self._op_lines(fields, in_place, later_loads, shape))

    def _op_lines(
        self, fields: tuple, in_place: bool, later_loads: tuple, shape: _Shape
    ) -> list[str]:
        """The body lines of one op (see :meth:`_fuse`), every register,
        memory, slot, mask, constant and cell rendered by ``shape``."""
        opcode, result, operands, array_name = fields
        lit = shape.lit

        def assign(expression: str) -> list[str]:
            if in_place:
                return [f"{shape.reg(self._slot_of(result))} = {expression}"]
            return [f"return {expression}"]

        if opcode is Opcode.RET:
            value = self._operand(operands[0], shape) if operands else "0"
            lines = [f"return {value}"]
        elif opcode is Opcode.CALL:
            raise SimulationError("calls must be inlined before simulation")
        elif opcode is Opcode.STORE:
            assert array_name is not None
            element_type = self.design.func.arrays[array_name].element_type
            index = self._operand(operands[0], shape)
            value = wrap_expr(self._operand(operands[1], shape), element_type, lit)
            length = self._mem_lengths.get(array_name)
            if not in_place:
                lines = [f"return ({index}, {value})"]
            else:
                memory = shape.mem(self._mem_slots[array_name])
                if length is None:
                    lines = [
                        f"m = {memory}",
                        f"if not m: raise _store_zero(mems, {lit(later_loads)}, "
                        f"{lit(array_name)})",
                        f"m[({index}) % len(m)] = {value}",
                    ]
                else:
                    lines = [f"{memory}[({index}) % {lit(length)}] = {value}"]
        elif opcode is Opcode.LOAD:
            assert array_name is not None
            assert result is not None and isinstance(result.type, IntType)
            element_type = self.design.func.arrays[array_name].element_type
            memory = shape.mem(self._mem_slots[array_name])
            length = self._mem_lengths.get(array_name)
            if length is None:
                lines = [f"m = {memory}", f"if not m: raise _zero({lit(array_name)})"]
                memory, size = "m", "len(m)"
            else:
                lines, size = [], lit(length)
            loaded = f"{memory}[({self._operand(operands[0], shape)}) % {size}]"
            if array_name in self.design.obfuscated_roms:
                cell = self._rom_cell(array_name, element_type)
                mask = lit((1 << element_type.width) - 1)
                loaded = wrap_expr(
                    f"({loaded} & {mask}) ^ {shape.cell(cell)}", element_type, lit
                )
                loaded = wrap_expr(loaded, result.type, lit)
            elif element_type != result.type:
                # Memories hold values wrapped at their element type.
                loaded = wrap_expr(loaded, result.type, lit)
            lines += assign(loaded)
        else:
            # Datapath op or MOV.
            assert result is not None and isinstance(result.type, IntType)
            types: list[IntType] = []
            for operand in operands:
                assert isinstance(operand.type, IntType)
                types.append(operand.type)
            if all(isinstance(v, Constant) for v in operands):
                # Fully-constant op: fold at compile time (the interpreter
                # recomputes the same value every cycle).
                folded = evaluate_op(opcode, [v.value for v in operands], types, result.type)
                if folded is None:
                    raise SimulationError(f"cannot evaluate opcode {opcode}")
                expression = lit(folded)
            elif opcode is Opcode.MOV and self._read_in_range(operands[0], result.type):
                expression = self._operand(operands[0], shape)
            else:
                rendered = [self._operand(v, shape) for v in operands]
                expression = arith_expr(opcode, rendered, types, result.type, lit)
            lines = assign(expression)
        return lines

    def _read_in_range(self, value: Value, type_: IntType) -> bool:
        """True when ``value`` is a register read at ``type_`` whose
        re-wrap :meth:`_operand` elides, so the read is already in
        ``type_``'s range."""
        return (
            not isinstance(value, (Constant, ObfuscatedConstant))
            and value.type == type_
            and self.layout.elidable_read(self._slot_of(value), type_)
        )

    def _two_phase(self, fields: Sequence[tuple]) -> Callable:
        """One cycle's ops as a single closure with the two-phase clock
        edge: every op reads pre-cycle values, then the register writes
        and the memory writes commit in op order."""
        reads = [self._fuse(op, False) for op in fields]
        reg_commits: list[tuple[int, int]] = []
        mem_commits: list[tuple[int, int, str]] = []
        ret: Optional[int] = None
        for position, (opcode, result, _, array_name) in enumerate(fields):
            if opcode is Opcode.RET:
                ret = position
            elif opcode is Opcode.STORE:
                mem_commits.append((position, self._mem_slots[array_name], array_name))
            else:
                reg_commits.append((position, self._slot_of(result)))

        def two_phase_cycle(regs, mems):
            values = [read(regs, mems) for read in reads]
            for position, slot in reg_commits:
                regs[slot] = values[position]
            for position, mem_idx, name in mem_commits:
                memory = mems[mem_idx]
                if not memory:
                    raise zero_size_memory_error(name)
                index, value = values[position]
                memory[index % len(memory)] = value
            return None if ret is None else values[ret]

        return two_phase_cycle

    def _test(self, spec: tuple, shape: _Shape) -> str:
        """A ``COND`` transition's branch bit as an expression, the key
        bit XORed in."""
        _, condition, key_bit, _, _ = spec
        test = f"({self._operand(condition, shape)}) & 1"
        if key_bit is not None:
            cell = self._kb_cells.setdefault(key_bit, [0])
            test = f"({test}) ^ {shape.cell(cell)}"
        return test

    def _condition(self, spec: tuple) -> Callable:
        """A ``COND`` transition as a closure returning the branch bit."""
        shape = _Shape()
        return shape.closure([f"return {self._test(spec, shape)}"])

    def _lower_entry(self, head: int, returns: list[bool]) -> tuple:
        """The dispatch entry for a run that enters state ``head``.

        A done state, or a state of a block that returns, runs alone;
        otherwise the chain follows ``SEQ`` edges through other states,
        stopping before a repeat and after the first ``COND`` state,
        whose transition ends the entry.
        """
        layout = self.layout
        specs = layout.transition_specs
        if layout.done[head]:
            kind, chain = _DONE, [head]
        elif returns[head]:
            kind, chain = _RETURNS, [head]
        else:
            kind, chain = _CHAIN, []
            state: Optional[int] = head
            while (
                state is not None
                and state not in chain
                and not layout.done[state]
                and not returns[state]
            ):
                chain.append(state)
                if specs[state][0] == COND:
                    break
                state = specs[state][1]
        spec = specs[chain[-1]]
        if spec[0] == COND:
            condition, following, alternative = self._condition(spec), spec[3], spec[4]
        else:
            condition, following, alternative = None, spec[1], None
        names = tuple(layout.state_names[idx] for idx in chain)
        return (
            kind,
            self._chain_units(chain),
            condition,
            following,
            alternative,
            tuple(chain),
            names,
        )

    def _chain_units(self, chain: Sequence[int]) -> list:
        units = self._state_units
        return [unit for idx in chain for unit in units[idx]]

    def _fuse_chain(self, head: int) -> Callable:
        """Chain entry ``head`` as one closure ``step(regs, mems)``.

        The closure runs the chain's ops in place (see
        :meth:`_chain_lines`) and returns the dispatch target that
        follows (None when the run completes).  A bind that changes an
        arm of the chain drops it.
        """
        shape = _Shape(self._chain_factories)
        lines = self._chain_lines(head, shape)
        lines.append(f"return {self._next_target(head, shape)}")
        return shape.closure(lines)

    def _chain_steps(self, head: int) -> list[tuple[int, Optional[list]]]:
        """Per state of chain entry ``head``, in order, the ops its body
        runs in place as ``(position, op fields, later loads)``, or None
        for an op list that keeps the two-phase commit.

        A register write that a later op of the chain overwrites before
        any read is left out; a two-phase call reads every register, and
        a LOAD from a memory that keeps the empty check stays, as it can
        raise.
        """
        steps: list[tuple[int, Optional[list]]] = []
        overwritten: set[int] = set()
        for idx in reversed(self._entries[head][5]):
            fields = self._fields(self._state_ops[idx])
            if self._reads_own_writes(fields):
                steps.append((idx, None))
                overwritten.clear()
                continue
            live = []
            ops = self._with_later_loads(fields)
            for position in range(len(ops) - 1, -1, -1):
                op, later_loads = ops[position]
                opcode, result, operands, array_name = op
                if opcode is not Opcode.STORE:
                    slot = self._slot_of(result)
                    if slot in overwritten and (
                        opcode is not Opcode.LOAD or array_name in self._mem_lengths
                    ):
                        continue
                    overwritten.add(slot)
                overwritten.difference_update(
                    self._slot_of(value)
                    for value in operands
                    if not isinstance(value, (Constant, ObfuscatedConstant))
                )
                live.append((position, op, later_loads))
            steps.append((idx, live[::-1]))
        return steps[::-1]

    def _chain_lines(
        self,
        head: int,
        shape: _Shape,
        steps: Optional[list] = None,
        probes: Optional[dict] = None,
        guards: Optional[list] = None,
    ) -> list[str]:
        """The body lines running every op of chain entry ``head`` (its
        :meth:`_chain_steps`) in place, each variant state's bound arm
        inlined and an op list that keeps the two-phase commit as one
        call of its closure.

        ``probes`` maps ``(state, op position)`` (position None for a
        two-phase op list) to the probes :meth:`_counter_pass` puts
        before and after that op; each appends its value to ``values``,
        and its guard to ``guards``.
        """
        lines: list[str] = []

        def record(key, side: int) -> list[str]:
            if probes is None or key not in probes:
                return []
            guards.extend(guard for guard, _ in probes[key][side])
            return [f"values.append({render(shape)})" for _, render in probes[key][side]]

        for idx, live in steps if steps is not None else self._chain_steps(head):
            if live is None:
                writes = [
                    self._slot_of(result)
                    for opcode, result, _, _ in self._fields(self._state_ops[idx])
                    if opcode is not Opcode.STORE
                ]
                lines += record((idx, None), 0)
                lines += shape.two_phase(self._state_units[idx][0], writes)
                lines += record((idx, None), 1)
                continue
            for position, op, later_loads in live:
                lines += record((idx, position), 0)
                lines += self._op_lines(op, True, later_loads, shape)
                lines += record((idx, position), 1)
        return lines

    def _next_target(self, head: int, shape: _Shape) -> str:
        """The dispatch target after chain entry ``head``, as an
        expression."""
        _, _, _, following, alternative, chain, _ = self._entries[head]
        spec = self.layout.transition_specs[chain[-1]]
        if spec[0] != COND:
            return shape.lit(following)
        test = self._test(spec, shape)
        return f"{shape.lit(following)} if {test} else {shape.lit(alternative)}"

    # ------------------------------------------------------------------
    # Counter jumps: the static rule
    # ------------------------------------------------------------------
    def _cancels(self, op: tuple) -> bool:
        """True when ``op`` is a SUB or XOR of two reads of one register
        slot at one type: the constant 0, whatever the register holds.
        Slots, not IR values, are compared, since left-edge sharing binds
        several values to one register."""
        opcode, _, operands, _ = op
        if opcode is not Opcode.SUB and opcode is not Opcode.XOR:
            return False
        left, right = operands
        return (
            not isinstance(left, (Constant, ObfuscatedConstant))
            and not isinstance(right, (Constant, ObfuscatedConstant))
            and left.type == right.type
            and self._slot_of(left) == self._slot_of(right)
        )

    def _reads(self, op: tuple) -> set[int]:
        """The register slots whose values ``op``'s result or effect
        depends on (none for a self-cancelling op, see :meth:`_cancels`)."""
        if self._cancels(op):
            return set()
        return {
            self._slot_of(value)
            for value in op[2]
            if not isinstance(value, (Constant, ObfuscatedConstant))
        }

    def _branch_reads(self, head: int) -> set[int]:
        """The register slot the transition closing chain entry ``head``
        branches on, if it branches on one."""
        spec = self.layout.transition_specs[self._entries[head][5][-1]]
        if spec[0] == COND and not isinstance(spec[1], (Constant, ObfuscatedConstant)):
            return {self._slot_of(spec[1])}
        return set()

    def _live_back(
        self, head: int, chain_steps: list, live: frozenset, dead: Optional[set] = None
    ) -> set[int]:
        """The registers live where chain entry ``head`` (its
        :meth:`_chain_steps`) starts, given those live where it ends:
        one backward pass over its ops, its branch reading its condition
        last.  A two-phase op list reads every operand before it commits.

        With ``dead``, a set, an in-place op whose result no later read
        needs is dead: its ``(state, op position)`` joins ``dead`` and its
        reads do not count.  Stores and two-phase op lists are never dead.
        """
        live = set(live) | self._branch_reads(head)
        for idx, ops in reversed(chain_steps):
            if ops is None:
                fields = self._fields(self._state_ops[idx])
                live.difference_update(
                    self._slot_of(result)
                    for opcode, result, _, _ in fields
                    if opcode is not Opcode.STORE
                )
                live.update(slot for op in fields for slot in self._reads(op))
                continue
            for position, op, _ in reversed(ops):
                opcode, result, _, _ = op
                if opcode is not Opcode.STORE:
                    slot = self._slot_of(result)
                    if dead is not None and slot not in live:
                        dead.add((idx, position))
                        continue
                    live.discard(slot)
                live |= self._reads(op)
        return live

    def _liveness(self, steps: Sequence[tuple[int, list]]) -> tuple[frozenset, dict, dict]:
        """Register liveness over a loop region: ``steps`` holds each entry
        with its :meth:`_chain_steps`, the probe head first.

        A backward pass to a fixed point, in which a transition out of the
        region adds nothing and every op's reads count, dead or not, so a
        register that is not live where an entry starts is written before
        any op of the region reads it, on every path from there.  Returns
        the registers live at the probe head, per entry those live where
        it ends, and per entry its dead ops (see :meth:`_live_back`): the
        ops whose results reach, through the ops that read them, no store,
        no branch and no register live where the entry ends.
        """
        region = {head for head, _ in steps}
        successors = {
            head: [t for t in self._entries[head][3:5] if t in region] for head, _ in steps
        }
        starts = {head: frozenset() for head in region}
        ends: dict[int, frozenset] = {}
        changed = True
        while changed:
            changed = False
            for head, chain_steps in reversed(steps):
                end = ends[head] = frozenset().union(*(starts[t] for t in successors[head]))
                start = frozenset(self._live_back(head, chain_steps, end))
                if start != starts[head]:
                    starts[head] = start
                    changed = True
        dead: dict[int, set] = {}
        for head, chain_steps in steps:
            self._live_back(head, chain_steps, ends[head], dead.setdefault(head, set()))
        return starts[steps[0][0]], ends, dead

    def _counter_reads(self, op: tuple, env: dict) -> tuple[list, frozenset, frozenset]:
        """How one op reads changing values under the counter rule.

        ``env`` maps a register slot to the counters its value derives
        from through linear ops (none: the same value every period).
        Returns the probes the op's reads need before it runs, as
        ``(guard, render)`` pairs (see :func:`_jump_bound`; ``render``
        gives the probed value's source), the counters its result
        derives from, and the counters whose values it reads in a way
        the rule forbids: a stored value, a nonlinear op (and, or, xor,
        division, remainder, right shift or a product of two changing
        values) or the value a right shift shifts.  A self-cancelling op
        (:meth:`_cancels`) reads nothing and derives from nothing.
        """
        opcode, result, operands, array_name = op
        if self._cancels(op):
            return [], _FIXED, _FIXED
        pre: list = []
        roots: list[frozenset] = []
        for value in operands:
            if isinstance(value, (Constant, ObfuscatedConstant)):
                roots.append(_FIXED)
                continue
            slot = self._slot_of(value)
            derived = env.get(slot, _FIXED)
            roots.append(derived)
            if derived and not self.layout.elidable_read(slot, value.type):
                # A re-wrapped read is linear while it stays in range.
                pre.append((("range", *_type_range(value.type)), _reg_render(slot)))
        first = roots[0] if roots else _FIXED
        second = roots[1] if len(roots) > 1 else _FIXED
        if opcode is Opcode.LOAD or opcode is Opcode.STORE:
            if first:
                length = self._mem_lengths.get(array_name, 0)
                guard = ("mod", length, self._mem_slots[array_name], first)
                pre.append((guard, self._operand_render(operands[0])))
            return pre, _FIXED, second if opcode is Opcode.STORE else _FIXED
        if opcode in _ORDERED or opcode is Opcode.EQ or opcode is Opcode.NE:
            if first or second:
                sign, threshold = _ORDERED.get(opcode, (1, None))
                left, right = operands if sign > 0 else operands[::-1]
                guard = ("le", threshold) if threshold is not None else ("eq",)
                pre.append((guard, self._difference_render(left, right)))
            return pre, _FIXED, _FIXED
        if opcode in (Opcode.ADD, Opcode.SUB):
            return pre, first | second, _FIXED
        if opcode in (Opcode.NEG, Opcode.NOT, Opcode.MOV):
            return pre, first, _FIXED
        if opcode is Opcode.MUL:
            if first and second:
                return pre, _FIXED, first | second
            return pre, first | second, _FIXED
        if opcode is Opcode.SHL or opcode is Opcode.SHR:
            if second:
                guard = ("mod", max(1, result.type.width), None, second)
                pre.append((guard, self._operand_render(operands[1])))
            if opcode is Opcode.SHL:
                return pre, first, _FIXED
            return pre, _FIXED, first
        return pre, _FIXED, _FIXED.union(*roots)

    def _operand_render(self, value: Value) -> Callable[[_Shape], str]:
        return lambda shape: self._operand(value, shape)

    def _difference_render(self, left: Value, right: Value) -> Callable[[_Shape], str]:
        return lambda shape: (
            f"({self._operand(left, shape)}) - ({self._operand(right, shape)})"
        )

    def _counter_pass(
        self,
        steps: Sequence[tuple[int, list]],
        counters: frozenset,
        ends: dict,
        dead: dict,
        probes: Optional[dict] = None,
    ) -> tuple[set[int], set[int], set[tuple]]:
        """One pass of the counter rule over a loop region: ``steps`` holds
        each entry with its :meth:`_chain_steps`, every register of
        ``counters`` may have moved when an entry starts, and ``ends`` and
        ``dead`` are the region's :meth:`_liveness`.

        Returns the registers live where an entry ends that it writes
        with a changing value they still hold then; the counters a
        changing value derives from where the rule forbids it: a
        forbidden read (:meth:`_counter_reads`), a branch on it, or a
        register outside ``counters`` that is live where an entry ends
        and still holds it then; and each counter an index or a shift
        amount derives from, with that access's length as ``(register,
        length, memory slot)``.  A dead op's value reaches no store,
        branch or live register, so it is probed for nothing and taints
        nothing: a value that wraps or moves nonlinearly into a register
        the next period rewrites before reading costs no jump.  With
        ``probes``, fills ``probes[entry]`` as :meth:`_chain_lines` reads
        it: an op's changing result that its wrap may fold is probed
        after the op, in its type's range (a two-phase op list reads
        before it commits, and none of its ops is dead).
        """
        ending: set[int] = set()
        tainted: set[int] = set()
        moduli: set[tuple] = set()
        for head, chain_steps in steps:
            env = {slot: frozenset((slot,)) for slot in counters}
            wrote: set[int] = set()
            entry_probes = probes.setdefault(head, {}) if probes is not None else None
            for idx, live in chain_steps:
                two_phase = live is None
                if two_phase:
                    fields = self._fields(self._state_ops[idx])
                    live = [(position, op, ()) for position, op in enumerate(fields)]
                commits: dict[int, tuple] = {}
                for position, op, _ in live:
                    pre, derived, forbidden = self._counter_reads(op, env)
                    key = (idx, None if two_phase else position)
                    kept = (idx, position) not in dead[head]
                    if kept:
                        tainted |= forbidden
                        moduli.update(
                            (root, *guard[1:3])
                            for guard, _ in pre
                            if guard[0] == "mod"
                            for root in guard[3]
                        )
                        if pre and entry_probes is not None:
                            entry_probes.setdefault(key, ([], []))[0].extend(pre)
                    opcode, result, operands, _ = op
                    if opcode is Opcode.STORE:
                        continue
                    slot = self._slot_of(result)
                    wrote.add(slot)
                    wraps = kept and derived and not (
                        opcode is Opcode.MOV and self._read_in_range(operands[0], result.type)
                    )
                    commits.pop(slot, None)
                    commits[slot] = (key, derived, wraps, result.type)
                    if not two_phase:
                        env[slot] = derived
                if two_phase:
                    # Every read comes before the commits, and only each
                    # register's last write is ever read.
                    for slot, (_, derived, _, _) in commits.items():
                        env[slot] = derived
                if entry_probes is not None:
                    for slot, (key, _, wraps, type_) in commits.items():
                        if wraps:
                            entry_probes.setdefault(key, ([], []))[1].append(
                                _range_probe(type_, slot)
                            )
            for slot in self._branch_reads(head):
                tainted |= env.get(slot, _FIXED)
            for slot in wrote & ends[head]:
                if env[slot]:
                    ending.add(slot)
                    if slot not in counters:
                        tainted |= env[slot]
        return ending, tainted, moduli

    def _counters(
        self, steps: Sequence[tuple[int, list]], candidates: set[int], ends: dict, dead: dict
    ) -> tuple[frozenset, tuple]:
        """The registers of a loop region that may move by a fixed step
        each period, and the lengths they are read modulo.

        The registers are the largest subset of ``candidates`` (the
        registers the region writes that are live at its probe head)
        under which :meth:`_counter_pass` finds no forbidden read and
        every register live where an entry ends with a changing value in
        is one of them; none when the region's repeats must be exact.
        Each of them that an index or a shift amount derives from comes
        with that access's length, as ``(register, length, memory
        slot)`` (the length 0 for a memory whose length is fixed only at
        run time): a period must bring the register back to its residue
        modulo each.
        """
        counters = frozenset(candidates)
        while True:
            ending, tainted, moduli = self._counter_pass(steps, counters, ends, dead)
            kept = (counters & ending) - tainted
            if kept == counters:
                return counters, tuple(sorted(moduli, key=repr))
            counters = kept

    def _heat(self, head: int, budget: int, uncapped: bool) -> None:
        """Chain entry ``head`` heated in an untraced run with ``budget``
        cycles left: run it in a loop closure with the warm entries around
        it when they close a cycle that can repay the build, else fuse it
        alone.  Either closure comes from the plan's memo when an earlier
        key built it for the same arms.  ``uncapped``: the budget is the
        cycles run so far, so an entry fused alone for want of it is
        judged again later (see :meth:`run`).

        The loop is entered from any of its entries that has no fused
        closure, and ``head`` has none.
        """
        self._heated[head] = True
        region = self._loop_region(head, budget)
        if region is None:
            if uncapped and head in self._unrepaid:
                self._deferred.add(head)
            self._fused[head] = self._fusion(head)
            return
        members = tuple(sorted(region))
        key = (members, self._arms(members))
        loop = self._built_loops.get(key)
        if loop is None:
            loop = self._built_loops[key] = self._loop(region)
            self.loops_built += 1
        else:
            self.loops_reused += 1
        for member in members:
            self._drop_loop(member)
        for member in members:
            self._loops[member] = loop

    def _rejudge(self) -> None:
        """Forget which loops could not repay their build, and unfuse the
        entries an uncapped run fused alone for want of cycles, so each
        heats again on its next dispatch (see :meth:`run`)."""
        for head in self._deferred:
            self._fused[head] = None
        self._deferred.clear()
        self._unrepaid.clear()

    def _fusion(self, head: int) -> Callable:
        """Chain entry ``head`` fused (:meth:`_fuse_chain`), from the memo
        when an earlier key fused it with the same arms."""
        key = (head, self._arms((head,)))
        step = self._fusions.get(key)
        if step is None:
            step = self._fusions[key] = self._fuse_chain(head)
        else:
            self.fusions_reused += 1
        return step

    def _arms(self, heads: Sequence[int]) -> tuple[int, ...]:
        """The identity of the op closures each state of chain entries
        ``heads`` runs: with the entries, all that a fused chain or loop
        closure over them inlines.  Arms live as long as the plan, and a
        state has one per distinct content, so equal identities mean
        equal ops."""
        units = self._state_units
        return tuple(id(units[idx]) for head in heads for idx in self._entries[head][5])

    def _drop_loop(self, head: int) -> None:
        """Drop the loop closure running entry ``head``, if any, from every
        entry of its region."""
        loop = self._loops[head]
        for member in loop.region if loop is not None else ():
            self._loops[member] = None

    def _loop_region(self, head: int, budget: int) -> Optional[tuple[int, ...]]:
        """The chain entries a loop closure around ``head`` would run,
        most dispatched first: the strongly connected set of warm entries
        (at least :data:`_WARM_AFTER` dispatches since their chain was
        rebuilt) that holds ``head``.  None when that set closes no cycle
        or ``budget`` holds fewer than :data:`_LOOP_REPAY` cycles per op
        it runs (a two-phase op list counts as one op).

        Within a run the budget only shrinks and the warm entries only
        grow, so a set that cannot repay is remembered until the run
        ends (or an uncapped run judges it again) and its other entries
        fuse without a second search.
        """
        entries, dispatches = self._entries, self._dispatches
        if head in self._unrepaid:
            return None
        if budget < _LOOP_REPAY * len(entries[head][1]):
            self._unrepaid.add(head)
            return None
        # Forward from head over warm chain entries, then back to it.
        predecessors: dict[int, list[int]] = {}
        reached, pending = {head}, [head]
        while pending:
            source = pending.pop()
            for target in entries[source][3:5]:
                if target is None or entries[target][0] != _CHAIN:
                    continue
                if target != head and dispatches[target] < _WARM_AFTER:
                    continue
                predecessors.setdefault(target, []).append(source)
                if target not in reached:
                    reached.add(target)
                    pending.append(target)
        region: set[int] = set()
        pending = [head]
        while pending:
            for source in predecessors.get(pending.pop(), ()):
                if source not in region:
                    region.add(source)
                    pending.append(source)
        if head not in region:
            return None
        if budget < _LOOP_REPAY * sum(len(entries[member][1]) for member in region):
            self._unrepaid.update(region)
            return None
        return tuple(sorted(region, key=lambda member: (-dispatches[member], member)))

    def _loop(self, region: Sequence[int]) -> _Loop:
        """The chain entries of ``region`` as one closure ``loop(regs,
        mems, state, cycles, max_cycles, probe, delay, shortest)``
        returning ``(state, cycles, skipped, period, probe)``.

        The closure holds a ``while`` loop over an ``if state == head``
        ladder (in ``region``'s order), each rung the chain's ops inline
        (see :meth:`_chain_lines`) with registers, memories and key
        cells in locals.  It runs entries while control stays in the
        region and the next entry fits ``max_cycles``, then writes its
        registers back and returns the entry it stopped at, the cycle
        count and the probe visits left.

        After ``delay`` visits to the region's first entry, its probe
        head, it probes ``probe`` more (see :func:`_repeat`): a snapshot
        of the registers the region writes that are live at the probe
        head (:meth:`_liveness`) other than its counters
        (:meth:`_counters`), the memories it stores to and each counter's
        residue modulo the lengths it is read by, with the counters
        beside it.  Nothing else that a period reads before writing it
        changes while the loop runs.  On an exact repeat of period P
        cycles it adds the largest multiple of P that keeps the count
        within ``max_cycles`` (returned as ``skipped``) and runs on: the
        loop repeats that period until the cap, so every memory and every
        register a later cycle reads is as it would be, and a register
        left out of the snapshot is rewritten before any read.  On a
        counter repeat of period P, more than ``shortest`` cycles, it
        returns at once with P as ``period``, for :meth:`_counter_jump`
        to confirm and jump.
        """
        written: set[int] = set()
        stored: set[int] = set()
        for head in region:
            for idx in self._entries[head][5]:
                for opcode, result, _, array_name in self._fields(self._state_ops[idx]):
                    if opcode is Opcode.STORE:
                        stored.add(self._mem_slots[array_name])
                    else:
                        written.add(self._slot_of(result))
        shape = _LoopShape(self._chain_factories, sorted(written))
        steps = [(head, self._chain_steps(head)) for head in region]
        rungs: list[str] = []
        for position, (head, chain_steps) in enumerate(steps):
            length = self._lengths[head]
            rungs += [
                f"{'el' if position else ''}if state == {head}:",
                f"    if cycles + {length} > max_cycles: break",
                f"    cycles += {length}",
                *(f"    {line}" for line in self._chain_lines(head, shape, chain_steps)),
                f"    state = {self._next_target(head, shape)}",
            ]
        head_live, ends, dead = self._liveness(steps)
        counters, moduli = self._counters(steps, written & head_live, ends, dead)
        counted = sorted(counters)
        watched = [slot for slot in shape.written if slot in head_live and slot not in counters]
        memories = sorted(shape.mems | stored)
        snapshot = ", ".join(
            ["state", *(f"r{slot}" for slot in watched)]
            + [f"tuple(m{slot})" for slot in sorted(stored)]
            + [
                f"r{slot} % {length or f'(len(m{memory}) or 1)'}"
                for slot, length, memory in moduli
            ]
        )
        counts = "".join(f"r{slot}, " for slot in counted)
        lines = [
            *(f"r{slot} = regs[{slot}]" for slot in sorted(shape.regs)),
            *(f"m{slot} = mems[{slot}]" for slot in memories),
            *shape.prologue,
            "history = {}",
            "skipped = found = 0",
            "while True:",
            f"    if probe and state == {region[0]}:",
            "        if delay:",
            "            delay -= 1",
            "        else:",
            "            probe -= 1",
            f"            found = _repeat(history, ({snapshot},), cycles, ({counts}), shortest)",
            "            if found < 0:",
            "                skipped = (max_cycles - cycles) // -found * -found",
            "                cycles += skipped",
            "                probe = found = 0",
            "            elif found:",
            "                break",
            *(f"    {line}" for line in rungs),
            "    else:",
            "        break",
            *(f"regs[{slot}] = r{slot}" for slot in shape.written),
            "return state, cycles, skipped, found, probe",
        ]
        run = shape.closure(
            lines, "regs, mems, state, cycles, max_cycles, probe, delay, shortest"
        )
        return _Loop(
            run,
            tuple(region),
            steps,
            (ends, dead),
            tuple(counted),
            tuple(watched),
            not written <= head_live,
            tuple(sorted(stored)),
        )

    # ------------------------------------------------------------------
    # Counter jumps: confirming and jumping at run time
    # ------------------------------------------------------------------
    def _counter_jump(
        self,
        loop: _Loop,
        regs: list,
        mems: list,
        state: int,
        cycles: int,
        max_cycles: int,
        period: int,
    ) -> tuple[Optional[int], int, int]:
        """Confirm and take a counter jump from entry ``state``, where
        ``loop``'s closure saw the entry, its watched registers and its
        stored memories repeat after ``period`` cycles while a counter
        moved.  Returns ``(state, cycles, skipped)``.

        Two more periods run through the region's recording closures
        (:meth:`_recorders`).  They must follow one path through the
        region, repeat what the closure watched at all three period
        starts, and move each counter by the same step twice (``x = 2 *
        x`` moves by a different step each period).  Then the counters
        move by k steps and the count by k periods, for the largest k
        that :func:`_jump_bound` and the budget allow.  The next period
        reads only live registers and memories, which then hold the
        interpreter's values: the counters moved by k steps, the other
        live registers repeat and the stored memories are watched.  A
        register left out of the snapshot still holds what it held before
        the jump, but the loop writes it before reading it.  When an exit
        rather than the budget bounds k and the loop leaves registers
        out, k is one period shorter: a whole period on the confirmed
        path then rewrites them before control can leave the region, so
        at the exit every register is the interpreter's.  A jump bounded
        by the budget leaves less than a period on the confirmed path,
        which ends at the cap inside the region, where only memories,
        cycles and the completed flag reach the result.  A failed
        confirmation leaves the run where the two periods ended.
        """
        if loop.recorders is None:
            loop.recorders = self._recorders(loop)
        counters = loop.counters

        def snapshot() -> tuple:
            return (
                state,
                [regs[slot] for slot in loop.watched],
                [list(mems[slot]) for slot in loop.stored],
            )

        if cycles + 3 * period > max_cycles:
            return state, cycles, 0
        start = snapshot()
        records = []
        counts = [[regs[slot] for slot in counters]]
        for _ in range(2):
            state, cycles, record = self._run_period(loop, regs, mems, state, cycles, period)
            if record is None or snapshot() != start:
                return state, cycles, 0
            records.append(record)
            counts.append([regs[slot] for slot in counters])
        (path, guards, before), (other_path, _, after) = records
        steps = [b - a for a, b in zip(counts[1], counts[2])]
        if path != other_path or steps != [b - a for a, b in zip(counts[0], counts[1])]:
            return state, cycles, 0
        room = (max_cycles - cycles) // period
        periods = _jump_bound(guards, before, after, mems)
        if periods is not None and periods <= room and loop.left_out:
            # The first period past the jump may leave the region, and a
            # register left out of the snapshot still holds what it held
            # here: land a period earlier, so a whole period on the
            # confirmed path rewrites it first.
            periods -= 1
        jump = room if periods is None else min(periods, room)
        if jump <= 0:
            return state, cycles, 0
        for slot, step in zip(counters, steps):
            regs[slot] += jump * step
        return state, cycles + jump * period, jump * period

    def _recorders(self, loop: _Loop) -> dict[int, tuple[Callable, list]]:
        """Per entry of ``loop``'s region, a closure ``step(regs, mems,
        values)`` that runs its chain as :meth:`_fuse_chain`'s does, with
        every probe of :meth:`_counter_pass` appending its value to
        ``values``, and returns the next entry; and the guards of those
        values, in order.  The pass runs under the liveness the loop's
        counters were decided with, so it probes exactly the ops the rule
        kept (a dead op records nothing)."""
        probes: dict = {}
        self._counter_pass(loop.steps, frozenset(loop.counters), *loop.live, probes)
        recorders = {}
        for head, chain_steps in loop.steps:
            shape = _Shape(self._chain_factories)
            guards: list[tuple] = []
            lines = self._chain_lines(head, shape, chain_steps, probes[head], guards)
            lines.append(f"return {self._next_target(head, shape)}")
            recorders[head] = (shape.closure(lines, "regs, mems, values"), guards)
        return recorders

    def _run_period(
        self, loop: _Loop, regs: list, mems: list, state: int, cycles: int, period: int
    ) -> tuple[Optional[int], int, Optional[tuple]]:
        """Run ``period`` cycles of whole entries of ``loop``'s region
        from ``state`` through its recording closures.  Returns the state
        and count reached and the record ``(entries run, probe guards,
        probe values)``, which is None when control left the region or
        the next entry would end past the period."""
        recorders, lengths = loop.recorders, self._lengths
        end = cycles + period
        path: list[int] = []
        guards: list[tuple] = []
        values: list[int] = []
        while cycles < end:
            if state not in recorders or cycles + lengths[state] > end:
                return state, cycles, None
            cycles += lengths[state]
            path.append(state)
            step, entry_guards = recorders[state]
            guards += entry_guards
            state = step(regs, mems, values)
        return state, cycles, (path, guards, values)

    # ------------------------------------------------------------------
    # Per-key specialization
    # ------------------------------------------------------------------
    def bind_key(self, working_key: int) -> None:
        """Select the variant arms and fill every key-dependent cell for
        ``working_key``.

        An op list the key selects for the first time finds its arm here
        (one per distinct content of the state, see :meth:`_arm`; a new
        content compiles one and keeps it on the plan), and the chains
        that run a state whose arm changed get their op lists rebuilt;
        after that, binding is cheap — O(obfuscated constants + ROMs +
        masked branches + variant blocks), independent of cycle count —
        and memoized on the last bound key, so re-running the same key
        rebinds nothing.  A
        selector with no arm in its block's table raises ``KeyError``,
        and the failed bind leaves no key memoized.
        """
        if working_key == self._bound_key:
            return
        self._bound_key = None
        # Arms first: compiling a new arm can add constant and ROM cells.
        # Every arm is looked up before any is bound, so a bind that
        # raises leaves the bound arms and the chains that run them as
        # they were.
        selected = []
        for variants, tables in self._variant_binds:
            selector = variants.selector(working_key)
            for idx, per_selector, arms in tables:
                ops = per_selector[selector]
                arm = arms.get(id(ops))
                if arm is None:
                    arm = arms[id(ops)] = self._arm(idx, ops)
                selected.append((idx, ops, arm))
        state_units = self._state_units
        changed: set[int] = set()
        for idx, ops, arm in selected:
            if state_units[idx] is not arm:
                state_units[idx] = arm
                self._state_ops[idx] = ops
                changed.update(self._heads_through.get(idx, ()))
        entries = self._entries
        for head in changed:
            entry = entries[head]
            entries[head] = (entry[0], self._chain_units(entry[5])) + entry[2:]
            self._fused[head] = None
            self._dispatches[head] = 0
            self._drop_loop(head)
        for cell, offset, mask, stored, sign, type_mask, type_sign in self._kconst_binds:
            raw = ((((working_key >> offset) & mask) ^ stored) + sign & mask) - sign
            cell[0] = ((raw + type_sign) & type_mask) - type_sign
        for rom, element_type, cell in self._rom_binds:
            cell[0] = rom.mask_for(element_type, working_key)
        for bit, cell in self._kb_cells.items():
            cell[0] = (working_key >> bit) & 1
        self._bound_key = working_key

    def _arm(self, idx: int, ops: Sequence) -> list:
        """The compiled arm of variant state ``idx`` that runs ``ops``:
        the arm of an earlier list of the state with the same ops (equal
        op fields), else a new one.  Lists at different Hamming distances
        often hold the same ops in a state, so they share an arm, and the
        closures the plan keeps by arm identity serve them all."""
        content = (
            idx,
            *(
                (opcode, result, tuple(operands), array_name)
                for opcode, result, operands, array_name in self._fields(ops)
            ),
        )
        arm = self._arm_of.get(content)
        if arm is None:
            arm = self._arm_of[content] = self._compile_ops(ops)
        return arm

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        working_key: int = 0,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        trace: bool = False,
    ) -> SimulationResult:
        if len(args) != self._n_scalar_params:
            raise SimulationError(
                f"{self.design.func.name} expects {self._n_scalar_params} "
                f"scalar args, got {len(args)}"
            )
        self.bind_key(working_key)
        regs = [0] * self._n_regs
        for latch, arg in zip(self._param_latches, args):
            if latch is not None:
                slot, wrap = latch
                regs[slot] = wrap(arg)
        mems, arrays_by_name = self.layout.initial_memories(arrays)
        for name, length in self._mem_lengths.items():
            if len(arrays_by_name[name]) != length:
                raise SimulationError(
                    f"memory {name!r} holds {len(arrays_by_name[name])} words, but "
                    f"its compiled plan indexes {length}: the design changed "
                    "after the plan was lowered"
                )

        entries = self._entries
        lengths = self._lengths
        dispatches = self._dispatches
        fused = self._fused
        loops = self._loops
        heated = self._heated
        fuse_after = _FUSE_AFTER
        reheat_after = min(_REHEAT_AFTER, fuse_after)
        probe, delay, shortest = _PROBE_ITERATIONS, _PROBE_DELAY, 0
        state: Optional[int] = self._entry_idx
        state_trace: list[str] = []
        cycles = 0
        completed = False
        returned: Optional[int] = None
        # The uncapped default budget says nothing about how long a run
        # lasts, so such a run judges whether a loop repays by the cycles
        # it has run.  It judges the entries it fused alone for want of
        # them again once it has run twice as many (``limit``), and so
        # does the next run.
        uncapped = max_cycles == DEFAULT_MAX_CYCLES
        limit = max_cycles
        self._rejudge()
        while True:
            step = fused[state]
            length = lengths[state]
            if step is not None and cycles + length <= limit:
                # A fused chain: one call runs it and picks the next entry.
                cycles += length
                if trace:
                    state_trace.extend(entries[state][6])
                state = step(regs, mems)
                if state is None:
                    completed = True
                    break
                continue
            if limit < max_cycles and cycles + length > limit:
                self._rejudge()
                limit = max_cycles
                continue
            kind, units, condition, following, alternative, chain, names = entries[state]
            if cycles + length > max_cycles:
                # The budget ends inside this entry: run the states that fit.
                if max_cycles > cycles:
                    fits = chain[: max_cycles - cycles]
                    if trace:
                        state_trace.extend(names[: len(fits)])
                    for unit in self._chain_units(fits):
                        unit(regs, mems)
                    cycles = max_cycles
                break
            looped = loops[state]
            if looped is not None and not trace:
                # A loop closure runs entries until control leaves its
                # region or the next entry does not fit the budget.
                start = cycles
                state, cycles, skipped, period, unprobed = looped.run(
                    regs, mems, state, cycles, max_cycles, probe, delay, shortest
                )
                self.loop_cycles += cycles - start - skipped
                if skipped:
                    self.repeat_skips += 1
                    self.skipped_cycles += skipped
                elif period:
                    start = cycles
                    state, cycles, skipped = self._counter_jump(
                        looped, regs, mems, state, cycles, max_cycles, period
                    )
                    self.loop_cycles += cycles - start - skipped
                    if skipped:
                        self.counter_skips += 1
                        self.skipped_cycles += skipped
                    else:
                        # Not a period: look for longer ones.
                        shortest = period
                elif not unprobed:
                    # A probe that found no repeat: the next loop call of
                    # this run waits twice as long before probing.
                    delay = 2 * delay + probe
                if state is None:
                    completed = True
                    break
                continue
            cycles += length
            if trace:
                state_trace.extend(names)
            if kind == _CHAIN:
                count = dispatches[state] = dispatches[state] + 1
                if count >= fuse_after or (count >= reheat_after and heated[state]):
                    if not trace:
                        budget = max_cycles - cycles
                        self._heat(state, min(budget, cycles) if uncapped else budget, uncapped)
                        if self._deferred and limit == max_cycles:
                            limit = min(2 * cycles, max_cycles)
                    elif looped is None:
                        fused[state] = self._fusion(state)
                for unit in units:
                    unit(regs, mems)
            else:
                for unit in units:
                    value = unit(regs, mems)
                    if value is not None:
                        returned = value
                if returned is not None or kind == _DONE:
                    completed = True
                    break
            if condition is None or condition(regs, mems):
                state = following
            else:
                state = alternative
            if state is None:
                completed = True
                break

        return SimulationResult(
            return_value=returned,
            arrays=arrays_by_name,
            cycles=cycles,
            completed=completed,
            state_trace=state_trace,
        )


# ----------------------------------------------------------------------
# Compile-once cache
# ----------------------------------------------------------------------
#: See :class:`repro.sim.layout.PlanCache` for the eviction contract.
_COMPILE_CACHE_LIMIT = 8
_COMPILE_CACHE = PlanCache(CompiledDesign, limit=_COMPILE_CACHE_LIMIT)


def compiled_for(design: FsmdDesign) -> CompiledDesign:
    """The (memoized) compiled plan for ``design``.

    Keyed on object identity and validated against
    :func:`repro.sim.layout.design_fingerprint`; the cache holds at
    most :data:`_COMPILE_CACHE_LIMIT` recent plans.
    """
    return _COMPILE_CACHE.plan_for(design)
