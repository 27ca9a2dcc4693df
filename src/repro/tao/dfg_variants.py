"""DFG-variant generation (paper §3.3.4, Algorithm 1, Fig. 4).

For each basic block with key slice ``k_i`` of ``B_i`` bits, TAO builds
one DFG variant per possible selector value.  The variant stored at the
correct value reproduces the baseline block; the others are derived by

1. **operation-type swaps** — operations are clustered by functional
   unit class; each operation elects a reciprocal operation in another
   cluster at the variant's Hamming distance from ``k_i`` and the two
   opcodes swap with probability 0.5 (step 1 in Fig. 4);
2. **dependence rearrangement** — each operand elects an alternative
   producer at the same distance and the edge is rewired with
   probability 0.5, keeping causality within the baseline schedule
   (step 2 in Fig. 4).

All variants are then merged into one datapath micro-architecture
(step 3): the design model accounts for this by widening FU operation
sets and multiplexer source sets (see ``FsmdDesign.merged_fu_optypes``
and ``fu_input_sources``), which is where the paper's ~21 % average
area overhead comes from.

Variants keep the baseline schedule length, so the correct key incurs
no latency change, while wrong keys execute "credible" but incorrect
data flows — exactly the behaviour §4.3 validates.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional

from repro.hls.design import BlockVariants, FsmdDesign, VariantOp
from repro.hls.resources import FUKind, fu_kind_for
from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import BINARY_OPS, Instruction, Opcode
from repro.ir.values import Constant, Value
from repro.tao.key import KeyApportionment


def hamming_distance(a: int, b: int) -> int:
    """Bit-count of ``a XOR b`` (Algorithm 1's ComputeDistance)."""
    return bin(a ^ b).count("1")


#: FU classes whose operations may exchange types.  Swapping an op onto a
#: functional unit of a radically more expensive class (a divider or
#: multiplier merged into an adder slot) would dominate the datapath
#: area; the paper notes the variant technique targets computations with
#: "simple functional units (e.g., shifters and Boolean operations)"
#: (§4.2), so type swaps stay within comparable-cost classes.
SWAP_CLASSES: list[set[FUKind]] = [
    {FUKind.ADDSUB, FUKind.LOGIC, FUKind.CMP, FUKind.SHIFT},
    {FUKind.MUL},
    {FUKind.DIV},
]


def _swap_class_of(kind: FUKind) -> set[FUKind]:
    for group in SWAP_CLASSES:
        if kind in group:
            return group
    return {kind}  # pragma: no cover - all kinds covered above


def _baseline_variant_ops(block: BasicBlock, cstep_of: dict[int, int]) -> list[VariantOp]:
    """The identity variant: one VariantOp per baseline instruction."""
    ops: list[VariantOp] = []
    for slot, inst in enumerate(block.instructions):
        ops.append(
            VariantOp(
                opcode=inst.opcode,
                result=inst.result,
                operands=list(inst.operands),
                cstep=cstep_of[inst.uid],
                array_name=inst.array.name if inst.array is not None else None,
                slot=slot,
            )
        )
    return ops


def _swappable(op: VariantOp) -> bool:
    """Operations eligible for type swaps: binary datapath ops."""
    return op.opcode in BINARY_OPS


def _cluster_operations(ops: list[VariantOp]) -> dict[FUKind, list[VariantOp]]:
    """Group swap-eligible ops by FU class (Algorithm 1's clusters)."""
    clusters: dict[FUKind, list[VariantOp]] = {}
    for op in ops:
        if not _swappable(op):
            continue
        kind = fu_kind_for(op.opcode)
        if kind is not None:
            clusters.setdefault(kind, []).append(op)
    return clusters


def _swap_operation_types(
    ops: list[VariantOp], distance: int, rng: random.Random
) -> None:
    """Step 1: statistically swap opcodes between clusters.

    The reciprocal operation is drawn from a *different* cluster of the
    same cost class (see :data:`SWAP_CLASSES`); within a single-cluster
    class, ops swap among themselves.
    """
    clusters = _cluster_operations(ops)
    kinds = sorted(clusters, key=lambda k: k.value)
    if not kinds:
        return
    swappable = [op for op in ops if _swappable(op)]
    for op in swappable:
        own_kind = fu_kind_for(op.opcode)
        assert own_kind is not None
        allowed = _swap_class_of(own_kind)
        other_kinds = [k for k in kinds if k is not own_kind and k in allowed]
        if other_kinds:
            target_kind = other_kinds[distance % len(other_kinds)]
        elif own_kind in clusters and len(clusters[own_kind]) > 1:
            target_kind = own_kind  # swap within the cluster
        else:
            continue
        candidates = clusters[target_kind]
        if not candidates:
            continue
        reciprocal = candidates[distance % len(candidates)]
        if reciprocal is op:
            continue
        if rng.random() < 0.5:
            op.opcode, reciprocal.opcode = reciprocal.opcode, op.opcode


def _rearrange_dependences(
    ops: list[VariantOp], distance: int, rng: random.Random
) -> None:
    """Step 2: statistically rewire operand edges, keeping causality.

    An operand of an op in cstep s may be replaced by the result of any
    op completing in a cstep strictly before s (results are registered),
    so the rewired graph stays executable on the baseline schedule.
    """
    producers_by_cstep: list[tuple[int, Value]] = [
        (op.cstep, op.result)
        for op in ops
        if op.result is not None and op.opcode is not Opcode.STORE
    ]
    for op in ops:
        if op.opcode in (Opcode.JUMP, Opcode.BRANCH, Opcode.RET):
            continue
        earlier = [value for cstep, value in producers_by_cstep if cstep < op.cstep]
        if not earlier:
            continue
        for position, operand in enumerate(op.operands):
            if isinstance(operand, Constant):
                continue  # constants are handled by the constant pass
            if rng.random() >= 0.5:
                continue
            replacement = earlier[(distance + position) % len(earlier)]
            if replacement is operand or replacement is op.result:
                continue
            op.operands[position] = replacement


def create_dfg_variants(
    block: BasicBlock,
    cstep_of: dict[int, int],
    key_offset: int,
    key_bits: int,
    correct_value: int,
    seed: int,
    diversity: str = "distance",
) -> BlockVariants:
    """Algorithm 1: build the variant set for one basic block.

    With ``diversity="distance"`` the transformation is a deterministic
    function of the variant's Hamming distance to the correct selector
    (Algorithm 1's ``ComputeDistance`` drives both GetOperation and
    GetDependence), so equal-distance selectors share a decoy structure
    and the merged multiplexer network stays compact.  With
    ``diversity="selector"`` every selector value draws independent
    randomness — maximal structural diversity at higher area cost.

    One op list is built per distinct RNG salt — the baseline for the
    correct selector, then one per distance (``distance``) or per
    selector (``selector``) — and every selector the salt covers points
    at it: under ``distance`` a ``B``-bit block holds ``B + 1`` lists,
    not ``2**B`` (see :class:`~repro.hls.design.BlockVariants`).
    """
    variants = BlockVariants(
        block_name=block.name,
        key_offset=key_offset,
        key_bits=key_bits,
        correct_value=correct_value,
    )
    # Stable across processes (str hash is salted per interpreter run,
    # which would make the generated hardware non-reproducible).
    block_hash = zlib.crc32(block.name.encode()) & 0xFFFF
    # RNG salt (None for the correct selector) -> its op list.
    built: dict[Optional[int], list[VariantOp]] = {}
    for selector in range(1 << key_bits):
        distance = hamming_distance(selector, correct_value)
        if selector == correct_value:
            salt = None
        elif diversity == "selector":
            salt = selector
        else:
            salt = distance
        ops = built.get(salt)
        if ops is None:
            ops = built[salt] = _baseline_variant_ops(block, cstep_of)
            if salt is not None:
                rng = random.Random((seed << 20) ^ (salt << 8) ^ block_hash)
                _swap_operation_types(ops, distance, rng)
                _rearrange_dependences(ops, distance, rng)
        variants.variants[selector] = ops
    return variants


def obfuscate_dfgs(
    design: FsmdDesign,
    apportionment: KeyApportionment,
    working_key: int,
    seed: int,
    diversity: str = "distance",
) -> dict[str, BlockVariants]:
    """Create and attach DFG variants for every apportioned block."""
    created: dict[str, BlockVariants] = {}
    for block_name, (offset, bits) in apportionment.block_slice_of.items():
        block_schedule = design.schedule.blocks[block_name]
        correct_value = (working_key >> offset) & ((1 << bits) - 1)
        variants = create_dfg_variants(
            block=block_schedule.block,
            cstep_of=block_schedule.cstep_of,
            key_offset=offset,
            key_bits=bits,
            correct_value=correct_value,
            seed=seed,
            diversity=diversity,
        )
        created[block_name] = variants
    design.block_variants.update(created)
    return created


def variant_divergence(variants: BlockVariants) -> float:
    """Fraction of (opcode, operand) slots differing from the baseline.

    A diagnostic for how much structural diversity Algorithm 1 injected
    into a block (0.0 = all variants identical to the baseline).
    """
    baseline = variants.variants[variants.correct_value]
    total = 0
    differing = 0
    for selector, ops in variants.variants.items():
        if selector == variants.correct_value:
            continue
        for base_op, op in zip(baseline, ops):
            total += 1 + len(base_op.operands)
            if op.opcode is not base_op.opcode:
                differing += 1
            for a, b in zip(base_op.operands, op.operands):
                if a is not b:
                    differing += 1
    return differing / total if total else 0.0
