"""Working-key apportionment (paper §3.2.1, §3.3.1, Eq. 1).

TAO analyzes the optimized/inlined IR of the top function and decides
how many working-key bits W each design needs:

    W = Num_if + Num_const * C + sum_i B_i            (Eq. 1)

with one bit per conditional branch, C bits per extracted constant and
B_i bits per basic block (the paper uses C = 32 and B_i = 4 for all
blocks, yielding up to 16 DFG variants per block).

The working-key layout places branch bits first, then constant slices,
then per-block variant selectors; the layout is recorded in
:class:`repro.hls.design.KeyConfiguration` so all passes, the RTL
emitter and the simulator agree on bit positions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.values import Constant
from repro.tao.rom_pass import eligible_roms


@dataclass
class ObfuscationParameters:
    """Tunable parameters of the TAO flow (paper defaults).

    ``min_constant_magnitude`` selects which literals count as
    *sensitive* constants (§3.3.2 extracts specification constants such
    as coefficients and loop bounds; the structural 0/±1 literals that
    lowering introduces for increments and comparisons are not part of
    the specification and are left inline — the paper's small Table 1
    constant counts imply the same policy).

    ``variant_diversity`` controls Algorithm 1's randomness scope:
    ``"distance"`` (default) derives each variant's swaps from its
    Hamming distance to the correct selector, so equal-distance
    selectors share a structure (and one op list); ``"selector"`` gives
    every selector an independent structure (more diversity, more
    multiplexer area — see the A1 ablation bench).

    Every block gets ``2**block_bits`` selectors; nothing caps the
    count (``block_bits=6`` builds 64 selectors per block, of which 7
    are distinct under ``"distance"``).
    """

    constant_width: int = 32  # C
    branch_bits: int = 1  # key bits per conditional branch
    block_bits: int = 4  # B_i, uniform over blocks
    obfuscate_constants: bool = True
    obfuscate_branches: bool = True
    obfuscate_dfg: bool = True
    obfuscate_roms: bool = False  # repository extension (see tao.rom_pass)
    min_constant_magnitude: int = 2
    variant_diversity: str = "distance"
    locking_key_bits: int = 256
    seed: int = 0xDAC2018  # deterministic design-time randomness


@dataclass
class KeyApportionment:
    """Result of analyzing one function for key demand.

    Attributes:
        num_branches: Num_if, conditional jumps in the CFG.
        num_constants: Num_const, extractable constant occurrences.
        num_blocks: Number of basic blocks (each gets B_i bits).
        branch_bit_of: branch instruction uid -> working-key bit index.
        constant_slots: (block, inst uid, operand position) per constant
            occurrence, in key-layout order.
        constant_offset_of: slot index -> working-key bit offset.
        block_slice_of: block name -> (offset, width).
        rom_slice_of: ROM array name -> (offset, width); only populated
            by the ROM-obfuscation extension (off by default).
        working_key_bits: W from Eq. 1 (plus the ROM extension term
            ``num_roms * C`` when enabled).
    """

    params: ObfuscationParameters
    num_branches: int = 0
    num_constants: int = 0
    num_blocks: int = 0
    num_roms: int = 0
    branch_bit_of: dict[int, int] = field(default_factory=dict)
    constant_slots: list[tuple[str, int, int]] = field(default_factory=list)
    constant_offset_of: dict[int, int] = field(default_factory=dict)
    block_slice_of: dict[str, tuple[int, int]] = field(default_factory=dict)
    rom_slice_of: dict[str, tuple[int, int]] = field(default_factory=dict)
    working_key_bits: int = 0

    def equation_1(self) -> int:
        """Recompute W from the counted quantities (sanity check)."""
        return (
            self.num_branches * self.params.branch_bits
            + self.num_constants * self.params.constant_width
            + self.num_blocks * self.params.block_bits
            + self.num_roms * self.params.constant_width
        )


def _fits_in_width(constant: Constant, width: int) -> bool:
    """True when the constant's value encodes losslessly in ``width`` bits
    (two's complement for signed values, plain binary for unsigned)."""
    if constant.type.signed:
        return -(1 << (width - 1)) <= constant.value <= (1 << (width - 1)) - 1
    return 0 <= constant.value < (1 << width)


def extractable_constants(
    func: Function, min_magnitude: int = 2, max_width: int | None = None
) -> list[tuple[str, int, int]]:
    """Sensitive constant occurrences eligible for obfuscation.

    Returns (block name, instruction uid, operand position) triples for
    every literal-constant operand of a non-terminator instruction whose
    magnitude is at least ``min_magnitude`` — coefficients, loop bounds,
    thresholds and masks, but not the structural 0/±1 literals lowering
    emits for increments and zero-comparisons.  Branch targets carry no
    constants; a RET value constant is extractable like any other.
    Constants that do not encode losslessly in ``max_width`` bits (the
    flow's C parameter) are left inline — the paper picks C = 32 so that
    every specification constant fits.
    """
    slots: list[tuple[str, int, int]] = []
    for block_name, block in func.blocks.items():
        for inst in block.instructions:
            if inst.opcode in (Opcode.JUMP, Opcode.BRANCH):
                continue
            for position, operand in enumerate(inst.operands):
                if not isinstance(operand, Constant):
                    continue
                if abs(operand.value) < min_magnitude:
                    continue
                if max_width is not None and not _fits_in_width(operand, max_width):
                    continue
                slots.append((block_name, inst.uid, position))
    return slots


def apportion_keys(func: Function, params: ObfuscationParameters) -> KeyApportionment:
    """Analyze ``func`` and lay out the working key (Eq. 1)."""
    apportionment = KeyApportionment(params=params)

    branches = func.conditional_branches() if params.obfuscate_branches else []
    constants = (
        extractable_constants(
            func, params.min_constant_magnitude, params.constant_width
        )
        if params.obfuscate_constants
        else []
    )
    blocks = list(func.blocks) if params.obfuscate_dfg else []

    roms = eligible_roms(func) if params.obfuscate_roms else []

    offset = 0
    for branch in branches:
        apportionment.branch_bit_of[branch.uid] = offset
        offset += params.branch_bits
    for index, slot in enumerate(constants):
        apportionment.constant_slots.append(slot)
        apportionment.constant_offset_of[index] = offset
        offset += params.constant_width
    for block_name in blocks:
        apportionment.block_slice_of[block_name] = (offset, params.block_bits)
        offset += params.block_bits
    for rom_name in roms:
        apportionment.rom_slice_of[rom_name] = (offset, params.constant_width)
        offset += params.constant_width

    apportionment.num_branches = len(branches)
    apportionment.num_constants = len(constants)
    apportionment.num_blocks = len(blocks)
    apportionment.num_roms = len(roms)
    apportionment.working_key_bits = offset
    return apportionment


@dataclass(frozen=True)
class LockingKey:
    """The K-bit secret delivered to the IC after fabrication (§3.4)."""

    bits: int
    width: int = 256

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError(f"locking key does not fit in {self.width} bits")

    @classmethod
    def random(cls, rng: random.Random, width: int = 256) -> "LockingKey":
        return cls(bits=rng.getrandbits(width), width=width)

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.width + 7) // 8, "big")

    def bit(self, index: int) -> int:
        return (self.bits >> (index % self.width)) & 1

    def hamming_distance(self, other: "LockingKey") -> int:
        return bin(self.bits ^ other.bits).count("1")
