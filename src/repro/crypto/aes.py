"""Pure-Python AES (FIPS-197) supporting 128/192/256-bit keys.

TAO's key-management scheme (paper §3.4, Fig. 5) stores the working key
AES-encrypted in on-chip NVM and decrypts it at power-up with the
256-bit locking key.  This module provides the block cipher (ECB on
single blocks plus a CTR keystream helper) used by
``repro.tao.keymgmt``.  The S-box and round constants are computed from
first principles (GF(2^8) inversion and the affine map) rather than
pasted tables.
"""

from __future__ import annotations

from typing import Iterable


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial 0x11B."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _affine(byte: int) -> int:
    """The AES S-box affine transformation over GF(2)."""
    result = 0
    for bit in range(8):
        value = (
            (byte >> bit)
            ^ (byte >> ((bit + 4) % 8))
            ^ (byte >> ((bit + 5) % 8))
            ^ (byte >> ((bit + 6) % 8))
            ^ (byte >> ((bit + 7) % 8))
            ^ (0x63 >> bit)
        ) & 1
        result |= value << bit
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    """The S-box and its inverse: each byte's multiplicative inverse in
    GF(2^8) (0 maps to 0) through the affine map.

    The inverses come from exp/log tables of the generator 3: walking
    ``x <- x * 3`` (``x ^ xtime(x)``) from 1 meets every nonzero byte
    once, as 3^0 ... 3^254, and the inverse of 3^i is 3^(255 - i).
    """
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for power in range(255):
        exp[power] = x
        log[x] = power
        x ^= _xtime(x)
    sbox = [0] * 256
    inverse = [0] * 256
    for value in range(256):
        substituted = _affine(exp[-log[value] % 255] if value else 0)
        sbox[value] = substituted
        inverse[substituted] = value
    return sbox, inverse


SBOX, INV_SBOX = _build_sbox()

_RCON = []
_value = 1
for _ in range(14):
    _RCON.append(_value)
    _value = _xtime(_value)


class AES:
    """AES block cipher for one key; encrypts/decrypts 16-byte blocks."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key()

    # ------------------------------------------------------------------
    # Key schedule
    # ------------------------------------------------------------------
    def _expand_key(self) -> list[list[int]]:
        nk = len(self.key) // 4
        words: list[list[int]] = [
            list(self.key[4 * i : 4 * i + 4]) for i in range(nk)
        ]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Group into 4x4 round-key matrices (column-major state layout).
        round_keys = []
        for round_index in range(self.rounds + 1):
            round_keys.append(
                [byte for word in words[4 * round_index : 4 * round_index + 4] for byte in word]
            )
        return round_keys

    # ------------------------------------------------------------------
    # Round operations (state is a 16-byte list, column-major)
    # ------------------------------------------------------------------
    @staticmethod
    def _add_round_key(state: list[int], round_key: list[int]) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: list[int], box: list[int]) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: list[int], inverse: bool = False) -> None:
        for row in range(1, 4):
            indices = [row + 4 * col for col in range(4)]
            values = [state[i] for i in indices]
            shift = -row if inverse else row
            rotated = values[shift % 4 :] + values[: shift % 4]
            for i, v in zip(indices, rotated):
                state[i] = v

    @staticmethod
    def _mix_single_column(column: list[int]) -> list[int]:
        a0, a1, a2, a3 = column
        return [
            _gf_mul(a0, 2) ^ _gf_mul(a1, 3) ^ a2 ^ a3,
            a0 ^ _gf_mul(a1, 2) ^ _gf_mul(a2, 3) ^ a3,
            a0 ^ a1 ^ _gf_mul(a2, 2) ^ _gf_mul(a3, 3),
            _gf_mul(a0, 3) ^ a1 ^ a2 ^ _gf_mul(a3, 2),
        ]

    @staticmethod
    def _inv_mix_single_column(column: list[int]) -> list[int]:
        a0, a1, a2, a3 = column
        return [
            _gf_mul(a0, 14) ^ _gf_mul(a1, 11) ^ _gf_mul(a2, 13) ^ _gf_mul(a3, 9),
            _gf_mul(a0, 9) ^ _gf_mul(a1, 14) ^ _gf_mul(a2, 11) ^ _gf_mul(a3, 13),
            _gf_mul(a0, 13) ^ _gf_mul(a1, 9) ^ _gf_mul(a2, 14) ^ _gf_mul(a3, 11),
            _gf_mul(a0, 11) ^ _gf_mul(a1, 13) ^ _gf_mul(a2, 9) ^ _gf_mul(a3, 14),
        ]

    def _mix_columns(self, state: list[int], inverse: bool = False) -> None:
        mixer = self._inv_mix_single_column if inverse else self._mix_single_column
        for col in range(4):
            column = state[4 * col : 4 * col + 4]
            state[4 * col : 4 * col + 4] = mixer(column)

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for round_index in range(1, self.rounds):
            self._sub_bytes(state, SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[round_index])
        self._sub_bytes(state, SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[self.rounds])
        for round_index in range(self.rounds - 1, 0, -1):
            self._shift_rows(state, inverse=True)
            self._sub_bytes(state, INV_SBOX)
            self._add_round_key(state, self._round_keys[round_index])
            self._mix_columns(state, inverse=True)
        self._shift_rows(state, inverse=True)
        self._sub_bytes(state, INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def encrypt_ecb(self, data: bytes) -> bytes:
        """Encrypt a multiple-of-16-byte buffer block by block."""
        if len(data) % 16:
            raise ValueError("ECB data must be a multiple of 16 bytes")
        return b"".join(
            self.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16)
        )

    def decrypt_ecb(self, data: bytes) -> bytes:
        if len(data) % 16:
            raise ValueError("ECB data must be a multiple of 16 bytes")
        return b"".join(
            self.decrypt_block(data[i : i + 16]) for i in range(0, len(data), 16)
        )

    def ctr_keystream(self, nonce: int, n_bytes: int) -> bytes:
        """CTR-mode keystream from a 128-bit counter starting at ``nonce``."""
        out = bytearray()
        counter = nonce & ((1 << 128) - 1)
        while len(out) < n_bytes:
            out += self.encrypt_block(counter.to_bytes(16, "big"))
            counter = (counter + 1) & ((1 << 128) - 1)
        return bytes(out[:n_bytes])

    def encrypt_ctr(self, data: bytes, nonce: int = 0) -> bytes:
        """XOR data with the CTR keystream (encryption == decryption)."""
        stream = self.ctr_keystream(nonce, len(data))
        return bytes(a ^ b for a, b in zip(data, stream))


#: Estimated area of a compact AES-256 decryption core, NAND2 equivalents.
#: (Paper §4.2: "the first contribution is fixed and depends on the AES
#: implementation"; compact 32 nm cores are in the 15-25 kGE range.)
AES_CORE_AREA_GATES = 18_000.0
