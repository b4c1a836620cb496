"""Proof-of-work sealing and the block reward.

Difficulty is a required count of leading zero bits in the block hash, so
expected sealing work is exactly 2^d attempts. Mining searches nonces
sequentially from a caller-supplied start, which keeps every seal
reproducible. Fork choice is ``ledger.BlockStore.insert``'s rule: the
tallest chain wins, and equal heights go to the block that arrived first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256

BLOCK_REWARD = 50
_NONCE = struct.Struct(">Q")
# nonces ``mine`` tries by default before it gives up
MINE_ATTEMPTS = 1 << 24
# the highest difficulty a simulation may set: 2^4 expected seals per
# MINE_ATTEMPTS, so a block almost never exhausts them (see ``mine``)
MAX_DIFFICULTY_BITS = MINE_ATTEMPTS.bit_length() - 1 - 4


def meets_difficulty(block_hash: bytes, difficulty_bits: int) -> bool:
    """True iff the first ``difficulty_bits`` bits of the digest are zero."""
    if not 0 <= difficulty_bits <= 255:
        raise ValueError("difficulty_bits out of range")
    if difficulty_bits == 0:
        return True
    value = int.from_bytes(block_hash, "big")
    return value >> (len(block_hash) * 8 - difficulty_bits) == 0


def block_reward(height: int) -> int:
    """Constant 50-unit subsidy for every mined block (height >= 1)."""
    if height < 1:
        raise ValueError("genesis mints nothing beyond its allocations")
    return BLOCK_REWARD


@dataclass(frozen=True)
class BlockTemplate:
    """Everything a block needs except its proof-of-work nonce."""

    height: int
    prev_hash: bytes
    timestamp: int
    difficulty_bits: int
    miner: bytes
    tx_root: bytes
    transactions: tuple = ()

    def seal(self, pow_nonce: int):
        from .ledger import Block

        return Block(
            height=self.height,
            prev_hash=self.prev_hash,
            timestamp=self.timestamp,
            difficulty_bits=self.difficulty_bits,
            pow_nonce=pow_nonce,
            miner=self.miner,
            tx_root=self.tx_root,
            transactions=self.transactions,
        )


class MiningExhausted(Exception):
    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"no valid nonce in {attempts} attempts")


def mine(template: BlockTemplate, start_nonce: int = 0, max_attempts: int = MINE_ATTEMPTS):
    """Seal ``template`` with the first qualifying nonce in
    [start_nonce, start_nonce + max_attempts); raises MiningExhausted
    if none qualifies so the caller can resume from a new start.

    Each nonce qualifies with chance 2^-d, so the default budget runs out
    with chance (1 - 2^-d)^MINE_ATTEMPTS ~ exp(-2^(24 - d)) per block: about
    exp(-16) ~ 1e-7 at MAX_DIFFICULTY_BITS (20), squared for each bit below,
    but 1 - 2^-16 at 40. Simulations refuse a difficulty above 20
    (``netsim.SimConfig.validate``), as the simulator does not resume."""
    from .ledger import POW_NONCE_OFFSET

    d = template.difficulty_bits
    if not 0 <= d <= 255:
        raise ValueError("difficulty_bits out of range")
    # meets_difficulty per attempt, inlined: the digest's first d bits are
    # zero iff, read big-endian, it is at most 2^(256 - d) - 1; equal-length
    # bytes compare as their big-endian integers, and d = 0 admits all
    ceiling = ((1 << (256 - d)) - 1).to_bytes(32, "big")
    header = template.seal(0).header_bytes()
    # hash the bytes before the nonce once, and per attempt only the rest
    head, tail = sha256(header[:POW_NONCE_OFFSET]), header[POW_NONCE_OFFSET + 8 :]
    copy, pack = head.copy, _NONCE.pack
    for nonce in range(start_nonce, start_nonce + max_attempts):
        attempt = copy()
        attempt.update(pack(nonce) + tail)
        if attempt.digest() <= ceiling:
            return template.seal(nonce)
    raise MiningExhausted(max_attempts)
