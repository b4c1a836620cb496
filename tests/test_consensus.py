import pytest
from hypothesis import given, settings, strategies as st

from chainsim import ledger
from chainsim.consensus import (
    BlockTemplate,
    MiningExhausted,
    block_reward,
    meets_difficulty,
    mine,
)
from chainsim.crypto import hash_bytes
from chainsim.ledger import BlockStore, compute_tx_root, make_genesis

from conftest import addr, build_chain, count_attempts, header_bytes, mine_child


def test_meets_difficulty_bit_exactness():
    # 0x0f... has exactly 4 leading zero bits
    digest = bytes([0x0F]) + bytes(31)
    assert meets_difficulty(digest, 4)
    assert not meets_difficulty(digest, 5)
    assert meets_difficulty(bytes(32), 255)
    assert meets_difficulty(b"\xff" * 32, 0)
    with pytest.raises(ValueError):
        meets_difficulty(digest, 256)


def test_meets_difficulty_matches_integer_oracle():
    import random

    rng = random.Random(3)
    for _ in range(500):
        digest = rng.getrandbits(256).to_bytes(32, "big")
        d = rng.randrange(0, 32)
        oracle = int.from_bytes(digest, "big") < (1 << (256 - d)) if d else True
        assert meets_difficulty(digest, d) == oracle


def test_block_reward_constant():
    assert block_reward(1) == 50
    assert block_reward(10**6) == 50
    with pytest.raises(ValueError):
        block_reward(0)


def _template(seed: int, difficulty: int) -> BlockTemplate:
    return BlockTemplate(
        height=1,
        prev_hash=hash_bytes(seed.to_bytes(8, "big")),
        timestamp=seed,
        difficulty_bits=difficulty,
        miner=addr(1),
        tx_root=compute_tx_root(()),
    )


def test_mine_produces_valid_seal_and_is_deterministic():
    t = _template(0, 8)
    a = mine(t, start_nonce=0)
    b = mine(t, start_nonce=0)
    assert a.block_hash == b.block_hash
    assert meets_difficulty(a.block_hash, 8)
    # the found nonce is minimal from the start point
    for n in range(a.pow_nonce):
        assert not meets_difficulty(t.seal(n).block_hash, 8)


def test_mine_respects_start_nonce():
    t = _template(1, 4)
    first = mine(t, start_nonce=0)
    later = mine(t, start_nonce=first.pow_nonce + 1)
    assert later.pow_nonce > first.pow_nonce
    assert meets_difficulty(later.block_hash, 4)


def test_mine_exhaustion():
    t = _template(2, 40)
    with pytest.raises(MiningExhausted):
        mine(t, start_nonce=0, max_attempts=16)


@pytest.mark.parametrize("difficulty", [-1, 256])
def test_mine_refuses_an_out_of_range_difficulty(difficulty):
    with pytest.raises(ValueError):
        mine(_template(3, difficulty), start_nonce=0, max_attempts=16)


def reference_mine(template, start_nonce, max_attempts):
    """``mine`` spelled out: seal every nonce and ask meets_difficulty."""
    for nonce in range(start_nonce, start_nonce + max_attempts):
        block = template.seal(nonce)
        if meets_difficulty(block.block_hash, template.difficulty_bits):
            return block
    raise MiningExhausted(max_attempts)


def mining_outcome(miner, *args):
    try:
        return miner(*args)
    except MiningExhausted as e:
        return ("exhausted", e.attempts)


templates = st.builds(
    BlockTemplate,
    height=st.integers(1, ledger.U64_MAX),
    prev_hash=st.binary(min_size=32, max_size=32),
    timestamp=st.integers(0, ledger.U64_MAX),
    difficulty_bits=st.integers(0, 12),
    miner=st.binary(min_size=20, max_size=20),
    tx_root=st.binary(min_size=32, max_size=32),
)


@settings(max_examples=200, deadline=None)
@given(
    template=templates,
    start_nonce=st.integers(0, 1 << 63),
    max_attempts=st.integers(0, 40) | st.just(1 << 24),
)
def test_mine_matches_a_reference_loop_over_meets_difficulty(template, start_nonce, max_attempts):
    expected = mining_outcome(reference_mine, template, start_nonce, max_attempts)
    assert mining_outcome(mine, template, start_nonce, max_attempts) == expected


def test_expected_work_scales_with_difficulty():
    # quick sanity at d=6 vs d=10: mean attempts within factor 2 of 2^d
    for d, samples in ((6, 120), (10, 60)):
        total = 0
        for i in range(samples):
            total += count_attempts(_template(1000 * d + i, d))
        mean = total / samples
        assert 2**d / 2 <= mean <= 2**d * 2, (d, mean)


def test_fork_choice_prefers_height():
    store, blocks = build_chain(3)
    side = mine_child(blocks[1], miner=addr(7))  # fork at height 2
    store.insert(side)
    assert store.canonical_tip == blocks[3].block_hash


def test_fork_choice_tie_breaks_by_arrival():
    genesis = make_genesis([])
    store = BlockStore(genesis)
    a = mine_child(genesis, miner=addr(1))
    b = mine_child(genesis, miner=addr(2))
    assert a.block_hash != b.block_hash
    store.insert(b)
    store.insert(a)
    assert store.canonical_tip == b.block_hash  # first arrival wins the tie


def test_pow_nonce_offset_locates_the_nonce_in_the_header():
    block = _template(0, 4).seal(0x0102030405060708)
    offset = ledger.POW_NONCE_OFFSET
    assert header_bytes(block)[offset : offset + 8] == bytes(range(1, 9))
