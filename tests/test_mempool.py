import random

import pytest
from hypothesis import given, settings, strategies as st

from chainsim.ledger import AccountState, TxError, apply_tx, make_genesis
from chainsim.mempool import Mempool

from conftest import addr, mine_child, pool_transactions, replayed_state, signed_tx


def rich_state(*indices, amount=10_000):
    state = AccountState()
    for i in indices:
        state.balances[addr(i)] = amount
    return state


def test_insert_and_duplicate():
    pool, state = Mempool(), rich_state(1)
    tx = signed_tx(1, 2, 10, 3, 0)
    pool.insert(tx, state)
    assert tx.tx_hash in pool and len(pool) == 1
    with pytest.raises(TxError) as e:
        pool.insert(tx, state)
    assert e.value.code == "duplicate"


def test_pending_adjusted_nonce_chain():
    pool, state = Mempool(), rich_state(1)
    pool.insert(signed_tx(1, 2, 10, 3, 0), state)
    pool.insert(signed_tx(1, 2, 10, 3, 1), state)  # valid only pending-adjusted
    with pytest.raises(TxError) as e:
        pool.insert(signed_tx(1, 2, 10, 3, 5), state)
    assert e.value.code == "bad_nonce"


def test_pending_adjusted_balance():
    pool = Mempool()
    state = rich_state(1, amount=25)
    pool.insert(signed_tx(1, 2, 10, 2, 0), state)
    with pytest.raises(TxError) as e:
        pool.insert(signed_tx(1, 2, 12, 2, 1), state)  # 12+2 > 25-12
    assert e.value.code == "insufficient_funds"
    pool.insert(signed_tx(1, 2, 11, 2, 1), state)  # exactly fits


def test_eviction_only_for_strictly_higher_fee():
    pool, state = Mempool(capacity=3), rich_state(1, 2, 3, 4, 5)
    pool.insert(signed_tx(1, 9, 1, 2, 0), state)
    pool.insert(signed_tx(2, 9, 1, 5, 0), state)
    pool.insert(signed_tx(3, 9, 1, 4, 0), state)
    equal = signed_tx(4, 9, 1, 2, 0)
    with pytest.raises(TxError) as e:
        pool.insert(equal, state)
    assert e.value.code == "pool_full"
    higher = signed_tx(5, 9, 1, 3, 0)
    pool.insert(higher, state)
    assert len(pool) == 3
    fees = sorted(tx.fee for tx in pool_transactions(pool))
    assert fees == [3, 4, 5]  # fee-2 entry was evicted


def test_prune_drops_nonce_conflicts_of_an_adopted_block():
    pool, state = Mempool(), rich_state(1)
    ours = signed_tx(1, 2, 10, 3, 0)
    pool.insert(ours, state)
    competing = signed_tx(1, 3, 99, 9, 0)  # same (sender, nonce), different tx
    genesis = make_genesis([(addr(1), 10_000)])
    block = mine_child(genesis, txs=[competing])
    pool.prune(replayed_state([genesis, block]))
    assert len(pool) == 0


def test_prune_keeps_valid_chain_drops_stale():
    pool, state = Mempool(), rich_state(1)
    for n in range(3):
        pool.insert(signed_tx(1, 2, 10, 3, n), state)
    after = AccountState(balances={addr(1): 50}, nonces={addr(1): 1})
    pool.prune(after)
    nonces = sorted(tx.nonce for tx in pool_transactions(pool))
    assert nonces == [1, 2]
    broke = AccountState(balances={addr(1): 13}, nonces={addr(1): 1})
    pool.prune(broke)  # only the nonce-1 tx (cost 13) still fits
    assert sorted(tx.nonce for tx in pool_transactions(pool)) == [1]


def test_reinstate_revalidates():
    pool, state = Mempool(), rich_state(1)
    txs = [signed_tx(1, 2, 10, 3, n) for n in range(3)]
    shifted = AccountState(balances={addr(1): 10_000}, nonces={addr(1): 1})
    accepted = pool.reinstate(list(reversed(txs)), shifted)
    assert [t.nonce for t in accepted] == [1, 2]
    assert len(pool) == 2


def test_selection_preserves_sender_nonce_order():
    pool, state = Mempool(), rich_state(1, 2)
    a0 = signed_tx(1, 9, 1, 1, 0)   # low fee, must precede
    a1 = signed_tx(1, 9, 1, 10, 1)  # high fee, later nonce
    for tx in (a0, a1, signed_tx(2, 9, 1, 5, 0)):
        pool.insert(tx, state)
    picked = pool.select_for_block(3)
    pos = {t.tx_hash: i for i, t in enumerate(picked)}
    assert pos[a0.tx_hash] < pos[a1.tx_hash]
    assert picked[0].sender == addr(2)  # fee 5 beats the nonce-0 head's fee 1


def test_eviction_takes_a_queue_tail_and_never_strands_a_sender():
    pool, state = Mempool(capacity=3), rich_state(1, 2)
    ours = [signed_tx(1, 9, 1, fee, n) for n, fee in enumerate((1, 2, 2))]
    for tx in ours:
        pool.insert(tx, state)
    theirs = signed_tx(2, 9, 1, 3, 0)
    pool.insert(theirs, state)  # evicts sender 1's tail, not its cheaper nonce 0
    assert ours[0].tx_hash in pool and ours[2].tx_hash not in pool
    assert [t.nonce for t in pool.select_for_block(3) if t.sender == addr(1)] == [0, 1]
    with pytest.raises(TxError) as e:
        pool.insert(signed_tx(1, 9, 1, 2, 3), state)
    assert (e.value.code, e.value.detail) == ("bad_nonce", "gap: nonce 3 != 2")
    with pytest.raises(TxError) as e:
        pool.insert(ours[2], state)  # fee 2 does not beat sender 2's tail
    assert e.value.code == "pool_full"
    resent = signed_tx(1, 9, 1, 4, 2)
    pool.insert(resent, state)  # fee 4 beats sender 2's tail
    assert theirs.tx_hash not in pool
    assert [t.nonce for t in pool.select_for_block(3)] == [0, 1, 2]


def test_eviction_tie_takes_the_latest_arrival_of_another_sender():
    pool, state = Mempool(capacity=2), rich_state(1, 2, 3)
    first, second = signed_tx(1, 9, 1, 2, 0), signed_tx(2, 9, 1, 2, 0)
    pool.insert(first, state)
    pool.insert(second, state)
    pool.insert(signed_tx(3, 9, 1, 3, 0), state)
    assert first.tx_hash in pool and second.tx_hash not in pool
    with pytest.raises(TxError) as e:  # only sender 1's own fee-2 entry is cheaper
        pool.insert(signed_tx(1, 9, 1, 3, 1), state)
    assert e.value.code == "pool_full"


# -- oracle equivalence --------------------------------------------------------

def oracle_select(txs, arrival, max_n):
    """Independent re-statement of the selection policy: repeatedly take,
    among each sender's lowest remaining nonce, the (fee desc, arrival asc)
    best transaction."""
    remaining = list(txs)
    picked = []
    while remaining and len(picked) < max_n:
        heads = {}
        for t in remaining:
            cur = heads.get(t.sender)
            if cur is None or t.nonce < cur.nonce:
                heads[t.sender] = t
        best = None
        for t in heads.values():
            if best is None or (-t.fee, arrival[t.tx_hash]) < (-best.fee, arrival[best.tx_hash]):
                best = t
        picked.append(best)
        remaining.remove(best)
    return picked


def test_selection_matches_oracle_over_random_pools():
    rng = random.Random(2024)
    senders = list(range(1, 13))
    state = rich_state(*senders, amount=10**9)
    for trial in range(1000):
        pool = Mempool()
        n_txs = rng.randrange(0, 51)
        next_nonce = {s: 0 for s in senders}
        for _ in range(n_txs):
            s = rng.choice(senders)
            tx = signed_tx(s, rng.choice(senders), rng.randrange(1, 100),
                           rng.randrange(0, 20), next_nonce[s])
            next_nonce[s] += 1
            pool.insert(tx, state)
        max_n = rng.choice([1, 5, 25, 100])
        got = pool.select_for_block(max_n)
        want = oracle_select(pool_transactions(pool), pool.arrival, max_n)
        assert [t.tx_hash for t in got] == [t.tx_hash for t in want], f"trial {trial}"


def test_selection_result_is_block_valid():
    rng = random.Random(7)
    senders = list(range(1, 8))
    state = rich_state(*senders, amount=10**6)
    pool = Mempool()
    next_nonce = {s: 0 for s in senders}
    for _ in range(60):
        s = rng.choice(senders)
        pool.insert(signed_tx(s, rng.choice(senders), rng.randrange(1, 50),
                              rng.randrange(0, 9), next_nonce[s]), state)
        next_nonce[s] += 1
    picked = pool.select_for_block(40)
    seen_nonce = {}
    for t in picked:
        expected = seen_nonce.get(t.sender, 0)
        assert t.nonce == expected
        seen_nonce[t.sender] = expected + 1


# -- the queue invariant, against a reference model ------------------------------

FUNDED = (1, 2, 3)
INSERT_KINDS = ("valid", "valid", "duplicate", "same_slot", "gap", "replay", "overdraft")


class ReferencePool:
    """Admission, tail eviction and prune written out for the test over a
    flat list of pending transactions in arrival order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pending = []

    def of(self, sender):
        return sorted((t for t in self.pending if t.sender == sender), key=lambda t: t.nonce)

    def insert(self, tx, state):
        """The cause the pool must refuse ``tx`` with; None after admitting it."""
        theirs = self.of(tx.sender)
        if tx in self.pending or tx.nonce in {t.nonce for t in theirs}:
            return "duplicate"
        if tx.nonce != state.next_nonce(tx.sender) + len(theirs):
            return "bad_nonce"
        if state.balance(tx.sender) - sum(t.amount + t.fee for t in theirs) < tx.amount + tx.fee:
            return "insufficient_funds"
        if len(self.pending) >= self.capacity:
            others = {t.sender for t in self.pending} - {tx.sender}
            tails = [self.of(s)[-1] for s in others]
            # the cheapest tail; of equal fees, the latest arrival
            victim = min(tails, key=lambda t: (t.fee, -self.pending.index(t)), default=None)
            if victim is None or victim.fee >= tx.fee:
                return "pool_full"
            self.pending.remove(victim)
        self.pending.append(tx)
        return None

    def prune(self, state):
        for sender in {t.sender for t in self.pending}:
            nonce, budget = state.next_nonce(sender), state.balance(sender)
            for t in self.of(sender):
                if t.nonce == nonce and budget >= t.amount + t.fee:
                    nonce, budget = nonce + 1, budget - t.amount - t.fee
                else:
                    self.pending.remove(t)


def draw_insert(data, model, state, step):
    """A transaction of one of INSERT_KINDS, drawn against ``model``."""
    kind = data.draw(st.sampled_from(INSERT_KINDS))
    if kind == "duplicate" and model.pending:
        return data.draw(st.sampled_from(model.pending))
    i = data.draw(st.sampled_from(FUNDED))
    sender = addr(i)
    theirs = model.of(sender)
    nonce = state.next_nonce(sender) + len(theirs)
    budget = state.balance(sender) - sum(t.amount + t.fee for t in theirs)
    fee = data.draw(st.integers(0, 5))
    amount = data.draw(st.integers(0, max(budget - fee, 0)))
    if kind == "same_slot" and theirs:
        nonce = data.draw(st.sampled_from([t.nonce for t in theirs]))
    elif kind == "gap":
        nonce += data.draw(st.integers(1, 3))
    elif kind == "replay" and state.next_nonce(sender):
        nonce = data.draw(st.integers(0, state.next_nonce(sender) - 1))
    elif kind == "overdraft":
        amount = max(budget - fee + 1, 0)
    return signed_tx(i, data.draw(st.sampled_from(FUNDED)), amount, fee, nonce,
                     payload=bytes([step]))


def draw_block(data, pool, state, step):
    """A mined block's transactions: a prefix of the pool's selection, and
    perhaps first a competing spend, at some sender's next nonce, of nearly
    all that sender's balance."""
    txs = pool.select_for_block(data.draw(st.integers(0, 6)))
    if data.draw(st.booleans()):
        i = data.draw(st.sampled_from(FUNDED))
        amount = max(state.balance(addr(i)) - data.draw(st.integers(0, 20)), 0)
        competing = signed_tx(i, 9, amount, 0, state.next_nonce(addr(i)),
                              payload=b"block" + bytes([step]))
        txs = [competing] + [t for t in txs if t.sender != addr(i)]
    return txs


def assert_queues_continue(pool, state):
    queues = {}
    for tx in pool_transactions(pool):
        queues.setdefault(tx.sender, []).append(tx)
    for sender, queue in queues.items():
        queue.sort(key=lambda t: t.nonce)
        first = state.next_nonce(sender)
        assert [t.nonce for t in queue] == list(range(first, first + len(queue)))
        assert sum(t.amount + t.fee for t in queue) <= state.balance(sender)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_queues_continue_the_state_and_admission_matches_the_reference(data):
    capacity = data.draw(st.sampled_from((3, 5, 10_000)))
    pool, model = Mempool(capacity), ReferencePool(capacity)
    state = rich_state(*FUNDED, amount=60)
    mined = []  # (state before a mined block, the block's transactions)
    for step in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(("insert",) * 4 + ("mine", "reorg")))
        if op == "insert":
            tx = draw_insert(data, model, state, step)
            want = model.insert(tx, state)
            try:
                pool.insert(tx, state)
            except TxError as e:
                assert e.code == want
            else:
                assert want is None
        elif op == "mine":
            txs = draw_block(data, pool, state, step)
            mined.append((state, txs))
            state = state.copy()
            for tx in txs:
                apply_tx(state, tx)
            pool.prune(state)
            model.prune(state)
        elif mined:  # a reorg back to before the last block: prune, then reinstate
            state, txs = mined.pop()
            pool.prune(state)
            pool.reinstate(txs, state)
            model.prune(state)
            for tx in sorted(txs, key=lambda t: (t.sender, t.nonce)):
                model.insert(tx, state)
        assert {t.tx_hash for t in pool_transactions(pool)} == {t.tx_hash for t in model.pending}
        assert_queues_continue(pool, state)
        assert pool.committed == {
            sender: sum(t.amount + t.fee for t in queue) for sender, queue in pool.queues.items()
        }
        settled = state.copy()
        for tx in pool.select_for_block(data.draw(st.integers(1, 12))):
            apply_tx(settled, tx)  # raises TxError if a selection does not settle
