"""Fee-prioritized pool of validated pending transactions.

Each sender has one queue of pending transactions in nonce order, and the
queue continues the node's canonical state: it starts at the sender's next
nonce, runs on without a gap, and its summed cost fits the sender's balance.
So any per-sender prefix of the queues applies cleanly to that state.
Each queue's summed cost is kept beside it (``committed``), so admission
reads one number instead of summing the queue.
``insert`` appends to its sender's queue, capacity eviction takes the
cheapest tail of another sender's queue, and ``prune`` restores the
invariant when the canonical state moves. Block selection is a heap over the
queue heads keyed (fee desc, arrival asc), which keeps per-sender nonce
order intact.
"""

from __future__ import annotations

import heapq

# ``verify`` is unused here; the name is kept because the benchmark's tests
# (perfbench/tests) check that tracing wraps every binding of crypto.verify.
from .crypto import verify  # noqa: F401
from .ledger import AccountState, Transaction, TxError, check_signature

DEFAULT_CAPACITY = 10_000


class Mempool:
    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.entries: dict = {}  # tx_hash -> Transaction
        self.arrival: dict = {}  # tx_hash -> monotone sequence
        self.queues: dict = {}  # sender -> its transactions in nonce order
        self.committed: dict = {}  # sender -> its queue's summed cost
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self.entries

    def insert(self, tx: Transaction, state: AccountState) -> None:
        """Admit ``tx`` or raise TxError with cause duplicate / bad_nonce /
        insufficient_funds / pool_full / bad_signature, the first that holds
        in that order (payload_too_large, from ``tx_hash``, comes first). The
        Ed25519 check comes last, as Bitcoin Core's script checks follow its
        ``PreChecks``: only a tx that every cheaper check admits costs a
        verify, and a full pool evicts only for a tx that passes it."""
        if tx.tx_hash in self.entries:
            raise TxError("duplicate")
        sender = tx.sender
        queue = self.queues.get(sender, ())
        if queue and queue[0].nonce <= tx.nonce <= queue[-1].nonce:
            raise TxError("duplicate", "sender nonce already pending")
        expected = state.next_nonce(sender) + len(queue)
        if tx.nonce != expected:
            kind = "replay" if tx.nonce < expected else "gap"
            raise TxError("bad_nonce", f"{kind}: nonce {tx.nonce} != {expected}")
        committed = self.committed.get(sender, 0)
        if state.balance(sender) - committed < tx.amount + tx.fee:
            raise TxError("insufficient_funds")
        victim = None
        if len(self.entries) >= self.capacity:
            tails = [q[-1] for s, q in self.queues.items() if s != sender]
            victim = min(
                tails, key=lambda t: (t.fee, -self.arrival[t.tx_hash]), default=None
            )
            if victim is None or victim.fee >= tx.fee:
                raise TxError("pool_full")
        check_signature(tx)
        if victim is not None:
            self._forget(self.queues[victim.sender].pop())
            self.committed[victim.sender] -= victim.amount + victim.fee
            if not self.queues[victim.sender]:
                del self.queues[victim.sender], self.committed[victim.sender]
        self.queues.setdefault(sender, []).append(tx)
        self.committed[sender] = committed + tx.amount + tx.fee
        self.entries[tx.tx_hash] = tx
        self.arrival[tx.tx_hash] = self._next_seq
        self._next_seq += 1

    def _forget(self, tx: Transaction) -> None:
        del self.entries[tx.tx_hash]
        del self.arrival[tx.tx_hash]

    def select_for_block(self, max_n: int) -> list:
        """Up to ``max_n`` transactions, highest fee first among each
        sender's lowest pending nonce; ties break by arrival order."""
        heads = [(-q[0].fee, self.arrival[q[0].tx_hash], q, 0) for q in self.queues.values()]
        heapq.heapify(heads)
        picked = []
        while heads and len(picked) < max_n:
            _, _, queue, i = heapq.heappop(heads)
            picked.append(queue[i])
            if i + 1 < len(queue):
                tx = queue[i + 1]
                heapq.heappush(heads, (-tx.fee, self.arrival[tx.tx_hash], queue, i + 1))
        return picked

    def reinstate(self, txs: list, state: AccountState) -> list:
        """Re-insert transactions displaced by a reorg; entries that no
        longer validate are dropped. Returns the accepted ones."""
        accepted = []
        for tx in sorted(txs, key=lambda t: (t.sender, t.nonce)):
            try:
                self.insert(tx, state)
                accepted.append(tx)
            except TxError:
                continue
        return accepted

    def prune(self, state: AccountState) -> None:
        """Restore the invariant against a new canonical state: drop entries
        with stale nonces (those a block included among them) and whatever
        of a queue no longer fits the balance, keeping valid chains intact."""
        for sender, queue in list(self.queues.items()):
            expected = state.next_nonce(sender)
            budget = state.balance(sender)
            kept = []
            for tx in queue:
                if tx.nonce == expected and budget >= tx.amount + tx.fee:
                    kept.append(tx)
                    expected += 1
                    budget -= tx.amount + tx.fee
                else:
                    self._forget(tx)
            if kept:
                self.queues[sender] = kept
                self.committed[sender] = state.balance(sender) - budget
            else:
                del self.queues[sender], self.committed[sender]
