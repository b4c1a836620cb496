"""Fee-prioritized pool of validated pending transactions.

Insertion validates against the node's canonical state with
pending-adjusted nonces and balances, so a sender can queue consecutive
nonces without overdrafting. Block selection is greedy: among each
sender's lowest pending nonce, take the highest fee (earlier arrival
breaks ties), which keeps per-sender nonce order intact.
"""

from __future__ import annotations

# ``verify`` is unused here; the name is kept because the benchmark's tests
# (perfbench/tests) check that tracing wraps every binding of crypto.verify.
from .crypto import verify  # noqa: F401
from .ledger import AccountState, Transaction, TxError, check_signature

DEFAULT_CAPACITY = 10_000


class Mempool:
    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.entries: dict = {}  # tx_hash -> Transaction
        self.by_sender_nonce: dict = {}  # (sender, nonce) -> tx_hash
        self.arrival: dict = {}  # tx_hash -> monotone sequence
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self.entries

    def transactions(self) -> list:
        return list(self.entries.values())

    def _pending_for(self, sender: bytes) -> list:
        txs = [tx for tx in self.entries.values() if tx.sender == sender]
        txs.sort(key=lambda t: t.nonce)
        return txs

    def insert(self, tx: Transaction, state: AccountState) -> None:
        """Admit ``tx`` or raise TxError with cause duplicate / pool_full /
        bad_signature / bad_nonce / insufficient_funds / payload_too_large."""
        if tx.tx_hash in self.entries:
            raise TxError("duplicate")
        check_signature(tx)
        sender = tx.sender
        if (sender, tx.nonce) in self.by_sender_nonce:
            raise TxError("duplicate", "sender nonce already pending")
        pending = self._pending_for(sender)
        expected = state.next_nonce(sender) + len(pending)
        if tx.nonce != expected:
            kind = "replay" if tx.nonce < expected else "gap"
            raise TxError("bad_nonce", f"{kind}: nonce {tx.nonce} != {expected}")
        committed = sum(t.amount + t.fee for t in pending)
        if state.balance(sender) - committed < tx.amount + tx.fee:
            raise TxError("insufficient_funds")
        if len(self.entries) >= self.capacity:
            victim = min(
                self.entries.values(), key=lambda t: (t.fee, -self.arrival[t.tx_hash])
            )
            if victim.fee >= tx.fee:
                raise TxError("pool_full")
            self._drop(victim.tx_hash)
        self.entries[tx.tx_hash] = tx
        self.by_sender_nonce[(sender, tx.nonce)] = tx.tx_hash
        self.arrival[tx.tx_hash] = self._next_seq
        self._next_seq += 1

    def _drop(self, tx_hash: bytes) -> None:
        tx = self.entries.pop(tx_hash, None)
        if tx is None:
            return
        self.by_sender_nonce.pop((tx.sender, tx.nonce), None)
        self.arrival.pop(tx_hash, None)

    def select_for_block(self, max_n: int) -> list:
        """Up to ``max_n`` transactions, highest fee first among each
        sender's lowest pending nonce; ties break by arrival order."""
        remaining: dict = {}
        for tx in self.entries.values():
            remaining.setdefault(tx.sender, []).append(tx)
        for txs in remaining.values():
            txs.sort(key=lambda t: t.nonce)
        picked = []
        while len(picked) < max_n and remaining:
            heads = [txs[0] for txs in remaining.values()]
            best = min(heads, key=lambda t: (-t.fee, self.arrival[t.tx_hash]))
            picked.append(best)
            queue = remaining[best.sender]
            queue.pop(0)
            if not queue:
                del remaining[best.sender]
        return picked

    def remove_included(self, block) -> None:
        """Drop entries included in ``block`` and entries whose
        (sender, nonce) slot the block consumed."""
        for tx in block.transactions:
            self._drop(tx.tx_hash)
            conflicting = self.by_sender_nonce.get((tx.sender, tx.nonce))
            if conflicting is not None:
                self._drop(conflicting)

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
        """After a reorg, drop entries invalidated by the new canonical
        state (stale nonces or overdrafts), keeping valid chains intact."""
        by_sender: dict = {}
        for tx in self.entries.values():
            by_sender.setdefault(tx.sender, []).append(tx)
        for sender, txs in by_sender.items():
            txs.sort(key=lambda t: t.nonce)
            expected = state.next_nonce(sender)
            budget = state.balance(sender)
            for tx in txs:
                ok = tx.nonce == expected and budget >= tx.amount + tx.fee
                if ok:
                    expected += 1
                    budget -= tx.amount + tx.fee
                else:
                    self._drop(tx.tx_hash)
