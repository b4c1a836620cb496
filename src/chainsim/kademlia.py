"""XOR-metric identifier space, k-bucket routing tables, iterative lookup.

Node ids are 160 bits; a contact lives in bucket floor(log2(d(owner, c))).
Buckets hold at most K contacts ordered least-recently-seen first. A full
bucket pings its stalest occupant before admitting a newcomer: a live
occupant wins, a dead one is replaced.

The iterative lookup is transport-agnostic: callers supply a ``query``
callable that performs one FIND_NODE round trip and returns the peer's
closest contacts, or None if the peer did not respond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .crypto import NODE_ID_BITS, NODE_ID_SIZE

K = 8
ALPHA = 3


@dataclass(frozen=True)
class Contact:
    node_id: bytes
    endpoint: int  # node index in the simulated network


def xor_distance(a: bytes, b: bytes) -> int:
    if len(a) != NODE_ID_SIZE or len(b) != NODE_ID_SIZE:
        raise ValueError("node ids must be 20 bytes")
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


def bucket_index(owner: bytes, other: bytes) -> int:
    """Index of the highest set bit of the XOR distance (0 = lowest bit)."""
    d = xor_distance(owner, other)
    if d == 0:
        raise ValueError("identical node ids have no bucket")
    return d.bit_length() - 1


class RoutingTable:
    def __init__(self, owner: bytes, k: int = K):
        self.owner = owner
        self.k = k
        self.buckets: List[List[Contact]] = [[] for _ in range(NODE_ID_BITS)]
        self._contacts: Optional[Tuple[Contact, ...]] = None  # see contacts()

    def contacts(self) -> Tuple[Contact, ...]:
        """Every contact, bucket by bucket, least-recently-seen first. The
        tuple is shared until the next bucket change, which drops it; every
        relay reads it, so it is not rebuilt per relay."""
        if self._contacts is None:
            self._contacts = tuple(c for bucket in self.buckets for c in bucket)
        return self._contacts

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets)

    def observe_contact(
        self,
        contact: Contact,
        ping: Optional[Callable[[Contact], bool]] = None,
    ) -> None:
        """Record fresh evidence of ``contact``. Known contacts move to the
        most-recently-seen end; a full bucket keeps a live stalest occupant
        and drops the newcomer (no ping callable means assume alive)."""
        if contact.node_id == self.owner:
            return
        bucket = self.buckets[bucket_index(self.owner, contact.node_id)]
        self._contacts = None  # every path below reorders or changes the bucket
        for i, existing in enumerate(bucket):
            if existing.node_id == contact.node_id:
                bucket.append(bucket.pop(i))
                return
        if len(bucket) < self.k:
            bucket.append(contact)
            return
        stalest = bucket[0]
        if ping is not None and not ping(stalest):
            bucket.pop(0)
            bucket.append(contact)
        else:
            bucket.pop(0)
            bucket.append(stalest)

    def find_closest(self, target: bytes, n: int) -> List[Contact]:
        """The n known contacts nearest ``target`` by XOR distance, ascending."""
        if n < 1:
            raise ValueError("n must be >= 1")
        # sorted, not sort: contacts() is shared and must keep bucket order
        closest = sorted(self.contacts(), key=lambda c: xor_distance(c.node_id, target))
        return closest[:n]


class LookupFailed(Exception):
    pass


def iterative_lookup(
    table: RoutingTable,
    target: bytes,
    query: Callable[[Contact, bytes], Optional[List[Contact]]],
):
    """Classic Kademlia node lookup.

    Maintains a shortlist seeded from the local table; each round queries
    the ALPHA closest unqueried candidates, merges their answers, and
    stops once the K closest known contacts have all been queried and no
    closer one appears. Returns (K closest live contacts, round count).
    Raises LookupFailed when nothing in the table ever responds.
    """
    # seed with everything we know: non-responders are dropped from the
    # shortlist, so farther local contacts serve as fallbacks under churn
    shortlist: dict = {c.node_id: c for c in table.contacts()}
    if not shortlist:
        raise LookupFailed("empty routing table")
    queried: set = set()
    responded: set = set()
    rounds = 0
    while True:
        # distinct ids lie at distinct distances, so the order has no ties
        ranked = sorted(shortlist.values(), key=lambda c: xor_distance(c.node_id, target))
        # stop when the K closest known contacts have all been queried
        if all(c.node_id in queried for c in ranked[:K]):
            break
        batch = [c for c in ranked if c.node_id not in queried][:ALPHA]
        rounds += 1
        for contact in batch:
            queried.add(contact.node_id)
            found = query(contact, target)
            if found is None:
                shortlist.pop(contact.node_id, None)
                continue
            responded.add(contact.node_id)
            table.observe_contact(contact)
            for c in found:
                if c.node_id != table.owner and c.node_id not in shortlist:
                    shortlist[c.node_id] = c
    if not responded:
        raise LookupFailed("no peer responded")
    live = [c for c in shortlist.values() if c.node_id in responded]
    live.sort(key=lambda c: xor_distance(c.node_id, target))
    return live[:K], rounds
