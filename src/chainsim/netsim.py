"""Deterministic discrete-event network harness.

Virtual time only: every message delivery, mining and sync timer, crash,
restart and scheduled call is an entry ``(time, seq, handler, args)`` in
one priority queue, ordered by time and then insertion sequence; running
an event calls ``handler(*args)``. A node is down exactly when its slot
in ``Simulator.nodes`` is ``None``, and a link is cut only inside a window
of ``SimConfig.partition_schedule``. All randomness (latency, drops,
mining delays) comes from per-node RNG streams derived from (seed, node
index, purpose), so replaying a scenario with the same seed reproduces the
exact event trace. The ``Tracer`` streams that trace: each row is encoded
and written to its sink as it is logged.

``send`` and the delivery path run once per message, so they are written
for few interpreter calls; the latency draw inlines ``Random.randint``'s
``getrandbits`` loop, draw for draw. Tools outside the package hook the
path at four seams, which must stay:

- every event runs through ``Simulator.step``, looked up on the class;
- every message goes through ``Simulator.send``;
- ``SimNode.handle(env, trace_row=...)`` gets an envelope with a ``.kind``;
- ``scenario.FoldingTracer.log`` calls ``Tracer.log``.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import random
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .ledger import json_chunks


# distinct gossip bodies held by each run-wide body map (see _remember);
# perfbench chain_growth (seed 1) decodes 1,737
DECODE_CACHE_SIZE = 4096


@dataclass
class SimConfig:
    rng_seed: int = 0
    latency_min_ms: int = 5
    latency_max_ms: int = 50
    drop_probability: float = 0.0
    hash_rate_shares: dict = field(default_factory=dict)  # node index -> share
    block_interval_target_ms: int = 1000
    partition_schedule: list = field(default_factory=list)  # (start, end, setA, setB)
    difficulty_bits: int = 8
    sync_interval_ms: int = 2000  # periodic anti-entropy; 0 disables

    def validate(self) -> None:
        if not 0 <= self.latency_min_ms <= self.latency_max_ms:
            raise ValueError("latency_min_ms must be in [0, latency_max_ms]")
        if self.block_interval_target_ms < 1:
            raise ValueError("block_interval_target_ms must be >= 1")
        if not 0 <= self.difficulty_bits <= 255:
            raise ValueError("difficulty_bits must be in [0, 255]")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if any(s < 0 for s in self.hash_rate_shares.values()):
            raise ValueError("hash rate shares must be non-negative")
        for start, end, side_a, side_b in self.partition_schedule:
            if start > end:
                raise ValueError("partition window start > end")
            if set(side_a) & set(side_b):
                raise ValueError("partition sides overlap")


def _remember(memo: OrderedDict, key, make, *args):
    """``memo[key]``, set to ``make(*args)`` on a miss: a run-wide map of a
    pure function of a gossip body. A ``make`` that raises stores nothing, a
    hit does not reorder, and the oldest entry is forgotten beyond
    ``DECODE_CACHE_SIZE``."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = make(*args)
        if len(memo) > DECODE_CACHE_SIZE:
            memo.popitem(last=False)
    return value


class Envelope(NamedTuple):
    """One message in flight: immutable, and built positionally on every
    send, so a named tuple (cheaper to build than a frozen dataclass)."""

    send_time: int
    deliver_time: int
    src: int
    dst: int
    kind: str
    body: bytes


class Tracer:
    """Encodes each trace row as it is logged, in ledger's canonical JSON,
    and writes the line to a binary sink; holds no rows.
    With no sink, lines go to an in-memory buffer that ``lines`` reads back."""

    def __init__(self, sink=None):
        self.sink = io.BytesIO() if sink is None else sink

    def log(self, row: dict) -> None:
        """Write ``row``, which must be complete: it is encoded now."""
        self.sink.write(("".join(json_chunks(row, 0)) + "\n").encode())

    def lines(self) -> list:
        """The in-memory buffer's lines."""
        return self.sink.getvalue().splitlines()


def _sha256_hex(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def _derive_rng(seed: int, node: int, purpose: str) -> random.Random:
    material = struct.pack(">qq", seed, node) + purpose.encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest, "big"))


class Simulator:
    def __init__(
        self,
        config: SimConfig,
        num_nodes: int,
        tracer: Optional[Tracer] = None,
        node_factory: Optional[Callable] = None,
    ):
        config.validate()
        self.config = config
        # randint(latency_min_ms, latency_max_ms) as CPython draws it: the
        # width of the range and the bits drawn per try (see send)
        self._latency_span = config.latency_max_ms - config.latency_min_ms + 1
        self._latency_bits = self._latency_span.bit_length()
        self.num_nodes = num_nodes
        self.tracer = tracer or Tracer()
        self.node_factory = node_factory  # (sim, index, persisted_lines) -> node
        self.now = 0
        self._queue: list = []
        self._seq = 0
        self.nodes: list = [None] * num_nodes  # None: not attached, or down
        self.persisted: dict = {}  # node index -> list of chain-file lines
        self._net_rng = [_derive_rng(config.rng_seed, i, "net") for i in range(num_nodes)]
        self._mine_rng = [_derive_rng(config.rng_seed, i, "mine") for i in range(num_nodes)]
        self.messages_sent = 0
        self.messages_delivered = 0
        # (kind, body) -> decoded message, oldest first: every node that
        # receives a body shares the one object decoded from it
        self.decoded: OrderedDict = OrderedDict()
        # body -> its SHA-256 hex digest for the deliver row, oldest first;
        # a body that does not decode is hashed like any other
        self.body_hashes: OrderedDict = OrderedDict()

    # -- wiring ------------------------------------------------------------

    def attach(self, index: int, node) -> None:
        self._check_index(index)
        self.nodes[index] = node

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"unknown node index {index}")

    # -- scheduling --------------------------------------------------------

    def schedule(self, time_ms: int, handler: Callable, *args) -> None:
        """Queue ``handler(*args)`` to run at ``time_ms``; equal times run in
        the order they were scheduled."""
        heapq.heappush(self._queue, (time_ms, self._seq, handler, args))
        self._seq += 1

    def pending(self) -> int:
        return len(self._queue)

    # -- transport ---------------------------------------------------------

    def _partitioned(self, a: int, b: int) -> bool:
        for start, end, side_a, side_b in self.config.partition_schedule:
            if start <= self.now < end:
                if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                    return True
        return False

    def send(self, src: int, dst: int, kind: str, body: bytes) -> bool:
        """Schedule one message; returns False when dropped (lossy link,
        partition boundary, or a down endpoint)."""
        num_nodes = self.num_nodes
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            self._check_index(src)
            self._check_index(dst)
        self.messages_sent += 1
        config = self.config
        rng = self._net_rng[src]
        # the latency draw of rng.randint(latency_min_ms, latency_max_ms):
        # CPython's _randbelow_with_getrandbits loop, without its three frames
        getrandbits, span, bits = rng.getrandbits, self._latency_span, self._latency_bits
        offset = getrandbits(bits)
        while offset >= span:
            offset = getrandbits(bits)
        if config.drop_probability > 0 and rng.random() < config.drop_probability:
            return False
        nodes = self.nodes
        if nodes[src] is None or nodes[dst] is None:
            return False
        if config.partition_schedule and self._partitioned(src, dst):
            return False
        now = self.now
        deliver_time = now + config.latency_min_ms + offset
        env = Envelope(now, deliver_time, src, dst, kind, body)
        heapq.heappush(self._queue, (deliver_time, self._seq, self._deliver, (env,)))
        self._seq += 1
        return True

    def query(self, src: int, dst: int, kind: str, body: bytes) -> Optional[bytes]:
        """Synchronous request/response (FIND_NODE, PING). Subject to the
        same partition/down-node/drop rules, one loss roll per direction."""
        self._check_index(src)
        self._check_index(dst)
        if self.nodes[src] is None or self.nodes[dst] is None or self._partitioned(src, dst):
            return None
        rng = self._net_rng[src]
        if self.config.drop_probability > 0 and (
            rng.random() < self.config.drop_probability
            or rng.random() < self.config.drop_probability
        ):
            return None
        return self.nodes[dst].handle_query(kind, body, src)

    # -- event loop --------------------------------------------------------

    def step(self) -> None:
        """Run the earliest event, if any."""
        if self._queue:
            time_ms, _, handler, args = heapq.heappop(self._queue)
            if time_ms > self.now:
                self.now = time_ms
            handler(*args)

    def run_until(self, t_end: int) -> None:
        queue, step = self._queue, self.step
        while queue and queue[0][0] <= t_end:
            step()
        if t_end > self.now:
            self.now = t_end

    def drain_deliveries(self) -> None:
        """Run every queued event except mining and sync timers, which are
        discarded, until the queue is empty: settles in-flight traffic
        without mining or syncing further. Timers reschedule themselves, so
        this is the one way to run the queue to empty."""
        timers = (self._fire_mining, self._sync)
        while self._queue:
            if self._queue[0][2] in timers:
                heapq.heappop(self._queue)
            else:
                self.step()

    def _deliver(self, env: Envelope) -> None:
        node = self.nodes[env.dst]
        if node is None:
            return  # the destination went down while the message was in flight
        self.messages_delivered += 1
        body = env.body
        body_hash = self.body_hashes.get(body)
        if body_hash is None:
            body_hash = _remember(self.body_hashes, body, _sha256_hex, body)
        row = {
            "time": self.now,
            "type": "deliver",
            "from": env.src,
            "to": env.dst,
            "kind": env.kind,
            "body_hash": body_hash,
        }
        node.handle(env, trace_row=row)
        self.tracer.log(row)

    # -- mining ------------------------------------------------------------

    def enable_mining(self) -> None:
        total = sum(self.config.hash_rate_shares.values())
        if total <= 0:
            raise ValueError("mining enabled with zero total hash rate")
        for idx, share in self.config.hash_rate_shares.items():
            if share > 0:
                self._schedule_next_mine(idx)

    def _mine_delay(self, node_idx: int) -> int:
        share = self.config.hash_rate_shares.get(node_idx, 0)
        if share <= 0:
            raise ValueError(f"node {node_idx} has zero hash rate share")
        total = sum(self.config.hash_rate_shares.values())
        mean = self.config.block_interval_target_ms * (total / share)
        return max(1, round(self._mine_rng[node_idx].expovariate(1.0 / mean)))

    def _schedule_next_mine(self, node_idx: int) -> None:
        self.schedule(self.now + self._mine_delay(node_idx), self._fire_mining, node_idx)

    def _fire_mining(self, node_idx: int) -> None:
        if self.nodes[node_idx] is None:
            return  # rescheduled on restart
        self.fire_mining_once(node_idx)
        self._schedule_next_mine(node_idx)

    def fire_mining_once(self, node_idx: int):
        node = self.nodes[node_idx]
        block = node.mine_and_broadcast()
        if block is not None:
            self.tracer.log({
                "time": self.now,
                "type": "mine",
                "node": node_idx,
                "height": block.height,
                "hash": block.hash_hex,
                "txs": [tx.hash_hex for tx in block.transactions],
            })
        return block

    def enable_periodic_sync(self) -> None:
        if self.config.sync_interval_ms <= 0:
            return
        for idx in range(self.num_nodes):
            # stagger by index so sync traffic doesn't arrive in lockstep
            offset = 1 + (idx * self.config.sync_interval_ms) // max(1, self.num_nodes)
            self.schedule(offset, self._sync, idx)

    def _sync(self, node_idx: int) -> None:
        node = self.nodes[node_idx]
        if node is not None:
            node.periodic_sync()
        self.schedule(self.now + self.config.sync_interval_ms, self._sync, node_idx)

    # -- churn -------------------------------------------------------------

    def crash_node(self, index: int) -> bool:
        """Take a node offline, persisting its canonical chain. Crashing a
        node that is already down is a reported no-op (returns False)."""
        self._check_index(index)
        node = self.nodes[index]
        if node is None:
            return False
        self.persisted[index] = node.persist_chain_lines()
        self.nodes[index] = None
        self.tracer.log({"time": self.now, "type": "crash", "node": index})
        return True

    def restart_node(self, index: int) -> None:
        """Bring a down node back: volatile state is gone, the persisted
        chain file is reloaded, and the node re-joins and re-syncs."""
        self._check_index(index)
        if self.nodes[index] is not None:
            return
        if self.node_factory is None:
            raise RuntimeError("restart requires a node_factory")
        node = self.node_factory(self, index, self.persisted.get(index))
        self.nodes[index] = node
        self.tracer.log({"time": self.now, "type": "restart", "node": index})
        node.rejoin()
        if self.config.hash_rate_shares.get(index, 0) > 0:
            self._schedule_next_mine(index)

