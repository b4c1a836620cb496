import hashlib
import heapq
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from chainsim.ledger import canonical_json
from chainsim.netsim import MAX_MINE_MEAN_MS, Envelope, SimConfig, Simulator, Tracer, delivery


class Recorder:
    """Minimal node: records envelopes, supports the churn/query hooks."""

    def __init__(self):
        self.received = []
        self.queries = []
        self.synced = 0
        self.restarts = 0

    def handle(self, env):
        self.received.append(env)
        return delivery(env.kind, env.body)

    def handle_query(self, kind, body, src):
        self.queries.append((kind, body, src))
        return b"PONG"

    def periodic_sync(self):
        self.synced += 1

    def restart(self):
        self.restarts += 1

    def rejoin(self):
        pass


def make_sim(num=3, **cfg):
    sim = Simulator(SimConfig(**cfg), num)
    for i in range(num):
        sim.attach(i, Recorder())
    return sim


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(latency_min_ms=10, latency_max_ms=5).validate()
    with pytest.raises(ValueError):
        SimConfig(drop_probability=1.0).validate()
    with pytest.raises(ValueError):
        SimConfig(partition_schedule=[(0, 10, [0, 1], [1, 2])]).validate()
    with pytest.raises(ValueError):
        SimConfig(latency_min_ms=-1).validate()
    with pytest.raises(ValueError):
        SimConfig(block_interval_target_ms=0).validate()
    with pytest.raises(ValueError):
        SimConfig(difficulty_bits=256).validate()


def test_longest_mining_delay_at_the_mean_bound_is_finite():
    at_bound = int(MAX_MINE_MEAN_MS)  # the bound's float, exactly
    sim = Simulator(SimConfig(block_interval_target_ms=at_bound, hash_rate_shares={0: 1.0}), 1)
    sim._mine_rng[0].random = lambda: 1 - 2 ** -53  # expovariate's longest draw
    assert sim._mine_delay(0) > at_bound
    with pytest.raises(ValueError):
        SimConfig(block_interval_target_ms=at_bound + 1, hash_rate_shares={0: 1.0}).validate()


def test_delivery_order_and_latency_bounds():
    sim = make_sim(latency_min_ms=5, latency_max_ms=50)
    for i in range(20):
        sim.send(0, 1, "PING", bytes([i]))
    sim.drain_deliveries()
    envs = sim.nodes[1].received
    assert len(envs) == 20
    assert all(5 <= e.deliver_time - e.send_time <= 50 for e in envs)
    # deliveries arrive in virtual-time order
    times = [e.deliver_time for e in envs]
    assert times == sorted(times)


def test_determinism_across_instances():
    def trace(seed):
        sim = make_sim(rng_seed=seed, drop_probability=0.2)
        for i in range(50):
            sim.send(i % 3, (i + 1) % 3, "PING", bytes([i]))
        sim.drain_deliveries()
        return [
            (e.src, e.dst, e.deliver_time, e.body)
            for n in sim.nodes
            for e in n.received
        ]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_drop_probability_statistics():
    sim = make_sim(drop_probability=0.3, rng_seed=1)
    sent_ok = sum(sim.send(0, 1, "PING", b"") for _ in range(2000))
    assert 0.65 * 2000 < sent_ok < 0.75 * 2000


def test_partition_blocks_cross_traffic_until_window_ends():
    sim = make_sim(partition_schedule=[(0, 100, [0], [1, 2])])
    assert not sim.send(0, 1, "PING", b"")   # across the cut
    assert sim.send(1, 2, "PING", b"")       # same side is fine
    sim.run_until(100)
    sim.now = 100
    assert sim.send(0, 1, "PING", b"")       # window closed


def test_query_is_synchronous_and_respects_partitions():
    sim = make_sim(partition_schedule=[(0, 100, [0], [1])])
    assert sim.query(0, 1, "PING", b"x") is None
    assert sim.query(0, 2, "PING", b"x") == b"PONG"
    assert sim.nodes[2].queries == [("PING", b"x", 0)]


def window_scan(schedule, now, a, b) -> bool:
    """Whether ``a`` and ``b`` are cut at ``now``, found by scanning every
    window: the partition check before the cut was kept per span."""
    for start, end, side_a, side_b in schedule:
        if start <= now < end:
            if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                return True
    return False


CUT_NODES = 5


@st.composite
def partition_windows(draw):
    """One window on a short time axis, so windows overlap and share
    boundaries often; its sides are disjoint, as SimConfig.validate asks."""
    start = draw(st.integers(0, 12))
    end = draw(st.integers(start, 14))
    side_a = draw(st.sets(st.integers(0, CUT_NODES - 1), max_size=3))
    side_b = draw(st.sets(st.sampled_from([i for i in range(CUT_NODES) if i not in side_a]),
                          max_size=3))
    return start, end, side_a, side_b


@settings(max_examples=200, deadline=None)
@given(st.lists(partition_windows(), max_size=4), st.lists(partition_windows(), max_size=3),
       st.lists(st.integers(0, 16), max_size=8), st.data())
def test_the_kept_partition_cut_matches_a_scan_of_every_window(first, second, extra, data):
    """At every window's start and end, the time before each, and drawn
    times, in order, send's and query's cut is the window scan's, also after
    the schedule is replaced midway."""
    sim = make_sim(CUT_NODES, partition_schedule=first)
    times = set(extra)
    for start, end, _, _ in first + second:
        times |= {start, end, max(start - 1, 0), max(end - 1, 0)}
    times = sorted(times)
    swap = data.draw(st.integers(0, len(times)))
    for i, now in enumerate(times):
        if i == swap:
            sim.config.partition_schedule = second
        schedule = sim.config.partition_schedule
        sim.now = now
        for a in range(CUT_NODES):
            for b in range(CUT_NODES):
                assert sim._partitioned(a, b) == window_scan(schedule, now, a, b)
        a, b = data.draw(st.integers(0, CUT_NODES - 1)), data.draw(st.integers(0, CUT_NODES - 1))
        assert (sim.query(a, b, "PING", b"") is None) == window_scan(schedule, now, a, b)


def test_crash_silences_node_and_restart_revives():
    sim = make_sim(2)
    crashed = sim.nodes[1]
    assert sim.crash_node(1)
    assert not sim.crash_node(1)  # double crash reported as no-op
    assert not sim.send(0, 1, "PING", b"")
    assert sim.query(0, 1, "PING", b"") is None
    assert crashed.restarts == 0  # untouched while down
    sim.restart_node(1)
    assert sim.nodes[1] is crashed and crashed.restarts == 1  # back in place
    assert sim.send(0, 1, "PING", b"")


def test_restart_of_a_slot_with_no_crashed_node_is_a_no_op():
    sim = Simulator(SimConfig(), 3)
    sim.attach(0, Recorder())
    live = sim.nodes[0]
    sim.restart_node(0)  # never crashed
    sim.restart_node(2)  # never attached
    assert sim.nodes == [live, None, None] and live.restarts == 0
    assert sim.tracer.lines() == []
    assert sim.crash_node(0)
    sim.restart_node(0)
    sim.restart_node(0)  # already back
    assert sim.nodes[0] is live and live.restarts == 1
    assert [json.loads(line)["type"] for line in sim.tracer.lines()] == ["crash", "restart"]


def test_in_flight_messages_to_crashed_node_vanish():
    sim = make_sim()
    sim.send(0, 1, "PING", b"")
    sim.crash_node(1)
    sim.drain_deliveries()
    assert sim.messages_delivered == 0


def test_mining_schedule_mean_tracks_shares():
    cfg = SimConfig(
        rng_seed=3,
        hash_rate_shares={0: 0.7, 1: 0.3},
        block_interval_target_ms=1000,
    )
    sim = Simulator(cfg, 2)
    samples = {0: [], 1: []}
    for idx in (0, 1):
        for _ in range(3000):
            samples[idx].append(sim._mine_delay(idx))
    m0 = sum(samples[0]) / len(samples[0])
    m1 = sum(samples[1]) / len(samples[1])
    # exponential means: 1000/0.7 and 1000/0.3
    assert 0.9 * (1000 / 0.7) < m0 < 1.1 * (1000 / 0.7)
    assert 0.9 * (1000 / 0.3) < m1 < 1.1 * (1000 / 0.3)


def test_scheduled_events_fire_in_order_with_fifo_ties():
    sim = make_sim()
    fired = []
    sim.schedule(10, fired.append, "b")
    sim.schedule(5, fired.append, "a")
    sim.schedule(10, fired.append, "c")
    sim.drain_deliveries()
    assert fired == ["a", "b", "c"]
    assert sim.now == 10


def test_tracer_lines_are_byte_stable():
    t = Tracer()
    t.log({"b": 1, "a": 2, "time": 3})
    t.log({"z": [1, 2], "time": 4})
    assert t.lines() == [b'{"a":2,"b":1,"time":3}', b'{"time":4,"z":[1,2]}']


trace_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# a trace row: any keys beside an integer time, but not one of the row types
# whose further fields the tracer's metrics fold reads
trace_rows = st.builds(
    lambda row, time_ms: {**row, "time": time_ms},
    st.dictionaries(st.text(max_size=4), trace_values, max_size=4).filter(
        lambda row: row.get("type") not in ("adopt", "mine", "tx_submit")),
    st.integers(),
)


@given(st.lists(trace_rows, max_size=3))
def test_tracer_lines_match_per_row_json_dumps(rows):
    t = Tracer()
    for row in rows:
        t.log(row)
    assert t.lines() == [
        json.dumps(row, sort_keys=True, separators=(",", ":")).encode() for row in rows
    ]


HEX32 = st.binary(min_size=32, max_size=32).map(bytes.hex)
WIDE_INTS = st.integers(-(1 << 63), 1 << 63)
# strings that look like a deliver row's from, time and to slots, or a format
LOOK_ALIKES = st.sampled_from(['"from":-1,', 'x"time":-2,', '"to":-3,', '%d', '%'])
KINDS = (st.sampled_from(["TX_ANNOUNCE", "BLOCK_ANNOUNCE", "GET_BLOCKS", "BLOCKS"])
         | LOOK_ALIKES | st.text())
# no label, or the one label a record may carry
LABELS = (
    st.just(("", ""))
    | st.tuples(st.sampled_from(["tx", "block"]), HEX32)
    | st.tuples(st.just("reject"), st.just("malformed") | LOOK_ALIKES | st.text())
)


@st.composite
def deliveries(draw):
    """``(record, from, time, to, row)``: the record of a drawn body, kind and
    label, one delivery of it, and the row that delivery stands for."""
    kind, body, (label, text) = draw(KINDS), draw(st.binary(max_size=40)), draw(LABELS)
    src, time_ms, dst = draw(WIDE_INTS), draw(WIDE_INTS), draw(WIDE_INTS)
    row = {"time": time_ms, "type": "deliver", "from": src, "to": dst, "kind": kind,
           "body_hash": hashlib.sha256(body).hexdigest()}
    if label:
        row[label] = text
    return delivery(kind, body, None, label, text), src, time_ms, dst, row


@settings(max_examples=300, deadline=None)
@given(st.lists(deliveries(), max_size=6))
def test_deliver_writes_the_canonical_json_line(drawn):
    t = Tracer()
    for record, src, time_ms, dst, row in drawn:
        line = record.line % (src, time_ms, dst)
        assert line == canonical_json(row) + b"\n"
        t.deliver(time_ms, line, record.block)
    assert t.sink.getvalue() == b"".join(canonical_json(row) + b"\n" for *_, row in drawn)


@given(st.lists(deliveries(), max_size=6))
def test_folding_tracer_folds_and_writes_a_delivered_row_as_a_logged_one(drawn):
    delivered, logged = Tracer(), Tracer()
    for record, src, time_ms, dst, row in drawn:
        delivered.deliver(time_ms, record.line % (src, time_ms, dst), record.block)
        logged.log(row)
    assert vars(delivered.fold) == vars(logged.fold)
    assert delivered.lines() == logged.lines()


def test_drain_deliveries_runs_all_but_timers_in_order():
    sim = make_sim()
    fired = []
    sim.schedule(3, sim._fire_mining, 0)
    sim.schedule(5, fired.append, "a")
    sim.schedule(7, sim._sync, 0)
    sim.schedule(8, lambda: (fired.append("b"), sim.schedule(9, sim._fire_mining, 1),
                             sim.schedule(12, fired.append, "c")))
    sim.drain_deliveries()
    assert fired == ["a", "b", "c"]
    assert sim.pending() == 0
    assert sim.now == 12


# -- event order: the calendar queue against a (time, seq) heap ---------------

SYNC_MS = 3  # a sync timer re-arms 3 ms after it runs
LATENCY_MS = 2  # every message takes 2 ms, so a fan-out lands at one time

# an event: a mining or sync timer of node 0-2, a message from node 3 to
# node 4 (sent when it is put, so it lands LATENCY_MS later), or a call
# that, when it runs, puts more events at the time it runs (same), later or
# earlier
WHEN = st.sampled_from(["same", "later", "earlier"])
EVENTS = st.recursive(
    st.tuples(st.sampled_from(["mine", "sync"]), st.integers(0, 2)) | st.just(("send",)),
    lambda events: st.tuples(
        st.just("call"), st.lists(st.tuples(WHEN, st.integers(1, 3), events), max_size=3)
    ),
    max_leaves=24,
)

# a fixed latency's burst: one call puts 19,998 messages and two timers in
# the one 20,000-event bucket of time 2
BURST = [(0, ("call", [("same", 1, ("send",))] * 19_998
              + [("later", LATENCY_MS, ("sync", 0)), ("later", LATENCY_MS, ("mine", 1))]))]


def _at(now, when, delta):
    return now + {"same": 0, "later": delta, "earlier": -delta}[when]


class LoggingNode(Recorder):
    def __init__(self, ran):
        super().__init__()
        self.ran = ran

    def handle(self, env):
        self.ran.append(("deliver", int(env.body)))
        return super().handle(env)


class LoggingSimulator(Simulator):
    """Logs every event it runs. Nodes 0-2 are down, so a mining timer
    does nothing more and a sync timer re-arms; 3 and 4 log deliveries."""

    def __init__(self):
        super().__init__(SimConfig(latency_min_ms=LATENCY_MS, latency_max_ms=LATENCY_MS,
                                   sync_interval_ms=SYNC_MS), 5)
        self.ran = []
        self.labels = itertools.count()
        for i in (3, 4):
            self.attach(i, LoggingNode(self.ran))

    def put(self, time_ms, event):
        kind = event[0]
        if kind == "mine":
            self.schedule(time_ms, self._fire_mining, event[1])
        elif kind == "sync":
            self.schedule(time_ms, self._sync, event[1])
        elif kind == "send":
            assert self.send(3, 4, "PING", str(next(self.labels)).encode())
        else:
            self.schedule(time_ms, self._call, next(self.labels), event[1])

    def _call(self, label, children):
        self.ran.append(("call", label))
        for when, delta, child in children:
            self.put(_at(self.now, when, delta), child)

    def _fire_mining(self, node_idx):
        self.ran.append(("mine", node_idx))
        super()._fire_mining(node_idx)

    def _sync(self, node_idx):
        self.ran.append(("sync", node_idx))
        super()._sync(node_idx)


class ReferenceQueue:
    """The same events in one heap of ``(time, seq, event, label)``."""

    def __init__(self):
        self.heap, self.seq, self.now, self.ran = [], 0, 0, []
        self.labels = itertools.count()

    def put(self, time_ms, event):
        label = None if event[0] in ("mine", "sync") else next(self.labels)
        if event[0] == "send":
            time_ms, event = self.now + LATENCY_MS, ("deliver",)
        heapq.heappush(self.heap, (time_ms, self.seq, event, label))
        self.seq += 1

    def step(self):
        time_ms, _, event, label = heapq.heappop(self.heap)
        self.now = max(self.now, time_ms)
        kind = event[0]
        self.ran.append(event if label is None else (kind, label))
        if kind == "sync":
            self.put(self.now + SYNC_MS, event)
        elif kind == "call":
            for when, delta, child in event[1]:
                self.put(_at(self.now, when, delta), child)

    def drain(self):
        while self.heap:
            if self.heap[0][2][0] in ("mine", "sync"):
                heapq.heappop(self.heap)
            else:
                self.step()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), EVENTS), max_size=12), st.integers(0, 80))
@example(BURST, 10_000)
def test_events_run_in_the_order_of_a_time_and_sequence_heap(schedule, steps):
    """Equal times run in scheduling order, also for events put at the time
    being served or earlier while it is served; drain_deliveries then runs
    all that is left but the timers."""
    sim, reference = LoggingSimulator(), ReferenceQueue()
    for time_ms, event in schedule:
        sim.put(time_ms, event)
        reference.put(time_ms, event)
    assert sim.pending() == len(reference.heap)
    for _ in range(steps):
        if not reference.heap:
            break
        sim.step()
        reference.step()
        assert len(sim.ran) == len(reference.ran) and sim.ran[-1] == reference.ran[-1]
        assert (sim.now, sim.pending()) == (reference.now, len(reference.heap))
    sim.drain_deliveries()
    reference.drain()
    assert sim.ran == reference.ran
    assert (sim.now, sim.pending()) == (reference.now, 0)


def test_envelope_builds_positionally_and_is_immutable():
    env = Envelope(0, 0, 0, 1, "TX_ANNOUNCE", b"body")
    assert (env.send_time, env.deliver_time, env.src, env.dst) == (0, 0, 0, 1)
    assert (env.kind, env.body) == ("TX_ANNOUNCE", b"body")
    with pytest.raises(AttributeError):
        env.kind = "BLOCKS"
    assert env.kind == "TX_ANNOUNCE"


def test_send_builds_the_envelope_the_named_tuple_builds():
    sim = make_sim(2, latency_min_ms=7, latency_max_ms=7)
    sim.now = 3
    assert sim.send(0, 1, "TX_ANNOUNCE", b"body")
    sim.drain_deliveries()
    [env] = sim.nodes[1].received
    assert type(env) is Envelope and env == Envelope(3, 10, 0, 1, "TX_ANNOUNCE", b"body")
    assert (env.kind, env.body, env.deliver_time) == ("TX_ANNOUNCE", b"body", 10)


@pytest.mark.parametrize("src,dst", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_send_refuses_an_unknown_index_before_drawing(src, dst):
    sim = make_sim(3)
    state = [rng.getstate() for rng in sim._net_rng]
    with pytest.raises(ValueError, match="unknown node index"):
        sim.send(src, dst, "PING", b"")
    assert sim.messages_sent == 0 and sim.pending() == 0
    assert [rng.getstate() for rng in sim._net_rng] == state


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 10_000),
    st.one_of(st.integers(0, 70), st.integers(0, 2**40)),  # 0 is lo == hi
    st.booleans(),
)
def test_latency_draw_is_randint_draw_for_draw(seed, lo, width, lossy):
    """send draws each latency as rng.randint(lo, hi) would, then the loss
    roll, leaving the stream where randint and random() leave it."""
    hi = lo + width
    sim = make_sim(2, latency_min_ms=lo, latency_max_ms=hi, drop_probability=0.5 * lossy)
    sim._net_rng[0] = random.Random(seed)
    reference = random.Random(seed)
    expected = {}
    for i in range(24):
        body = bytes([i])
        latency = reference.randint(lo, hi)
        kept = not (lossy and reference.random() < 0.5)
        assert sim.send(0, 1, "PING", body) is kept
        if kept:
            expected[body] = latency
        assert sim._net_rng[0].getstate() == reference.getstate()
    sim.drain_deliveries()
    got = {e.body: e.deliver_time - e.send_time for e in sim.nodes[1].received}
    assert got == expected
