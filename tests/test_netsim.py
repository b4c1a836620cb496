import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

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


def test_envelope_builds_positionally_and_is_immutable():
    env = Envelope(0, 0, 0, 1, "TX_ANNOUNCE", b"body")
    assert (env.send_time, env.deliver_time, env.src, env.dst) == (0, 0, 0, 1)
    assert (env.kind, env.body) == ("TX_ANNOUNCE", b"body")
    with pytest.raises(AttributeError):
        env.kind = "BLOCKS"
    assert env.kind == "TX_ANNOUNCE"


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
