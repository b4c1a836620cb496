import tracemalloc

from hypothesis import given, settings, strategies as st

from chainsim.metrics import compute_metrics, metrics_csv
from chainsim.netsim import Tracer

from conftest import parse_trace_lines


def sample_rows():
    return [
        {"time": 10, "type": "tx_submit", "node": 0, "tx": "aa", "status": "relayed"},
        {"time": 12, "type": "tx_submit", "node": 1, "tx": "bb", "status": "relayed"},
        {"time": 40, "type": "mine", "node": 0, "height": 1, "hash": "h1", "txs": ["aa"]},
        {"time": 55, "type": "deliver", "from": 0, "to": 1, "kind": "BLOCK_ANNOUNCE",
         "block": "h1", "body_hash": "x"},
        {"time": 60, "type": "deliver", "from": 0, "to": 2, "kind": "BLOCK_ANNOUNCE",
         "block": "h1", "body_hash": "x"},
        {"time": 70, "type": "adopt", "node": 1, "height": 1, "hash": "h1"},
        {"time": 90, "type": "mine", "node": 2, "height": 2, "hash": "h2", "txs": ["bb"]},
        {"time": 95, "type": "mine", "node": 0, "height": 2, "hash": "h2b", "txs": []},
    ]


def as_dict(rows):
    return {(name, node): (t, value) for t, name, node, value in rows}


def test_compute_metrics_from_hand_trace():
    m = as_dict(compute_metrics(sample_rows()))
    assert m[("blocks_mined", 0)][1] == 2
    assert m[("blocks_mined", 2)][1] == 1
    # 3 mines, max height 2 -> one fork
    assert m[("fork_count", -1)][1] == 1
    # aa: 40-10=30, bb: 90-12=78 -> mean 54
    assert m[("tx_confirm_latency_mean_ms", -1)][1] == 54
    assert m[("tx_confirmed_count", -1)][1] == 2
    # h1 mined at 40, last announce at 60
    assert m[("block_propagation_max_ms", -1)][1] == 20
    assert m[("head_height", 1)] == (70, 1)


def test_csv_shape():
    rows = compute_metrics(sample_rows())
    csv = metrics_csv(rows).decode()
    lines = csv.strip().split("\n")
    assert lines[0] == "time_ms,metric_name,node,value"
    assert len(lines) == len(rows) + 1
    assert all(len(ln.split(",")) == 4 for ln in lines[1:])


def test_metrics_recompute_from_serialized_trace():
    t = Tracer()
    for row in sample_rows():
        t.log(row)
    reparsed = parse_trace_lines(t.lines())
    assert compute_metrics(reparsed) == compute_metrics(sample_rows())


def test_empty_trace():
    assert compute_metrics([]) == []
    assert metrics_csv([]) == b"time_ms,metric_name,node,value\n"


def multipass_metrics(rows):
    """The metrics as they were computed before the one-pass fold: several
    passes over a list of every trace row. The reference for the fold."""
    out = []
    end_time = max((r["time"] for r in rows), default=0)
    for r in rows:
        if r.get("type") == "adopt":
            out.append((r["time"], "head_height", r["node"], r["height"]))
    mined = {}
    mine_rows = [r for r in rows if r.get("type") == "mine"]
    for r in mine_rows:
        mined[r["node"]] = mined.get(r["node"], 0) + 1
    for node in sorted(mined):
        out.append((end_time, "blocks_mined", node, mined[node]))
    if mine_rows:
        max_height = max(r["height"] for r in mine_rows)
        out.append((end_time, "fork_count", -1, len(mine_rows) - max_height))
    submit_time = {}
    for r in rows:
        if r.get("type") == "tx_submit" and r.get("status") == "relayed":
            submit_time.setdefault(r["tx"], r["time"])
    latencies = []
    confirmed = set()
    for r in mine_rows:
        for tx in r.get("txs", []):
            if tx in submit_time and tx not in confirmed:
                confirmed.add(tx)
                latencies.append(r["time"] - submit_time[tx])
    if latencies:
        latencies.sort()
        mean = sum(latencies) / len(latencies)
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
        out.append((end_time, "tx_confirm_latency_mean_ms", -1, round(mean, 3)))
        out.append((end_time, "tx_confirm_latency_p95_ms", -1, p95))
        out.append((end_time, "tx_confirmed_count", -1, len(latencies)))
    mine_time = {r["hash"]: r["time"] for r in mine_rows}
    last_seen = {}
    for r in rows:
        if r.get("type") == "deliver" and r.get("kind") == "BLOCK_ANNOUNCE":
            h = r.get("block")
            if h in mine_time:
                last_seen[h] = max(last_seen.get(h, 0), r["time"])
    delays = [last_seen[h] - mine_time[h] for h in last_seen]
    if delays:
        out.append(
            (end_time, "block_propagation_mean_ms", -1, round(sum(delays) / len(delays), 3))
        )
        out.append((end_time, "block_propagation_max_ms", -1, max(delays)))
    out.sort(key=lambda row: (row[0], row[1], row[2]))
    return out


# small label pools, so blocks are re-announced, re-mined and txs re-submitted
TIMES = st.integers(0, 200)
NODES = st.integers(0, 3)
BLOCKS = st.sampled_from(["b0", "b1", "b2", "b3"])
TXS = st.sampled_from(["t0", "t1", "t2", "t3", "t4"])
KINDS = st.sampled_from(["TX_ANNOUNCE", "BLOCK_ANNOUNCE", "GET_BLOCKS", "BLOCKS", "PING"])


@st.composite
def deliver_rows(draw):
    row = {"time": draw(TIMES), "type": "deliver", "from": draw(NODES), "to": draw(NODES),
           "kind": draw(KINDS), "body_hash": "00"}
    label = draw(st.sampled_from(["block", "tx", "reject", None]))
    if label == "block":
        row["block"] = draw(BLOCKS)
    elif label == "tx":
        row["tx"] = draw(TXS)
    elif label == "reject":
        row["reject"] = "malformed"
    return row


TRACE_ROWS = st.one_of(
    deliver_rows(),
    st.fixed_dictionaries({"time": TIMES, "type": st.just("deliver"), "from": NODES,
                           "to": NODES, "kind": st.just("BLOCK_ANNOUNCE"), "block": BLOCKS,
                           "body_hash": st.just("00")}),
    st.fixed_dictionaries({"time": TIMES, "type": st.just("adopt"), "node": NODES,
                           "height": st.integers(0, 6), "hash": BLOCKS}),
    st.fixed_dictionaries({"time": TIMES, "type": st.just("mine"), "node": NODES,
                           "height": st.integers(0, 6), "hash": BLOCKS,
                           "txs": st.lists(TXS, max_size=3)}),
    st.fixed_dictionaries({"time": TIMES, "type": st.just("tx_submit"), "node": NODES,
                           "tx": TXS,
                           "status": st.sampled_from(["relayed", "rejected:bad_nonce"])}),
    st.fixed_dictionaries({"time": TIMES, "type": st.sampled_from(["crash", "restart"]),
                           "node": NODES}),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TRACE_ROWS, max_size=8) | st.lists(TRACE_ROWS, min_size=20, max_size=60))
def test_live_fold_matches_the_multipass_metrics_and_the_trace_file(rows):
    tracer = Tracer()
    for row in rows:
        tracer.log(row)
    want = multipass_metrics(rows)
    assert tracer.fold.metrics() == want
    assert compute_metrics(parse_trace_lines(tracer.lines())) == want
    assert compute_metrics(iter(rows)) == want


def test_logging_to_a_file_sink_holds_no_rows(tmp_path):
    with open(tmp_path / "trace.jsonl", "wb") as sink:
        tracer = Tracer(sink)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(50_000):
                tracer.log({"time": i, "type": "deliver", "from": i % 20, "to": (i + 1) % 20,
                            "kind": "TX_ANNOUNCE", "body_hash": "ab" * 32, "tx": "cd" * 32})
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert grown < 1_000_000
    assert len((tmp_path / "trace.jsonl").read_bytes().splitlines()) == 50_000
