from chainsim.metrics import compute_metrics, metrics_csv, parse_trace_lines
from chainsim.netsim import Tracer


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
