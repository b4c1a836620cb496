"""Metrics derived purely from a persisted event trace.

Every number here recomputes from the trace rows alone, so a report can
be regenerated from the trace file without re-running the simulation.
CSV columns: time_ms, metric_name, node, value (node -1 = network-wide).
"""

from __future__ import annotations

import json
from typing import Iterable, List


def parse_trace_lines(lines: Iterable[bytes]) -> List[dict]:
    return [json.loads(ln) for ln in lines if ln.strip()]


def compute_metrics(rows: List[dict]) -> List[tuple]:
    """(time_ms, metric_name, node, value) rows from trace rows."""
    out: List[tuple] = []
    end_time = max((r["time"] for r in rows), default=0)

    # head height over time
    for r in rows:
        if r.get("type") == "adopt":
            out.append((r["time"], "head_height", r["node"], r["height"]))

    # blocks mined per node, and canonical height for the fork count
    mined: dict = {}
    mine_rows = [r for r in rows if r.get("type") == "mine"]
    for r in mine_rows:
        mined[r["node"]] = mined.get(r["node"], 0) + 1
    for node in sorted(mined):
        out.append((end_time, "blocks_mined", node, mined[node]))
    if mine_rows:
        max_height = max(r["height"] for r in mine_rows)
        out.append((end_time, "fork_count", -1, len(mine_rows) - max_height))

    # confirmation latency: submit -> first inclusion in a mined block
    submit_time: dict = {}
    for r in rows:
        if r.get("type") == "tx_submit" and r.get("status") == "relayed":
            submit_time.setdefault(r["tx"], r["time"])
    latencies = []
    confirmed: set = set()
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

    # per-block propagation delay: mine time -> last BLOCK_ANNOUNCE receipt
    mine_time = {r["hash"]: r["time"] for r in mine_rows}
    last_seen: dict = {}
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


def metrics_csv(metric_rows: List[tuple]) -> bytes:
    lines = ["time_ms,metric_name,node,value"]
    for time_ms, name, node, value in metric_rows:
        lines.append(f"{time_ms},{name},{node},{value}")
    return ("\n".join(lines) + "\n").encode()
