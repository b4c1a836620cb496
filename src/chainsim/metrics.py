"""Metrics folded from event trace rows in one pass.

``MetricsFold`` takes each trace row once, in trace order, and keeps only
what the metrics read: each ``adopt`` row's head height, the ``mine`` rows,
the first relayed ``tx_submit`` time per tx, the last ``BLOCK_ANNOUNCE``
receipt per block label, and the latest time. The simulator's ``Tracer``
feeds one live as it logs, so ``chainsim run`` writes ``metrics.csv``
without holding the trace; ``compute_metrics`` folds any iterable of rows,
so a report also recomputes from the trace file alone.
CSV columns: time_ms, metric_name, node, value (node -1 = network-wide).
"""

from __future__ import annotations

from typing import Iterable, List, Optional


def announced_block(row: dict) -> Optional[str]:
    """The label a deliver row gives the fold: a ``BLOCK_ANNOUNCE`` row's
    ``block``, or None for any other row or a row that carries none."""
    return row.get("block") if row.get("kind") == "BLOCK_ANNOUNCE" else None


class MetricsFold:
    """The metrics of a trace: ``add`` each row once, then read ``metrics()``."""

    def __init__(self):
        self.end_time = None  # the latest row time
        self.heads: list = []  # (time, node, height) per adopt row
        self.mine_rows: list = []
        self.mined: dict = {}  # node -> blocks it mined
        self.submit_time: dict = {}  # tx -> first relayed submission time
        self.last_announce: dict = {}  # block label -> last BLOCK_ANNOUNCE receipt

    def deliver(self, time_ms: int, block=None) -> None:
        """Fold a deliver row: its time, and ``block``, the block label of a
        ``BLOCK_ANNOUNCE`` row (None for any other row, or for a body that
        carries no label). ``netsim.Tracer.deliver`` folds a live deliver
        row the same way, in place; the two must change together."""
        if self.end_time is None or time_ms > self.end_time:
            self.end_time = time_ms
        if block is not None:
            self.last_announce[block] = max(self.last_announce.get(block, 0), time_ms)

    def add(self, row: dict) -> None:
        time_ms = row["time"]
        kind = row.get("type")
        if kind == "deliver":
            self.deliver(time_ms, announced_block(row))
            return
        if self.end_time is None or time_ms > self.end_time:
            self.end_time = time_ms
        if kind == "adopt":
            self.heads.append((time_ms, row["node"], row["height"]))
        elif kind == "mine":
            self.mine_rows.append(row)
            self.mined[row["node"]] = self.mined.get(row["node"], 0) + 1
        elif kind == "tx_submit" and row.get("status") == "relayed":
            self.submit_time.setdefault(row["tx"], time_ms)

    def metrics(self) -> List[tuple]:
        """(time_ms, metric_name, node, value) rows, sorted."""
        end_time = 0 if self.end_time is None else self.end_time
        out = [(t, "head_height", node, height) for t, node, height in self.heads]

        # blocks mined per node, and canonical height for the fork count
        mine_rows = self.mine_rows
        for node in sorted(self.mined):
            out.append((end_time, "blocks_mined", node, self.mined[node]))
        if mine_rows:
            max_height = max(r["height"] for r in mine_rows)
            out.append((end_time, "fork_count", -1, len(mine_rows) - max_height))

        # confirmation latency: submit -> first inclusion in a mined block
        latencies = []
        confirmed: set = set()
        for r in mine_rows:
            for tx in r.get("txs", []):
                if tx in self.submit_time and tx not in confirmed:
                    confirmed.add(tx)
                    latencies.append(r["time"] - self.submit_time[tx])
        if latencies:
            latencies.sort()
            mean = sum(latencies) / len(latencies)
            p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
            out.append((end_time, "tx_confirm_latency_mean_ms", -1, round(mean, 3)))
            out.append((end_time, "tx_confirm_latency_p95_ms", -1, p95))
            out.append((end_time, "tx_confirmed_count", -1, len(latencies)))

        # per-block propagation delay: mine time -> last BLOCK_ANNOUNCE receipt
        mine_time = {r["hash"]: r["time"] for r in mine_rows}
        delays = [
            seen - mine_time[h] for h, seen in self.last_announce.items() if h in mine_time
        ]
        if delays:
            out.append(
                (end_time, "block_propagation_mean_ms", -1, round(sum(delays) / len(delays), 3))
            )
            out.append((end_time, "block_propagation_max_ms", -1, max(delays)))

        out.sort(key=lambda row: (row[0], row[1], row[2]))
        return out


def compute_metrics(rows: Iterable[dict]) -> List[tuple]:
    """(time_ms, metric_name, node, value) rows from trace rows, in one pass."""
    fold = MetricsFold()
    for row in rows:
        fold.add(row)
    return fold.metrics()


def metrics_csv(metric_rows: List[tuple]) -> bytes:
    lines = ["time_ms,metric_name,node,value"]
    for time_ms, name, node, value in metric_rows:
        lines.append(f"{time_ms},{name},{node},{value}")
    return ("\n".join(lines) + "\n").encode()
