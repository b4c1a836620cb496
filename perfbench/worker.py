"""One measured phase over one generated workload, in a fresh process.

    python3 perfbench/worker.py <spec.json> <mode> <spawn-monotonic-time> [<replies-out>]

The parent puts ``src`` on PYTHONPATH and passes the CLOCK_MONOTONIC time at
which it spawned this process, so set-up includes interpreter start. Each
mode is one thing a user does, in a process that has done nothing else:

- ``run`` (simulations): ``cli.main(["run", scenario, "--out", dir,
  "--quiet"])``, as ``chainsim run`` does. Also leaves the run's chain file
  at the spec's ``chain`` path for the other modes.
- ``verify``: one ``ledger.verify_chain_lines`` pass over the chain file, as
  ``chainsim verify`` does.
- ``rpc``: a node built from the chain file, as ``chainsim serve-rpc``
  builds it, answers the parent's request payloads through
  ``RpcDispatcher.handle_payload``, closed loop, one caller. The replies go
  to ``<replies-out>``; the parent checks them.
- ``setup``: stops after set-up (the ``run`` set-up on a simulation, the
  ``rpc`` set-up on ``rpc_reads``).
- ``traced``: run (simulations), verify and rpc in one process, with every
  layer traced (see layers.py).

Set-up is process start to the start of the measured phase: interpreter
start, imports and loading the input (the scenario, the chain lines, or
the serving node). Prints one JSON object on its last stdout line: counts,
checks, the fingerprint, and each phase's window and CPU time, which the
parent corrects for host speed (see hostspeed.py). Every count it reports
is deterministic for a given input.
"""

from __future__ import annotations

import sys
import time

T_SPAWN = float(sys.argv[3]) if len(sys.argv) > 3 else time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from chainsim import cli, ledger, netsim, rpc  # noqa: E402
from chainsim.node import SimNode  # noqa: E402
from chainsim.scenario import node_key_seed  # noqa: E402

import layers  # noqa: E402

SUMMARY_CONSENSUS_FIELDS = (
    "converged", "head_hashes", "heights", "blocks_mined", "canonical_blocks_by_miner",
)


class ServeSim:
    """The host a lone served node needs, as `chainsim serve-rpc` gives it:
    no peers, so sends and queries go nowhere. The CLI's own stand-in is
    private, so the benchmark keeps to public names."""

    now = 0

    def __init__(self):
        self.config = netsim.SimConfig()
        self.tracer = netsim.Tracer()

    def send(self, *args, **kwargs):
        return False

    def query(self, *args, **kwargs):
        return None


def read_lines(path) -> list:
    return [ln for ln in Path(path).read_bytes().split(b"\n") if ln.strip()]


def serving_node(path) -> SimNode:
    """Load a chain file into a node the way `chainsim serve-rpc` does."""
    blocks = ledger.read_chain_file(path)
    lines = ledger.chain_file_lines(blocks)
    return SimNode(ServeSim(), 0, node_key_seed(0, 0), blocks[0], persisted_lines=lines)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Probe:
    """Counts Simulator.step dispatches and keeps the RunResult of the
    scenario run, by wrapping two bindings for the length of a run."""

    def __init__(self):
        self.steps = 0
        self.result = None

    def __enter__(self):
        self._step, self._run = netsim.Simulator.step, cli.run_scenario
        probe, step, run = self, self._step, self._run

        def counted_step(sim):
            probe.steps += 1
            return step(sim)

        def kept_run(*args, **kwargs):
            probe.result = run(*args, **kwargs)
            return probe.result

        netsim.Simulator.step, cli.run_scenario = counted_step, kept_run
        return self

    def __exit__(self, *exc):
        netsim.Simulator.step, cli.run_scenario = self._step, self._run


def shape_of(out: Path, result) -> dict:
    """Workload shape from the run's artifacts: blocks, reorgs, restarts,
    txs relayed and rejected at submission."""
    rows = [json.loads(ln) for ln in read_lines(out / "trace.jsonl")]
    summary = json.loads((out / "summary.json").read_text())
    parent = {}  # every block any live node holds; miners never crash, so none is lost
    for node in result.nodes:
        if node is not None:
            for h, block in node.store.blocks.items():
                parent[h.hex()] = block.prev_hash.hex()
    tips: dict = {}  # node -> (hash, height)
    reorgs = depth_max = unresolved = 0
    for r in rows:
        if r["type"] != "adopt":
            continue
        old = tips.get(r["node"])
        tips[r["node"]] = (r["hash"], r["height"])
        if old is None:
            continue
        h, height = r["hash"], r["height"]
        while height > old[1] and h in parent:
            h, height = parent[h], height - 1
        if height > old[1]:
            unresolved += 1
        elif h != old[0]:
            # walk both back to the fork point to measure the depth
            a, b, depth = old[0], h, 0
            while a != b and a in parent and b in parent:
                a, b, depth = parent[a], parent[b], depth + 1
            reorgs += 1
            depth_max = max(depth_max, depth)
    status = [r["status"] for r in rows if r["type"] == "tx_submit"]
    return {
        "blocks": max(summary["heights"]),
        "reorgs": reorgs,
        "reorg_depth_max": depth_max,
        "reorgs_unresolved": unresolved,
        "restarts": sum(r["type"] == "restart" for r in rows),
        "txs_relayed": sum(s == "relayed" for s in status),
        "txs_rejected": sum(s.startswith("rejected") for s in status),
    }


def fingerprint_run(out: Path) -> dict:
    chains = sorted(out.glob("chain_node*.jsonl"), key=lambda p: int(p.stem[10:]))
    summary = json.loads((out / "summary.json").read_text())
    consensus = {k: summary[k] for k in SUMMARY_CONSENSUS_FIELDS}
    return {
        "trace": hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest(),
        "chains": [hashlib.sha256(p.read_bytes()).hexdigest() for p in chains],
        "summary": hashlib.sha256(json.dumps(consensus, sort_keys=True).encode()).hexdigest(),
    }


class Phase:
    """Records a phase's window (CLOCK_MONOTONIC) and its CPU time; the
    parent corrects the CPU time for host speed over the window."""

    def __init__(self, report: dict, name: str):
        self.report, self.name = report, name
        self.start, self.cpu = time.monotonic(), time.process_time()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.report["phases"][self.name] = [
            self.start, time.monotonic(), time.process_time() - self.cpu]


def run_phase(spec: dict, report: dict, keep_chain: bool) -> None:
    """`chainsim run` on the scenario; peak RSS is read before any of the
    benchmark's own checks allocate."""
    out = Path(tempfile.mkdtemp(prefix="out-", dir=Path(spec["scenario"]).parent))
    try:
        with Probe() as probe, Phase(report, "run"):
            rc = cli.main(["run", spec["scenario"], "--out", str(out), "--quiet"])
        report["peak_rss_mb"] = peak_rss_mb()
        report["events"] = probe.steps
        report["attempted"] += 1
        converged = json.loads((out / "summary.json").read_text())["converged"]
        if rc != 0 or not converged:
            report["failed"] += 1
            report["failures"].append(f"run exit {rc}, converged={converged}")
        report["fingerprint"].update(fingerprint_run(out))
        report["shape"] = shape_of(out, probe.result)
        report["shape"]["events"] = probe.steps
        probe.result = None
        chain = Path(spec["chain"])
        if keep_chain and not chain.exists():
            first = min(out.glob("chain_node*.jsonl"), key=lambda p: int(p.stem[10:]))
            shutil.copyfile(first, chain)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def verify_phase(lines: list, report: dict) -> None:
    report["attempted"] += 1
    report["verify_blocks"] = len(lines)
    with Phase(report, "verify"):
        try:
            ledger.verify_chain_lines(lines)
        except ledger.ChainError as e:
            report["failed"] += 1
            report["failures"].append(f"verify failed at height {e.height}: {e.code}")


def rpc_phase(node, spec: dict, replies_out: str, report: dict) -> None:
    """Closed loop, one caller. A request's latency is the caller thread's
    CPU time, so a preemption by the calibrator or anything else is not in
    it; its start time lets the parent correct it for host speed."""
    payloads = read_lines(spec["requests"])
    dispatcher = rpc.RpcDispatcher(node)
    latency, starts = [], []
    clock, now = time.thread_time, time.monotonic
    with open(replies_out, "wb") as out, Phase(report, "rpc"):
        for payload in payloads:
            starts.append(now())
            t = clock()
            reply = dispatcher.handle_payload(payload)
            latency.append(clock() - t)
            out.write(reply + b"\n")
    report["rpc_latency"] = list(zip(starts, latency))


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    mode = sys.argv[2]
    simulation = "scenario" in spec
    report = {"attempted": 0, "failed": 0, "failures": [], "fingerprint": {}, "phases": {}}
    trace = layers.LayerTrace() if mode == "traced" else None
    if trace:
        trace.install()
    try:
        with Phase(report, "load"):
            if mode == "verify":
                lines = read_lines(spec["chain"])
            elif simulation and mode != "rpc":
                json.loads(Path(spec["scenario"]).read_text())
            else:
                node = serving_node(spec["chain"])
        report["phases"]["setup"] = [T_SPAWN, time.monotonic(), time.process_time()]
        if mode == "run":
            run_phase(spec, report, keep_chain=True)
        elif mode == "verify":
            verify_phase(lines, report)
        elif mode == "rpc":
            rpc_phase(node, spec, sys.argv[4], report)
            report["peak_rss_mb"] = peak_rss_mb()
        elif mode == "traced":
            if simulation:
                run_phase(spec, report, keep_chain=False)
                with Phase(report, "serve"):
                    node = serving_node(spec["chain"])
            verify_phase(read_lines(spec["chain"]), report)
            rpc_phase(node, spec, sys.argv[4], report)
    finally:
        if trace:
            trace.restore()
    if trace:
        traced_s = sum(end - start for name, (start, end, _cpu) in report["phases"].items()
                       if name != "setup")
        report["traced_s"] = traced_s
        report["layers"] = layers.layer_metrics(trace, traced_s, report.get("shape", {}))
        report["spans"] = sorted(
            ([name, st[0], st[1]] for name, st in trace.stats.items()),
            key=lambda s: -s[2],
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
