#!/usr/bin/env python3
"""chainsim's benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload chain_growth --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it builds nothing, importing ``src/``
directly. The workload is generated from ``--seed`` into a scratch
directory under ``perfbench/.work`` and removed afterwards. Workers run one
at a time, each a fresh single-threaded process that does one thing a user
does (see ``worker.py``): a ``chainsim run``, a ``chainsim verify`` pass,
or a ``chainsim serve-rpc`` session.

``--trace 0`` runs a fixed set of workers (two runs, five verify passes
and three RPC sessions on a simulation; three RPC sessions, which are its
run, and two verify passes on ``rpc_reads``), set-up-only workers until
there are five set-up samples, then more verify passes and RPC sessions,
each only if it fits in what is left of ``--seconds``, and reports the
median of each end-to-end metric over its workers. ``--trace 1``
runs one plain and two traced workers, reports the per-layer metrics of
the first traced one and counts a failure for every count that differs
between the two; the tracing overhead is traced ``run_s`` over plain
``run_s``.

The parent makes the RPC request mix and checks every reply against
reference answers (``rpcmix.py``), so workers hold only what they serve.

Human-readable lines come first; the last stdout line is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``. Names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import layers
import rpcmix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RPC_REQUESTS = 3000
# The fixed set of workers, interleaved so host drift hits every mode. Two
# runs on a simulation: the same number in every invocation, so that how
# fast the host is does not change how many samples the median takes.
MINIMUM = {
    "simulation": ("run", "verify", "rpc", "verify", "rpc", "verify", "rpc", "verify", "verify",
                   "run"),
    "rpc_reads": ("rpc", "verify", "rpc", "verify", "rpc"),
}
# then more of these, in turn, while each fits in --seconds
MORE = ("verify", "rpc")
MIN_SETUPS = 5
LATENCY_WINDOW_S = 0.1
WORKER_TIMEOUT_S = 150
# per-layer metrics that must repeat exactly between two traced workers
EXACT_UNITS = ("count", "B")


class WorkerFailed(Exception):
    pass


def spawn(spec_path: Path, mode: str, replies: Path | None = None) -> dict:
    """Run one worker pinned to one CPU, with the host-speed calibrator
    pinned beside it; returns the worker's report with a speed factor per
    phase."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    pin = functools.partial(os.sched_setaffinity, 0, {min(os.sched_getaffinity(0))})
    calibrator = subprocess.Popen(
        [sys.executable, str(HERE / "hostspeed.py")], stdout=subprocess.PIPE, preexec_fn=pin,
    )
    try:
        time.sleep(0.1)  # let it take samples before the worker starts
        t0 = time.monotonic()
        argv = [sys.executable, str(HERE / "worker.py"), str(spec_path), mode, repr(t0)]
        proc = subprocess.run(
            argv + ([str(replies)] if replies else []),
            cwd=ROOT, env=env, capture_output=True, timeout=WORKER_TIMEOUT_S, preexec_fn=pin,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s")
    finally:
        calibrator.terminate()
        samples = json.loads(calibrator.communicate(timeout=30)[0] or b"[]")
    wall = time.monotonic() - t0
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.decode().strip().splitlines()[-5:]
        raise WorkerFailed(f"{mode} worker exit {proc.returncode}: " + " | ".join(tail))
    if not samples:
        raise WorkerFailed("the host-speed calibrator took no samples")
    report = json.loads(lines[-1])
    report["mode"] = mode
    report["wall_s"] = wall
    speed = hostspeed.Samples(samples)
    report["speed"] = {
        name: speed.factor(start, end) for name, (start, end, _cpu) in report["phases"].items()
    }
    if "rpc_latency" in report:
        # each request at the host speed around it: requests are shorter
        # than the phase's speed swings
        report["rpc_cpu_ms"] = [cpu * 1e3 for _t, cpu in report["rpc_latency"]]
        report["rpc_ms"] = [
            cpu * 1e3 * speed.factor(t - LATENCY_WINDOW_S, t + LATENCY_WINDOW_S)
            for t, cpu in report.pop("rpc_latency")
        ]
    return report


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def check_replies(report: dict, requests: list, replies: Path) -> None:
    """Check a worker's replies against the reference answers; adds the
    reply digest to its fingerprint and its rpc metrics."""
    lines = replies.read_bytes().split(b"\n")[:-1]
    replies.unlink()
    if len(lines) != len(requests):
        raise WorkerFailed(f"{len(lines)} replies to {len(requests)} requests")
    digest = hashlib.sha256()
    by_method: dict = {}
    expected = unexpected = 0
    for req, reply, ms in zip(requests, lines, report["rpc_cpu_ms"]):
        digest.update(reply + b"\n")
        by_method.setdefault(req.method, []).append(ms)
        verdict = rpcmix.check(req, reply)
        report["attempted"] += 1
        if verdict == "expected_error":
            expected += 1
        elif verdict != "ok":
            unexpected += verdict.startswith(("unexpected error", "wanted error"))
            report["failed"] += 1
            if len(report["failures"]) < 5:
                report["failures"].append(f"rpc: {verdict}")
    report["fingerprint"]["rpc_replies"] = digest.hexdigest()
    report["rpc_metrics"] = (
        {m: len(v) for m, v in by_method.items()},
        {m: percentile(v, 0.99) for m, v in by_method.items()},
        expected, unexpected,
    )


def phase_s(report: dict, phase: str, corrected: bool) -> float:
    """A phase's CPU seconds at the reference host speed, or its raw wall
    seconds."""
    start, end, cpu = report["phases"][phase]
    return cpu * report["speed"][phase] if corrected else end - start


def end_to_end(by_mode: dict, simulation: bool, corrected: bool) -> dict:
    """Medians over the workers of each mode: set-up over every worker that
    did the full set-up, the rest over the workers that measured them."""
    lead = "run" if simulation else "rpc"  # the rpc session is rpc_reads' run
    runs = by_mode[lead]

    def med(reports, f):
        return statistics.median(f(r) for r in reports)

    def secs(phase):
        return lambda r: phase_s(r, phase, corrected)

    latency = "rpc_ms" if corrected else "rpc_cpu_ms"
    return {
        "setup_s": med(by_mode[lead] + by_mode["setup"], secs("setup")),
        "run_s": med(runs, secs(lead)),
        "events_per_s": med(
            runs, lambda r: (r["events"] if simulation else len(r[latency])) / secs(lead)(r)),
        "peak_rss_mb": med(runs, lambda r: r["peak_rss_mb"]),
        "verify_blocks_per_s": med(
            by_mode["verify"], lambda r: r["verify_blocks"] / secs("verify")(r)),
        "rpc_req_per_s": med(by_mode["rpc"], lambda r: len(r[latency]) / secs("rpc")(r)),
        "rpc_p50_ms": med(by_mode["rpc"], lambda r: percentile(r[latency], 0.5)),
        "rpc_p99_ms": med(by_mode["rpc"], lambda r: percentile(r[latency], 0.99)),
    }


def fingerprint_mismatches(reports: list) -> tuple:
    """(merged fingerprint of the first report to have each part, number of
    reports whose parts differ from it)"""
    merged: dict = {}
    differ = 0
    for r in reports:
        fp = r["fingerprint"]
        if any(merged.setdefault(k, v) != v for k, v in fp.items()):
            differ += 1
    return merged, differ


def fingerprint_id(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()


def count_mismatches(a: dict, b: dict) -> list:
    """Names of the deterministic per-layer metrics and span call counts that
    differ between two traced workers."""
    names = [k for k, (_v, unit) in a["layers"].items()
             if unit in EXACT_UNITS or k.endswith("_ratio")]
    differ = [k for k in names if a["layers"][k][0] != b["layers"][k][0]]
    calls_a = {name: calls for name, calls, _s in a["spans"]}
    calls_b = {name: calls for name, calls, _s in b["spans"]}
    differ += [f"{k}.calls" for k in sorted(calls_a.keys() | calls_b.keys())
               if calls_a.get(k) != calls_b.get(k)]
    return differ


class Session:
    """One generated workload and the workers measured on it, one at a time."""

    def __init__(self, spec: dict, workdir: Path):
        spec.setdefault("chain", str(workdir / "chain.jsonl"))  # a run leaves it there
        spec["requests"] = str(workdir / "requests.jsonl")
        self.spec, self.workdir = spec, workdir
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(json.dumps(spec))
        self.by_mode: dict = {mode: [] for mode in ("run", "verify", "rpc", "setup", "traced")}
        self.requests: list = []
        self.shape: dict = {}

    def measure(self, mode: str) -> None:
        if not self.requests and mode in ("rpc", "traced"):
            # the mix is made from the chain file, once it exists
            ref = rpcmix.ChainReference(Path(self.spec["chain"]).read_bytes().splitlines())
            if not self.shape:
                self.shape.update(blocks=len(ref.blocks) - 1, txs=len(ref.tx_height))
            self.requests = rpcmix.make_requests(
                ref, self.spec["key_seeds"], self.spec["seed"], RPC_REQUESTS)
            Path(self.spec["requests"]).write_bytes(
                b"".join(r.payload + b"\n" for r in self.requests))
        replies = self.workdir / "replies.jsonl" if mode in ("rpc", "traced") else None
        report = spawn(self.spec_path, mode, replies)
        if replies:
            check_replies(report, self.requests, replies)
        self.by_mode[mode].append(report)
        if "shape" in report and not self.shape:
            self.shape.update(report["shape"])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark stops its worker and calibrator on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "chainsim" / "__init__.py").is_file():
        print(f"error: no chainsim sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    start = time.monotonic()
    simulation = args.workload in workloads.SIMULATIONS
    kind = "simulation" if simulation else "rpc_reads"
    lead = "run" if simulation else "rpc"
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    failures: list = []
    try:
        session = Session(workloads.generate(args.workload, args.seed, workdir), workdir)
        by_mode, measure = session.by_mode, session.measure
        try:
            if args.trace:
                for mode in (lead, "traced", "traced"):
                    measure(mode)
            else:
                for mode in MINIMUM[kind]:
                    measure(mode)
                while len(by_mode[lead]) + len(by_mode["setup"]) < MIN_SETUPS:
                    measure("setup")

                def est(mode):
                    return max(r["wall_s"] for r in by_mode[mode])

                for mode in itertools.cycle(MORE):
                    left = args.seconds - (time.monotonic() - start)
                    if all(est(m) > left for m in MORE):
                        break
                    if est(mode) <= left:
                        measure(mode)
        except WorkerFailed as e:
            failures.append(str(e))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    needed = (lead, "traced") if args.trace else (lead, "verify", "rpc")
    if failures and not all(by_mode[m] for m in needed):
        print("error: " + "; ".join(failures), file=sys.stderr)
        return 1

    reports = [r for mode in by_mode.values() for r in mode]
    attempted = sum(r["attempted"] for r in reports) + len(failures)
    failed = sum(r["failed"] for r in reports) + len(failures)
    fingerprint, fp_differ = fingerprint_mismatches(reports)
    if fp_differ:
        failed += fp_differ
        failures.append(f"{fp_differ} workers' fingerprints differ from the first's")
    for r in reports:
        failures.extend(r["failures"])
    traced = by_mode["traced"]
    count_differ = count_mismatches(*traced) if len(traced) == 2 else ["a traced run"]
    if traced:
        attempted += 1
        if count_differ:
            failed += 1
            failures.append("per-layer counts differ between two traced runs: "
                            + ", ".join(count_differ[:8]))

    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}, seed {args.seed}: {why}")
    print("shape: " + " ".join(f"{k}={v}" for k, v in session.shape.items()))
    parts = {k: v if isinstance(v, str) else hashlib.sha256("".join(v).encode()).hexdigest()
             for k, v in sorted(fingerprint.items())}
    print(f"fingerprint {fingerprint_id(fingerprint)}: "
          + " ".join(f"{k}={v[:16]}" for k, v in parts.items()))
    for failure in failures:
        print(f"FAILED: {failure}")

    if traced:
        t = traced[0]
        layer = t["layers"]
        layer.update(layers.rpc_metrics(*t["rpc_metrics"]))
        phase = "run" if simulation else "rpc"
        plain = by_mode[lead][0]
        layer["trace.overhead"] = [phase_s(t, phase, True) / phase_s(plain, phase, True), "ratio"]
        print(f"traced fingerprints {'DIFFER FROM' if fp_differ else 'equal'} the untraced one; "
              f"counts {'DIFFER' if count_differ else 'repeat'} across two traced runs; "
              f"overhead {layer['trace.overhead'][0]:.2f}x; "
              f"other.self_s {layer['other.self_s'][0]:.3f} of {t['traced_s']:.3f} s traced")
        print("top self time (span, calls, self s):")
        for name, calls, self_s in t["spans"][:12]:
            print(f"  {name:48s} {calls:>9d} {self_s:9.3f}")
        wanted = bench["per_layer"]
        values = {name: value for name, (value, _unit) in layer.items()}
    else:
        wanted = bench["end_to_end"]
        values = end_to_end(by_mode, simulation, corrected=True)
        raw = end_to_end(by_mode, simulation, corrected=False)
        counts = ", ".join(f"{len(v)} {k} ({sum(r['wall_s'] for r in v):.1f} s)"
                           for k, v in by_mode.items() if v)
        print(f"workers: {counts}; {RPC_REQUESTS} requests per rpc worker; "
              f"measured for {time.monotonic() - start:.1f} s")
        print(f"  {'metric':22s} {'value':>14s} {'raw':>14s} unit"
              "  (raw: wall s, uncorrected CPU ms)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if not args.trace:
            print(f"  {m['name']:22s} {values[m['name']]:14.4f} {raw[m['name']]:14.4f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
