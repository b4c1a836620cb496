"""Command-line entry point: run scenarios, manage keys, inspect and
verify chain files, and serve JSON-RPC for a single node.

Exit codes: 0 success, 1 runtime invariant breach, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import ledger, metrics, rpc
from .crypto import address_from_public_key, generate_keypair
from .ledger import ChainError, chain_file_lines, decode_chain_lines
from .netsim import SimConfig, Simulator
from .scenario import ScenarioError, load_scenario_file, node_key_seed, run_scenario

BUNDLED = ["convergence_20", "partition_heal", "sybil_shares", "churn_restart", "tamper_detect"]


def bundled_scenario_path(name: str) -> Path:
    ref = resources.files("chainsim").joinpath(f"scenarios/{name}.json")
    with resources.as_file(ref) as p:
        return Path(p)


def _resolve_scenario(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    if arg in BUNDLED:
        return bundled_scenario_path(arg)
    stem = arg.removesuffix(".json")
    if stem in BUNDLED:
        return bundled_scenario_path(stem)
    raise ScenarioError(f"scenario not found: {arg}")


def cmd_run(args) -> int:
    try:
        path = _resolve_scenario(args.scenario)
        scenario = load_scenario_file(path)
        if args.seed is not None:
            scenario.sim.rng_seed = args.seed
            scenario.validate()
    except ScenarioError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file, or a path under one
        print(f"config error: --out: {e}", file=sys.stderr)
        return 2
    # the trace streams under a partial name, so a run that raises leaves no
    # trace.jsonl that reads like a finished one
    partial = out / "trace.jsonl.partial"
    with open(partial, "wb") as sink:
        result = run_scenario(scenario, sink, blob_root=out / "blobs")
    partial.replace(out / "trace.jsonl")
    rows = result.tracer.fold.metrics()
    (out / "metrics.csv").write_bytes(metrics.metrics_csv(rows))
    for i, node in enumerate(result.nodes):
        if node is not None:
            lines = chain_file_lines(node.store.canonical_chain())
            with open(out / f"chain_node{i}.jsonl", "wb") as f:
                f.writelines(ln + b"\n" for ln in lines)  # no joined copy of the file
    summary = result.summary()
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    # runtime invariant: every live node's canonical chain must replay clean;
    # a chain equal, block for block, to one already replayed clean replays
    # the same, so each distinct chain is replayed once
    clean = []
    for i, node in enumerate(result.nodes):
        if node is None:
            continue
        chain = node.store.canonical_chain()
        if chain in clean:
            continue
        try:
            for _ in ledger.replay_blocks(chain, ledger.AccountState()):
                pass
        except ChainError as e:
            print(f"invariant breach: node {i} chain invalid at height {e.height} ({e.code})",
                  file=sys.stderr)
            return 1
        clean.append(chain)

    if not args.quiet:
        print(f"scenario {scenario.name}: converged={summary['converged']} "
              f"heights={sorted(set(summary['heights']))} "
              f"mined={summary['blocks_mined']}")
    return 0


def cmd_keygen(args) -> int:
    try:
        kp = generate_keypair(ledger._hex(args.seed, 32))  # spelled as in chain files
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    print(f"public_key: {kp.public_key.hex()}")
    print(f"address:    {address_from_public_key(kp.public_key).hex()}")
    return 0


def _chain_file_command(command):
    """``command(args, lines)`` as a command on the lines of
    ``args.chain_file``, read one at a time as the command takes them
    (``ledger.stream_chain_lines``). An unreadable or empty file is a
    config error (exit 2) before the command runs; a ChainError (every bad
    line raises one) prints ``FAIL at height N: <code>`` (exit 1)."""

    def run(args) -> int:
        try:
            lines = ledger.stream_chain_lines(args.chain_file)
        except (OSError, ValueError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        try:
            return command(args, lines)
        except ChainError as e:
            print(f"FAIL at height {e.height}: {e.code}")
            return 1

    return run


@_chain_file_command
def cmd_inspect(args, lines) -> int:
    blocks = decode_chain_lines(lines)
    head = blocks[-1]
    total_txs = sum(len(b.transactions) for b in blocks)
    print(f"blocks:    {len(blocks)} (height 0..{head.height})")
    print(f"head hash: {head.block_hash.hex()}")
    print(f"txs:       {total_txs}")
    for b in blocks:
        print(f"  h={b.height} hash={b.block_hash.hex()[:16]}.. txs={len(b.transactions)} "
              f"miner={b.miner.hex()[:12]}..")
    return 0


@_chain_file_command
def cmd_verify(args, lines) -> int:
    """Each line is decoded just before its block is validated, and only a
    block and its parent are held: the lowest failing height is reported,
    whatever mix of faults the file holds."""
    state = ledger.AccountState()
    blocks = sum(1 for _ in ledger.replay_blocks(ledger.chain_blocks(lines), state))
    print(f"ok: {blocks} blocks, supply {state.total_supply()}")
    return 0


@_chain_file_command
def cmd_serve_rpc(args, lines) -> int:
    from .node import SimNode

    try:
        seed = ledger._hex(args.seed_hex, 32) if args.seed_hex else node_key_seed(0, 0)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    sim = Simulator(SimConfig(), 1)  # a lone node: no peers to send to
    # the node decodes and validates every line, genesis included, as `verify` does
    node = SimNode(sim, 0, seed, None, persisted_lines=lines)
    sim.attach(0, node)
    try:
        server = rpc.serve(node, port=args.port)
    except OSError as e:  # e.g. the port is in use
        print(f"config error: --port {args.port}: {e}", file=sys.stderr)
        return 2
    try:
        if not args.quiet:
            host, port = server.server_address
            print(f"serving JSON-RPC on http://{host}:{port} "
                  f"(head height {node.head().height})", flush=True)
        server.thread.join()  # the server's one loop, until Ctrl-C
    except KeyboardInterrupt:
        server.shutdown()
    server.server_close()
    return 0


def tcp_port(text: str) -> int:
    """``--port``: a TCP port, refused while parsing when outside 0..65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"config error: port {value} is outside 0..65535")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario", help="scenario path or bundled name")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_key = sub.add_parser("keygen", help="derive a keypair from a 32-byte hex seed")
    p_key.add_argument("seed")
    p_key.set_defaults(func=cmd_keygen)

    p_ins = sub.add_parser("inspect", help="summarize a chain file")
    p_ins.add_argument("chain_file")
    p_ins.set_defaults(func=cmd_inspect)

    p_ver = sub.add_parser("verify", help="replay-verify a chain file")
    p_ver.add_argument("chain_file")
    p_ver.set_defaults(func=cmd_verify)

    p_srv = sub.add_parser("serve-rpc", help="serve one node over JSON-RPC")
    p_srv.add_argument("chain_file")
    p_srv.add_argument("--port", type=tcp_port, default=8545)
    p_srv.add_argument("--seed", dest="seed_hex", default=None,
                       help="node key seed (32-byte hex)")
    p_srv.add_argument("--quiet", action="store_true")
    p_srv.set_defaults(func=cmd_serve_rpc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
