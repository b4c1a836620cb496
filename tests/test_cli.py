import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainsim
from chainsim import ledger
from chainsim.cli import main
from chainsim.scenario import MAX_NODES

from conftest import addr, build_chain, parse_trace_lines, signed_tx


def run_cli(*argv):
    return main(list(argv))


def write_chain(path, blocks):
    """A chain file as `chainsim run` writes one."""
    path.write_bytes(b"\n".join(ledger.chain_file_lines(blocks)) + b"\n")


def test_cli_start_up_loads_no_http_server_or_key_serialization():
    """Only `serve-rpc` needs the HTTP server, and no command needs the
    key-serialization module; a fresh interpreter shows what a command loads."""
    src = str(Path(chainsim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, chainsim.cli, chainsim.rpc; print(sorted(m for m in sys.modules if m in "
             "('http.server', 'cryptography.hazmat.primitives.serialization')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_keygen_deterministic(capsys):
    assert run_cli("keygen", "11" * 32) == 0
    first = capsys.readouterr().out
    assert run_cli("keygen", "11" * 32) == 0
    assert capsys.readouterr().out == first
    assert "public_key:" in first and "address:" in first


def test_keygen_bad_seed(capsys):
    assert run_cli("keygen", "abcd") == 2


def test_verify_ok_and_inspect(tmp_path, capsys):
    _, blocks = build_chain(5, allocations=[(addr(1), 100)])
    chain = tmp_path / "chain.jsonl"
    write_chain(chain, blocks)
    assert run_cli("verify", str(chain)) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 6 blocks")
    assert run_cli("inspect", str(chain)) == 0
    out = capsys.readouterr().out
    assert "height 0..5" in out


def test_inspect_prints_each_block_and_holds_no_block_while_printing(tmp_path, capsys,
                                                                   monkeypatch):
    """`inspect`'s output, spelled out from the blocks; when it prints, no
    block it decoded is still held, only a summary of each."""
    import builtins
    import gc

    _, blocks = build_chain(5, allocations=[(addr(1), 100)], tx_plan={
        2: [signed_tx(1, 2, 10, 1, 0), signed_tx(1, 3, 5, 1, 1)], 3: [signed_tx(2, 3, 4, 1, 0)]})
    chain = tmp_path / "chain.jsonl"
    write_chain(chain, blocks)
    expected = "".join(
        [f"blocks:    6 (height 0..5)\nhead hash: {blocks[-1].block_hash.hex()}\ntxs:       3\n"]
        + [f"  h={b.height} hash={b.block_hash.hex()[:16]}.. txs={len(b.transactions)} "
           f"miner={b.miner.hex()[:12]}..\n" for b in blocks])
    held = []  # blocks alive at each print that were not alive before the command
    before = {id(o) for o in gc.get_objects() if type(o) is ledger.Block}
    real_print = builtins.print
    monkeypatch.setattr(builtins, "print", lambda *args, **kwargs: (
        held.append(sum(type(o) is ledger.Block and id(o) not in before
                        for o in gc.get_objects())),
        real_print(*args, **kwargs)))
    assert run_cli("inspect", str(chain)) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out == expected
    assert held == [0] * (3 + len(blocks))


def test_verify_reports_tampered_height(tmp_path, capsys):
    _, blocks = build_chain(5, allocations=[(addr(1), 100)])
    lines = ledger.chain_file_lines(blocks)
    obj = json.loads(lines[3])
    obj["miner"] = "ab" * 20  # steal the block reward
    lines[3] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    chain = tmp_path / "chain.jsonl"
    chain.write_bytes(b"\n".join(lines) + b"\n")
    assert run_cli("verify", str(chain)) == 1
    assert "FAIL at height 3" in capsys.readouterr().out


def test_verify_out_of_range_amount_fails_cleanly(tmp_path, capsys):
    _, blocks = build_chain(
        3, allocations=[(addr(1), 100)], tx_plan={1: [signed_tx(1, 2, 10, 1, 0)]}
    )
    lines = ledger.chain_file_lines(blocks)
    obj = json.loads(lines[1])
    obj["transactions"][0]["amount"] = -1
    lines[1] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    chain = tmp_path / "chain.jsonl"
    chain.write_bytes(b"\n".join(lines) + b"\n")
    assert run_cli("verify", str(chain)) == 1
    assert capsys.readouterr().out == "FAIL at height 1: parse_error\n"


def test_verify_missing_file(capsys):
    assert run_cli("verify", "/nonexistent/chain.jsonl") == 2


def test_run_unknown_scenario_exits_2(tmp_path, capsys):
    assert run_cli("run", "no_such_scenario", "--out", str(tmp_path)) == 2


BAD_SCENARIO_VALUES = {
    "latency_as_string": ("sim", "latency_min_ms", "5"),
    "negative_latency": ("sim", "latency_min_ms", -100),
    "drop_as_string": ("sim", "drop_probability", "0.1"),
    "zero_block_interval": ("sim", "block_interval_target_ms", 0),
    "negative_difficulty": ("sim", "difficulty_bits", -1),
    "share_as_inf_string": ("miners", "0", "inf"),
    "share_as_nan_string": ("miners", "0", "nan"),
    "share_infinite": ("miners", "0", float("inf")),
    # beside node 0's share 1.0, a miner whose mean mining delay overflows a float
    "share_smallest_subnormal": ("miners", "1", 5e-324),
    "share_subnormal": ("miners", "1", 1e-310),
    "share_dwarfing_node_0": ("miners", "1", 1e308),
    "block_interval_beyond_float": ("sim", "block_interval_target_ms", 10 ** 400),
    "num_nodes_as_string": (None, "num_nodes", "3"),
    "fractional_duration": (None, "duration_ms", 14000.5),
    "boolean_seed": (None, "seed", True),
    "miners_as_list": (None, "miners", [1.0]),
    "miner_key_with_leading_zero": ("miners", "00", 0.3),  # beside "0": one node, two shares
    "miner_key_with_space": ("miners", " 1", 0.5),
    "seed_above_i64": (None, "seed", 1 << 63),
    "seed_below_i64": (None, "seed", -(1 << 63) - 1),
}


@pytest.mark.parametrize("section,key,value", BAD_SCENARIO_VALUES.values(),
                         ids=BAD_SCENARIO_VALUES.keys())
def test_run_bad_scenario_value_is_a_config_error(tmp_path, capsys, section, key, value):
    from chainsim.cli import bundled_scenario_path

    obj = json.loads(bundled_scenario_path("tamper_detect").read_text())
    (obj[section] if section else obj)[key] = value
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(obj))
    assert run_cli("run", str(spath), "--out", str(tmp_path / "out"), "--quiet") == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


# (bundled scenario, path to the value, value): an integer must be a JSON
# integer, a key must be known and hex must be lowercase with no separators
BAD_SCENARIO_ENTRIES = {
    "workload_fractional_amount": ("churn_restart", ("workload", 0, "amount"), 3.9),
    "workload_string_time": ("churn_restart", ("workload", 0, "time_ms"), "2000"),
    "workload_fractional_node": ("churn_restart", ("workload", 0, "node"), 0.0),
    "workload_string_fee": ("churn_restart", ("workload", 0, "fee"), "1"),
    "crash_boolean_node": ("churn_restart", ("crashes", 0, "node"), True),
    "restart_fractional_time": ("churn_restart", ("restarts", 0, "time_ms"), 30000.5),
    "partition_string_start": ("partition_heal", ("sim", "partition_schedule", 0, 0), "1000"),
    "partition_fractional_end": ("partition_heal", ("sim", "partition_schedule", 0, 1), 3e4),
    "partition_boolean_member": ("partition_heal", ("sim", "partition_schedule", 0, 2, 1), True),
    "genesis_fractional_amount": ("tamper_detect", ("genesis_allocations", 0, "amount"), 1e4),
    "max_block_txs_string": ("tamper_detect", ("max_block_txs",), "10"),  # an unknown key
    "unknown_top_level_key": ("tamper_detect", ("durration_ms",), 14000),
    "unknown_sim_key": ("tamper_detect", ("sim", "latency_mx_ms"), 10),
    "unknown_workload_key": ("churn_restart", ("workload", 0, "memo"), "rent"),
    "unknown_genesis_key": ("tamper_detect", ("genesis_allocations", 0, "note"), 1),
    "unknown_crash_key": ("churn_restart", ("crashes", 0, "reason"), "power"),
    "unknown_restart_key": ("churn_restart", ("restarts", 0, "reason"), "power"),
    "uppercase_sender_seed": ("churn_restart", ("workload", 0, "sender_seed"), "3A" * 32),
    "spaced_genesis_seed": ("tamper_detect", ("genesis_allocations", 0, "seed"), "40 40"),
    "uppercase_recipient_address": ("churn_restart", ("workload", 0, "recipient_address"),
                                    "AB" * 20),
    "spaced_blob": ("churn_restart", ("workload", 0, "blob"), "ab cd"),
    # an address is exactly 20 bytes
    "recipient_address_19_bytes": ("churn_restart", ("workload", 0, "recipient_address"),
                                   "ab" * 19),
    "genesis_address_21_bytes": ("tamper_detect", ("genesis_allocations", 0, "address"),
                                 "ab" * 21),
    # integers the run packs as u64, and a blob the store refuses
    "genesis_amount_above_u64": ("tamper_detect", ("genesis_allocations", 0, "amount"), 1 << 64),
    "workload_negative_amount": ("churn_restart", ("workload", 0, "amount"), -1),
    "workload_fee_above_u64": ("churn_restart", ("workload", 0, "fee"), 1 << 64),
    "workload_empty_blob": ("churn_restart", ("workload", 0, "blob"), ""),
    # a network too large to build, refused before any node is
    "num_nodes_above_bound": ("tamper_detect", ("num_nodes",), MAX_NODES + 1),
    "num_nodes_10_to_the_12": ("tamper_detect", ("num_nodes",), 10 ** 12),
    "name_as_list": ("tamper_detect", ("name",), [1, 2]),
}


@pytest.mark.parametrize("name,path,value", BAD_SCENARIO_ENTRIES.values(),
                         ids=BAD_SCENARIO_ENTRIES.keys())
def test_run_bad_scenario_entry_is_a_config_error(tmp_path, capsys, name, path, value):
    from chainsim.cli import bundled_scenario_path

    obj = json.loads(bundled_scenario_path(name).read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(obj))
    assert run_cli("run", str(spath), "--out", str(tmp_path / "out"), "--quiet") == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_run_unsealable_difficulty_is_a_config_error(tmp_path, capsys):
    """A difficulty whose blocks would exhaust ``consensus.mine``'s nonce
    budget is refused at load, before anything runs."""
    from chainsim import consensus
    from chainsim.cli import bundled_scenario_path

    obj = json.loads(bundled_scenario_path("tamper_detect").read_text())
    for bits, code in ((consensus.MAX_DIFFICULTY_BITS, 0), (consensus.MAX_DIFFICULTY_BITS + 1, 2),
                       (40, 2)):
        obj["sim"]["difficulty_bits"] = bits
        obj["duration_ms"] = 0  # a bound-difficulty run ends at once, as it mines nothing
        spath = tmp_path / f"d{bits}.json"
        spath.write_text(json.dumps(obj))
        out = tmp_path / f"out{bits}"
        assert run_cli("run", str(spath), "--out", str(out), "--quiet") == code, bits
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: ") and "difficulty_bits" in err
            assert not out.exists()


@pytest.mark.parametrize("seed", [1 << 63, -(1 << 63) - 1])
def test_run_seed_override_out_of_range_is_a_config_error(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert run_cli("run", "tamper_detect", "--out", str(out), "--seed", str(seed)) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
def test_run_out_over_a_file_is_a_config_error(tmp_path, monkeypatch, capsys, under):
    from chainsim import cli

    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("ran"))
    existing = tmp_path / "existing"
    existing.write_text("kept")
    out = existing / "out" if under else existing
    assert run_cli("run", "tamper_detect", "--out", str(out), "--quiet") == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert existing.read_text() == "kept"


def test_run_writes_all_artifacts(tmp_path, capsys):
    scenario = {
        "name": "cli_smoke",
        "num_nodes": 3,
        "seed": 4,
        "sim": {"latency_min_ms": 5, "latency_max_ms": 15,
                "block_interval_target_ms": 500, "difficulty_bits": 4,
                "sync_interval_ms": 1000},
        "miners": {"0": 1.0},
        "duration_ms": 3000,
        "genesis_allocations": [{"seed": "22" * 32, "amount": 100}],
        "workload": [{"time_ms": 400, "node": 1, "sender_seed": "22" * 32,
                      "recipient_seed": "23" * 32, "amount": 7, "fee": 1}],
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run_cli("run", str(spath), "--out", str(out), "--quiet") == 0
    assert (out / "trace.jsonl").is_file()
    assert (out / "metrics.csv").is_file()
    assert (out / "summary.json").is_file()
    for i in range(3):
        chain = out / f"chain_node{i}.jsonl"
        assert chain.is_file()
        assert run_cli("verify", str(chain)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True


@pytest.mark.parametrize("tampered, reported", [((2,), 2), ((1, 3), 1)])
def test_run_exits_1_at_the_first_node_whose_chain_breaks_the_invariant(
        tmp_path, monkeypatch, capsys, tampered, reported):
    """After the run, the stored canonical block at height 1 of each
    ``tampered`` node gets a wrong tx root (an equal copy on each): the
    closing replay reports the lowest such node, and replays each distinct
    chain once (the clean one, then the bad one)."""
    from chainsim import cli

    scenario = {
        "name": "cli_breach",
        "num_nodes": 5,
        "seed": 4,
        "sim": {"latency_min_ms": 5, "latency_max_ms": 15,
                "block_interval_target_ms": 500, "difficulty_bits": 4,
                "sync_interval_ms": 1000},
        "miners": {"0": 1.0},
        "duration_ms": 3000,
        "genesis_allocations": [],
        "workload": [],
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario))
    real_run, real_replay = cli.run_scenario, ledger.replay_blocks
    replayed = []

    def run_and_tamper(*args, **kwargs):
        result = real_run(*args, **kwargs)
        assert len({tuple(node.store.canonical) for node in result.nodes}) == 1
        for i in tampered:
            store = result.nodes[i].store
            key = store.canonical[1]
            store.blocks[key] = dataclasses.replace(store.blocks[key], tx_root=bytes(32))
        replayed.clear()  # the nodes' own replays
        return result

    def replay(blocks, state):
        replayed.append(blocks)
        return real_replay(blocks, state)

    monkeypatch.setattr(cli, "run_scenario", run_and_tamper)
    monkeypatch.setattr(ledger, "replay_blocks", replay)
    assert run_cli("run", str(spath), "--out", str(tmp_path / "out"), "--quiet") == 1
    assert capsys.readouterr().err == (
        f"invariant breach: node {reported} chain invalid at height 1 (bad_tx_root)\n")
    assert len(replayed) == 2 and replayed[0] != replayed[1]


def test_run_metrics_recompute_from_the_trace_file_alone(tmp_path):
    from chainsim.metrics import compute_metrics, metrics_csv

    assert run_cli("run", "partition_heal", "--out", str(tmp_path), "--quiet") == 0
    lines = (tmp_path / "trace.jsonl").read_bytes().splitlines()
    recomputed = metrics_csv(compute_metrics(parse_trace_lines(lines)))
    assert recomputed == (tmp_path / "metrics.csv").read_bytes()
    assert b"blocks_mined" in recomputed


def test_run_that_raises_leaves_no_trace_file(tmp_path, monkeypatch):
    from chainsim.netsim import Tracer

    real_log = Tracer.log

    def log(self, row):
        if row["type"] == "mine":
            raise RuntimeError("fault inside the simulation")
        real_log(self, row)

    monkeypatch.setattr(Tracer, "log", log)
    with pytest.raises(RuntimeError):
        run_cli("run", "partition_heal", "--out", str(tmp_path), "--quiet")
    assert not (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "trace.jsonl.partial").read_bytes().count(b"\n") > 0


def test_run_seed_override_changes_output(tmp_path):
    scenario = {
        "name": "cli_seed",
        "num_nodes": 2,
        "seed": 4,
        "sim": {"latency_min_ms": 5, "latency_max_ms": 15,
                "block_interval_target_ms": 500, "difficulty_bits": 4,
                "sync_interval_ms": 1000},
        "miners": {"0": 1.0},
        "duration_ms": 2000,
        "genesis_allocations": [],
        "workload": [],
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario))
    outs = {}
    for seed in (4, 5):
        out = tmp_path / f"out{seed}"
        assert run_cli("run", str(spath), "--out", str(out),
                       "--seed", str(seed), "--quiet") == 0
        outs[seed] = (out / "trace.jsonl").read_bytes()
    assert outs[4] != outs[5]


def test_serve_rpc_end_to_end(tmp_path):
    import urllib.request

    from chainsim import rpc
    from chainsim.netsim import SimConfig, Simulator
    from chainsim.node import SimNode
    from chainsim.scenario import node_key_seed

    _, blocks = build_chain(4, allocations=[(addr(1), 100)])
    chain = tmp_path / "chain.jsonl"
    write_chain(chain, blocks)
    # exercise the same wiring cmd_serve_rpc uses, with an ephemeral port
    lines = ledger.read_chain_lines(chain)
    sim = Simulator(SimConfig(), 1)
    node = SimNode(sim, 0, node_key_seed(0, 0), blocks[0], persisted_lines=lines)
    sim.attach(0, node)
    server = rpc.start(rpc.bind(port=0), node)
    try:
        host, port = server.server_address
        req = urllib.request.Request(
            f"http://{host}:{port}",
            data=json.dumps({"jsonrpc": "2.0", "id": 1,
                             "method": "chain_getHead"}).encode(),
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            body = json.loads(resp.read())
        assert body["result"]["height"] == 4
    finally:
        server.shutdown()
        server.server_close()


def test_serve_rpc_answers_block_reads_from_canonical_lines_only(tmp_path, monkeypatch):
    """A node booted from a chain file, as `serve-rpc` boots one, answers
    every block read from the file's own lines and encodes no block or
    transaction, whether a line is of a block without transactions, of a
    block with some, or of a genesis with allocations. A node booted from
    a respelled copy of the file encodes each block once and answers with
    the same bytes: it keeps no non-canonical line."""
    from chainsim import rpc
    from chainsim.netsim import SimConfig, Simulator
    from chainsim.node import SimNode
    from chainsim.scenario import node_key_seed

    _, blocks = build_chain(6, allocations=[(addr(1), 100), (addr(2), 50)], tx_plan={
        2: [signed_tx(1, 3, 10, 1, 0), signed_tx(2, 3, 5, 1, 0)],
        4: [signed_tx(1, 2, 7, 1, 1, b"memo")],
    })
    txs = sum(len(block.transactions) for block in blocks)
    assert blocks[0].allocations and txs == 3
    chain, respelled = tmp_path / "chain.jsonl", tmp_path / "respelled.jsonl"
    write_chain(chain, blocks)
    respelled.write_text("".join(
        json.dumps(dict(reversed(json.loads(line).items())), separators=(", ", ": ")) + "\n"
        for line in chain.read_text().splitlines()))
    formats = {"_BLOCK_JSON": [], "_TX_JSON": []}  # the argument tuples of each formatting

    for name, calls in formats.items():
        class CountedLayout(str):
            def __mod__(self, args, calls=calls):
                calls.append(args)
                return str.__mod__(self, args)

        monkeypatch.setattr(ledger, name, CountedLayout(getattr(ledger, name)))
    replies, counts = {}, {}  # path -> (formats at boot, formats of the reads) of each layout
    for path in (chain, respelled):
        for calls in formats.values():
            calls.clear()
        sim = Simulator(SimConfig(), 1)
        node = SimNode(sim, 0, node_key_seed(0, 0), None,
                       persisted_lines=ledger.stream_chain_lines(path))
        sim.attach(0, node)
        booted = {name: len(calls) for name, calls in formats.items()}
        dispatcher = rpc.RpcDispatcher(node)
        replies[path] = [dispatcher.handle_payload(json.dumps(
            {"jsonrpc": "2.0", "id": h, "method": "chain_getBlockByHeight",
             "params": {"height": h}}).encode()) for h in range(len(blocks))]
        counts[path] = {name: (booted[name], len(calls) - booted[name])
                        for name, calls in formats.items()}
    # reading every height of the file's chain formats nothing; the respelled
    # node encoded each block, and so each transaction, once in all
    assert [read for _, read in counts[chain].values()] == [0, 0]
    assert [sum(c) for c in counts[respelled].values()] == [len(blocks), txs]
    assert replies[respelled] == replies[chain]
    for reply, block, line in zip(replies[chain], blocks, chain.read_bytes().splitlines()):
        result = json.loads(reply)["result"]
        assert result == dict(json.loads(line), hash=block.block_hash.hex(), canonical=True)


def test_serve_rpc_runs_one_serve_loop_and_closes_the_server(tmp_path, monkeypatch):
    """`serve-rpc` waits on the loop `rpc.start` started rather than running a
    second one on the same socket; when that loop ends, the command closes the
    server and exits 0."""
    import socketserver
    import threading
    import time

    loops = []  # the server of each serve_forever call
    real_serve_forever = socketserver.BaseServer.serve_forever

    def counted(server, *args, **kwargs):
        loops.append(server)
        return real_serve_forever(server, *args, **kwargs)

    monkeypatch.setattr(socketserver.BaseServer, "serve_forever", counted)
    _, blocks = build_chain(2, allocations=[(addr(1), 100)])
    chain = tmp_path / "chain.jsonl"
    write_chain(chain, blocks)
    codes = []
    command = threading.Thread(
        target=lambda: codes.append(run_cli("serve-rpc", str(chain), "--port", "0", "--quiet")),
        daemon=True,
    )
    command.start()
    deadline = time.monotonic() + 10
    while not loops and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.3)  # room for a second loop to start, were there one
    assert len(loops) == 1
    server = loops[0]
    server.shutdown()
    command.join(timeout=10)
    assert not command.is_alive()
    assert codes == [0]
    assert server.socket.fileno() == -1  # closed


def test_serve_rpc_exits_0_on_ctrl_c(tmp_path):
    import signal

    _, blocks = build_chain(2, allocations=[(addr(1), 100)])
    chain = tmp_path / "chain.jsonl"
    write_chain(chain, blocks)
    src = str(Path(chainsim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # Ctrl-C raises KeyboardInterrupt even where SIGINT is ignored on entry (as
    # in a background job), the way it does in a terminal
    command = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
               "from chainsim.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.Popen(
        [sys.executable, "-c", command, "serve-rpc", str(chain), "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline().startswith("serving JSON-RPC on http://127.0.0.1:")
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
        assert proc.stderr.read() == ""  # no traceback
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _edited_chain(tmp_path, height, edit):
    """A 4-block chain file, one tx at height 1, whose line ``height`` went
    through ``edit``."""
    _, blocks = build_chain(4, allocations=[(addr(1), 100)], difficulty=8,
                            tx_plan={1: [signed_tx(1, 2, 10, 1, 0)]})
    lines = ledger.chain_file_lines(blocks)
    obj = json.loads(lines[height])
    edit(obj)
    lines[height] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    chain = tmp_path / "chain.jsonl"
    chain.write_bytes(b"\n".join(lines) + b"\n")
    return chain


def _run_chain_command(command, chain, monkeypatch):
    """``command`` on ``chain``; `serve-rpc` must never start its server."""
    from chainsim import rpc

    monkeypatch.setattr(rpc, "start", lambda *a, **k: pytest.fail("served a bad chain"))
    extra = ["--port", "0", "--quiet"] if command == "serve-rpc" else []
    return run_cli(command, str(chain), *extra)


def test_serve_rpc_edited_timestamp_fails_cleanly(tmp_path, monkeypatch, capsys):
    chain = _edited_chain(tmp_path, 2, lambda obj: obj.update(timestamp=obj["timestamp"] + 1))
    assert _run_chain_command("serve-rpc", chain, monkeypatch) == 1
    assert capsys.readouterr().out == "FAIL at height 2: bad_pow\n"


def test_serve_rpc_nonzero_genesis_miner_fails_cleanly(tmp_path, monkeypatch, capsys):
    chain = _edited_chain(tmp_path, 0, lambda obj: obj.update(miner="11" * 20))
    assert _run_chain_command("serve-rpc", chain, monkeypatch) == 1
    assert capsys.readouterr().out == "FAIL at height 0: bad_genesis\n"


def test_verify_and_serve_rpc_report_the_lower_of_two_faults(tmp_path, monkeypatch, capsys):
    """Line 2's timestamp edited (valid JSON, but its PoW no longer holds)
    and line 4 unparsable: each line is decoded just before its block is
    validated, so both commands report line 2's own verdict."""
    out = tmp_path / "out"
    assert run_cli("run", "tamper_detect", "--out", str(out), "--quiet") == 0
    lines = (out / "chain_node0.jsonl").read_bytes().splitlines()
    obj = json.loads(lines[2])
    obj["timestamp"] += 1
    lines[2] = ledger.canonical_json(obj)
    alone = tmp_path / "line2.jsonl"
    alone.write_bytes(b"\n".join(lines) + b"\n")
    lines[4] = b"{garbage"
    both = tmp_path / "lines2and4.jsonl"
    both.write_bytes(b"\n".join(lines) + b"\n")
    for chain in (alone, both):
        for command in ("verify", "serve-rpc"):
            assert _run_chain_command(command, chain, monkeypatch) == 1
            assert capsys.readouterr().out == "FAIL at height 2: bad_pow\n"


CHAIN_COMMANDS = ["inspect", "verify", "serve-rpc"]
# (height of the edited line, edit, the line every chain-file command prints)
BAD_CHAIN_LINES = {
    "unparsable_genesis": (0, lambda obj: obj.update(height="0"),
                           "FAIL at height 0: parse_error\n"),
    "unparsable_line_1": (1, lambda obj: obj.update(height="1"),
                          "FAIL at height 1: parse_error\n"),
    "wrong_declared_height": (1, lambda obj: obj.update(height=2),
                              "FAIL at height 1: bad_height\n"),
    # a field rule broken: the decoder refuses the line, as a retyped one
    "short_miner": (1, lambda obj: obj.update(miner="00" * 19),
                    "FAIL at height 1: parse_error\n"),
    "negative_amount": (1, lambda obj: obj["transactions"][0].update(amount=-1),
                        "FAIL at height 1: parse_error\n"),
    "oversized_payload": (1, lambda obj: obj["transactions"][0].update(
        payload="00" * (ledger.MAX_PAYLOAD_BYTES + 1)), "FAIL at height 1: parse_error\n"),
}


@pytest.mark.parametrize("height,edit,fail", BAD_CHAIN_LINES.values(),
                         ids=BAD_CHAIN_LINES.keys())
@pytest.mark.parametrize("command", CHAIN_COMMANDS)
def test_chain_file_commands_agree_on_a_bad_line(tmp_path, monkeypatch, capsys, command,
                                                 height, edit, fail):
    chain = _edited_chain(tmp_path, height, edit)
    assert _run_chain_command(command, chain, monkeypatch) == 1
    assert capsys.readouterr().out == fail


@pytest.mark.parametrize("content", [None, b"", b"\n \n"], ids=["missing", "empty", "blank"])
@pytest.mark.parametrize("command", CHAIN_COMMANDS)
def test_chain_file_commands_refuse_a_missing_or_empty_file(tmp_path, monkeypatch, capsys,
                                                            command, content):
    chain = tmp_path / "chain.jsonl"
    if content is not None:
        chain.write_bytes(content)
    assert _run_chain_command(command, chain, monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")


@pytest.mark.parametrize("edit", [
    lambda obj: obj.update(height="1"),
    lambda obj: obj.update(timestamp=float(obj["timestamp"])),
    lambda obj: obj.update(note="extra"),
], ids=["string_height", "float_timestamp", "unknown_key"])
def test_verify_loosely_typed_line_fails_at_its_height(tmp_path, capsys, edit):
    _, blocks = build_chain(3, allocations=[(addr(1), 100)])
    lines = ledger.chain_file_lines(blocks)
    obj = json.loads(lines[1])
    edit(obj)
    lines[1] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    chain = tmp_path / "chain.jsonl"
    chain.write_bytes(b"\n".join(lines) + b"\n")
    assert run_cli("verify", str(chain)) == 1
    assert capsys.readouterr().out == "FAIL at height 1: parse_error\n"


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_rpc_port_outside_0_to_65535_is_refused_when_parsed(tmp_path, capsys, port):
    with pytest.raises(SystemExit) as e:  # before the chain file is opened
        run_cli("serve-rpc", str(tmp_path / "absent.jsonl"), "--port", port, "--quiet")
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "config error: port" in err and "Traceback" not in err


def test_serve_rpc_port_in_use_is_a_config_error(tmp_path, monkeypatch, capsys):
    import socket

    from chainsim import node

    _, blocks = build_chain(2, allocations=[(addr(1), 100)])
    chain = tmp_path / "chain.jsonl"
    write_chain(chain, blocks)
    # the port is bound before the boot: neither a node nor a decoded line
    monkeypatch.setattr(node, "SimNode", lambda *a, **k: pytest.fail("booted a node"))
    monkeypatch.setattr(ledger.Block, "decode",
                        staticmethod(lambda data: pytest.fail("decoded a chain line")))
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        assert run_cli("serve-rpc", str(chain), "--port", str(port), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --port {port}: ") and "Traceback" not in err


def test_serve_rpc_chain_failing_replay_closes_its_port(tmp_path, monkeypatch, capsys):
    """The port is bound before the node boots; a boot that fails prints its
    FAIL line, exits 1 and closes the socket, so the port binds again."""
    import socket

    from chainsim import rpc

    bound, real_bind = [], rpc.bind
    monkeypatch.setattr(rpc, "bind", lambda *a, **k: bound.append(real_bind(*a, **k)) or bound[-1])
    chain = _edited_chain(tmp_path, 2, lambda obj: obj.update(timestamp=obj["timestamp"] + 1))
    assert _run_chain_command("serve-rpc", chain, monkeypatch) == 1
    assert capsys.readouterr().out == "FAIL at height 2: bad_pow\n"
    (server,) = bound
    assert server.socket.fileno() == -1  # closed
    with socket.socket() as again:
        again.bind(server.server_address)


@pytest.mark.parametrize("seed", ["zz", "00", "11 " * 32, "AB" * 32],
                         ids=["not_hex", "one_byte", "spaced_hex", "uppercase_hex"])
def test_serve_rpc_bad_seed_is_a_config_error(tmp_path, monkeypatch, capsys, seed):
    from chainsim import rpc

    monkeypatch.setattr(rpc, "start", lambda *a, **k: pytest.fail("served with a bad seed"))
    _, blocks = build_chain(2, allocations=[(addr(1), 100)])
    chain = tmp_path / "chain.jsonl"
    write_chain(chain, blocks)
    assert run_cli("serve-rpc", str(chain), "--port", "0", "--quiet", "--seed", seed) == 2
    assert capsys.readouterr().err.startswith("config error: ")
