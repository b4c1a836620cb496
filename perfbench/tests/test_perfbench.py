"""The benchmark's own checks.

    python3 -m pytest -q perfbench/tests

Takes about a minute: the parametrized test runs every worker mode, and
two traced workers, on a shrunk variant of each workload.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


def snapshot():
    """Every attribute of every chainsim module and of its classes."""
    seen = {}
    for module in layers.chainsim_modules():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    seen[(module.__name__, attr, name)] = member
    return seen


def test_generators_are_byte_stable(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RPC_BLOCKS", 12)
    for name in workloads.WORKLOADS:
        outputs = []
        for run_dir, seed in (("a", 3), ("b", 3), ("c", 4)):
            d = tmp_path / name / run_dir
            d.mkdir(parents=True)
            spec = workloads.generate(name, seed, d)
            data = Path(spec.get("scenario") or spec["chain"]).read_bytes()
            outputs.append((data, spec["key_seeds"]))
        assert outputs[0] == outputs[1], name
        assert outputs[0] != outputs[2], name


def test_every_patched_attribute_is_restored():
    before = snapshot()
    trace = layers.LayerTrace()
    trace.install()
    assert trace._patches
    trace.restore()
    after = snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_no_binding_of_a_wrapped_function_is_missed():
    trace = layers.LayerTrace()
    trace.install()
    try:
        raw = [
            key for key, value in snapshot().items()
            if layers.is_public_function(value)
            or (isinstance(value, staticmethod) and layers.is_public_function(value.__func__))
        ]
        assert raw == []
        import chainsim.crypto, chainsim.ledger, chainsim.mempool  # noqa: E401
        assert chainsim.ledger.verify is chainsim.mempool.verify is chainsim.crypto.verify
        assert isinstance(chainsim.crypto.verify, types.FunctionType)
        assert hasattr(chainsim.crypto.verify, "__wrapped__")
    finally:
        trace.restore()


def test_benchmark_json_names_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = layers.layer_metrics(layers.LayerTrace(), 0.0, {})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_value, unit) in produced.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == list(workloads.WHY.values())


def shrink(spec: dict) -> None:
    """Cut a generated scenario to its first few seconds of simulated time."""
    path = Path(spec["scenario"])
    scenario = json.loads(path.read_text())
    # partition_churn keeps its first partition cycle, before the second window
    end = {"chain_growth": 20_000, "tx_gossip": 6_000, "partition_churn": 44_000}[scenario["name"]]
    scenario["duration_ms"] = end
    scenario["workload"] = [w for w in scenario["workload"] if w["time_ms"] < end]
    pairs = [(c, r) for c, r in zip(scenario.get("crashes", []), scenario.get("restarts", []))
             if r["time_ms"] < end - 5_000]
    scenario["crashes"] = [c for c, _ in pairs]
    scenario["restarts"] = [r for _, r in pairs]
    path.write_text(json.dumps(scenario))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_fingerprint_equals_untraced_and_counts_repeat(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RPC_BLOCKS", 30)
    monkeypatch.setattr(run, "RPC_REQUESTS", 400)
    spec = workloads.generate(name, 5, tmp_path)
    if name in workloads.SIMULATIONS:
        shrink(spec)
    session = run.Session(spec, tmp_path)
    simulation = name in workloads.SIMULATIONS
    lead = "run" if simulation else "rpc"
    for mode in (["run"] if simulation else []) + ["verify", "rpc", "traced", "traced"]:
        session.measure(mode)
    reports = [r for mode in session.by_mode.values() for r in mode]
    assert all(r["failed"] == 0 for r in reports), [r["failures"] for r in reports]
    fingerprint, differ = run.fingerprint_mismatches(reports)
    assert differ == 0
    assert "rpc_replies" in fingerprint
    assert run.count_mismatches(*session.by_mode["traced"]) == []
    plain = session.by_mode[lead][0]
    traced = session.by_mode["traced"][0]
    if simulation:
        assert plain["events"] == traced["events"] > 0
        assert "trace" in fingerprint
    _calls, _p99, expected, unexpected = traced["rpc_metrics"]
    assert unexpected == 0 and expected > 0
    if name == "partition_churn":
        assert plain["shape"]["restarts"] > 0 and plain["shape"]["reorgs"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tx_gossip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout
