import copy
import cProfile
import io
import json
import pstats

import pytest

from chainsim import ledger
from chainsim.cli import bundled_scenario_path
from chainsim.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    load_scenario_file,
    node_key_seed,
    run_scenario,
)


def tiny_scenario(**overrides):
    obj = {
        "name": "tiny",
        "num_nodes": 3,
        "seed": 1,
        "sim": {
            "latency_min_ms": 5,
            "latency_max_ms": 15,
            "drop_probability": 0.0,
            "block_interval_target_ms": 500,
            "difficulty_bits": 4,
            "sync_interval_ms": 1000,
        },
        "miners": {"0": 1.0},
        "duration_ms": 4000,
        "genesis_allocations": [{"seed": "20" * 32, "amount": 1000}],
        "workload": [
            {"time_ms": 500, "node": 1, "sender_seed": "20" * 32,
             "recipient_seed": "21" * 32, "amount": 10, "fee": 2},
            {"time_ms": 900, "node": 2, "sender_seed": "20" * 32,
             "recipient_seed": "21" * 32, "amount": 5, "fee": 1},
        ],
    }
    obj.update(overrides)
    return obj


def test_load_round_trip_fields():
    s = load_scenario(tiny_scenario())
    assert s.name == "tiny" and s.num_nodes == 3
    assert s.sim.rng_seed == 1
    assert s.sim.hash_rate_shares == {0: 1.0}
    assert len(s.workload) == 2
    assert s.workload[0].recipient == s.workload[1].recipient


def test_load_rejects_bad_references():
    with pytest.raises(ScenarioError):
        load_scenario(tiny_scenario(miners={"7": 1.0}))
    with pytest.raises(ScenarioError):
        bad = tiny_scenario()
        bad["workload"][0]["node"] = 9
        load_scenario(bad)
    with pytest.raises(ScenarioError):
        load_scenario({"name": "x"})  # missing required keys


def test_oversized_workload_blob_is_refused_at_load():
    """The store's bound, checked before the run, not when the blob is put."""
    from chainsim.blobstore import MAX_BLOB_BYTES

    obj = tiny_scenario()
    obj["workload"][0]["blob"] = "00" * (MAX_BLOB_BYTES + 1)
    with pytest.raises(ScenarioError, match="blob"):
        load_scenario(obj)


def test_node_key_seed_is_stable_and_distinct():
    assert node_key_seed(1, 0) == node_key_seed(1, 0)
    assert node_key_seed(1, 0) != node_key_seed(1, 1)
    assert node_key_seed(1, 0) != node_key_seed(2, 0)
    assert len(node_key_seed(5, 3)) == 32


def test_run_scenario_converges_and_confirms_workload():
    s = load_scenario(tiny_scenario())
    result = run_scenario(s)
    summary = result.summary()
    assert summary["converged"]
    assert min(summary["heights"]) >= 1
    # both workload txs confirmed: recipient balance reflects them
    recipient = s.workload[0].recipient
    assert result.nodes[0].canonical_state.balance(recipient) == 15


def test_run_scenario_is_deterministic():
    a = run_scenario(load_scenario(tiny_scenario()))
    b = run_scenario(load_scenario(tiny_scenario()))
    assert a.tracer.lines() == b.tracer.lines()
    assert a.head_hashes() == b.head_hashes()


@pytest.mark.parametrize("name", ["partition_heal", "tamper_detect"])
def test_rerunning_one_scenario_object_repeats_the_run(name):
    scenario = load_scenario_file(bundled_scenario_path(name))
    config = copy.deepcopy(scenario.sim)

    def artifacts():
        result = run_scenario(scenario)
        chains = [ledger.chain_file_lines(n.store.canonical_chain())
                  for n in result.nodes if n is not None]
        return result.tracer.lines(), chains, json.dumps(result.summary(), sort_keys=True)

    first = artifacts()
    assert artifacts() == first
    assert scenario.sim == config


def test_seed_changes_the_run():
    a = run_scenario(load_scenario(tiny_scenario(seed=1)))
    b = run_scenario(load_scenario(tiny_scenario(seed=2)))
    assert a.tracer.lines() != b.tracer.lines()


def test_blob_workload_lands_in_store_and_payload(tmp_path):
    import hashlib

    obj = tiny_scenario()
    blob = b"off-chain document"
    obj["workload"] = [
        {"time_ms": 500, "node": 1, "sender_seed": "20" * 32,
         "recipient_seed": "21" * 32, "amount": 10, "fee": 2,
         "blob": blob.hex()},
    ]
    result = run_scenario(load_scenario(obj), blob_root=tmp_path)
    digest = hashlib.sha256(blob).digest()
    assert result.nodes[1].blob_store.get(digest) == blob
    _, _, tx = result.submitted[0]
    assert tx.payload[1:33] == digest
    # the link is confirmed on-chain
    chain = result.nodes[0].store.canonical_chain()
    assert any(tx.tx_hash == t.tx_hash for b in chain for t in b.transactions)


def test_bundled_scenarios_parse():
    from chainsim.cli import BUNDLED, bundled_scenario_path
    from chainsim.scenario import load_scenario_file

    for name in BUNDLED:
        s = load_scenario_file(bundled_scenario_path(name))
        assert s.name == name
        s.validate()


def test_calls_per_delivery_stay_bounded():
    """Python calls (cProfile's count) per delivered message on
    convergence_20: 48.0 before the per-message path was trimmed, 32.9
    after; 32.6 before one record per gossip body carried its decoded
    message and preformatted deliver line, 25.4 after; 24.3 before each
    block object kept its stateless verdict and three frames left the
    per-delivery path, 20.5 after. The count is deterministic, so a
    regrown path shows here."""
    scenario = load_scenario_file(bundled_scenario_path("convergence_20"))
    profile = cProfile.Profile()
    profile.enable()
    result = run_scenario(scenario, io.BytesIO())
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert calls / result.sim.messages_delivered <= 22


def test_convergence_20_checks_each_block_once_and_skips_duplicate_gossip(monkeypatch):
    """On convergence_20: the stateless block checks, and with them
    ``compute_tx_root``, run once per distinct block object validated (each
    mined template hashes its root once more); the live tracer folds every
    deliver row without ``MetricsFold.deliver``, yet its metrics are the
    trace file's; and ``on_transaction`` runs only for a tx its node has not
    relayed, not for every TX_ANNOUNCE."""
    from chainsim import metrics, node
    from chainsim.metrics import compute_metrics

    validated = {}  # id -> block, each held so that no id is reused
    calls, roots, templates, fresh_txs = [], [], [], []
    real_validate, real_root = ledger.validate_block, ledger.compute_tx_root
    real_template, real_on_tx = node.SimNode.build_template, node.SimNode.on_transaction

    def validate(block, parent, state):
        validated[id(block)] = block
        calls.append(1)
        return real_validate(block, parent, state)

    def on_tx(self, tx, *args, **kwargs):
        fresh_txs.append(tx.tx_hash not in self.seen)
        return real_on_tx(self, tx, *args, **kwargs)

    monkeypatch.setattr(ledger, "validate_block", validate)
    monkeypatch.setattr(ledger, "compute_tx_root", lambda txs: roots.append(1) or real_root(txs))
    monkeypatch.setattr(node.SimNode, "build_template",
                        lambda self: templates.append(1) or real_template(self))
    monkeypatch.setattr(node.SimNode, "on_transaction", on_tx)
    monkeypatch.setattr(metrics.MetricsFold, "deliver",
                        lambda *a: pytest.fail("the live tracer called MetricsFold.deliver"))
    result = run_scenario(load_scenario_file(bundled_scenario_path("convergence_20")),
                          io.BytesIO())
    assert len(roots) == len(validated) + len(templates)
    assert 5 * len(validated) < len(calls)  # most validations reuse a kept verdict
    monkeypatch.undo()
    rows = [json.loads(line) for line in result.tracer.lines()]
    announces = sum(r["type"] == "deliver" and r["kind"] == "TX_ANNOUNCE" for r in rows)
    assert all(fresh_txs) and 0 < len(fresh_txs) < announces // 4
    assert result.tracer.fold.metrics() == compute_metrics(rows)
