"""Golden fingerprints of the five bundled scenarios.

Determinism is the product: for a given scenario and seed, ``trace.jsonl``,
``metrics.csv``, every ``chain_node<i>.jsonl`` and the consensus fields of
``summary.json`` must stay byte-identical across refactors and performance
work. The trace, chain and summary hashes below were computed before the
canonical chain index landed, and the ``metrics.csv`` hashes before gossip
bodies were hashed once per run; a change that alters any of them is a
behaviour change and must say why.
"""

import hashlib
import json

import pytest

from chainsim.cli import BUNDLED, main

SUMMARY_CONSENSUS_FIELDS = (
    "converged", "head_hashes", "heights", "blocks_mined", "canonical_blocks_by_miner",
)

GOLDEN = {
    "churn_restart": {
        "trace": "0aada4453c2cb9564b4f1c2ff65b3e20e14276ae9ce6dabfb322d010407fad2a",
        "summary": "d047a1302d9bfcee57724ba863d197ae55f89109180ef82ed50d37c1900cb53e",
        "metrics": "c11f416d7e571c86b5274220b9fe6cfc3c784fc3482521e225da4073151ae2d8",
        "chains": {
            "chain_node0.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node1.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node2.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node3.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node4.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node5.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node6.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node7.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node8.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
            "chain_node9.jsonl": "0e41a982d0ea4a99376bdd0d0578272b711370f29e5bcab2bd1ee4e5d20f9f08",
        },
    },
    "convergence_20": {
        "trace": "48aca8d4359cbe50a20b3ae26cdb4902b51a03972d8aa5483722ab8db49322a4",
        "summary": "34c6f2332eabb2b993f6ec10a737c99a56cef721d76f43c900721cd2501d36b3",
        "metrics": "f23c56a8fa5ae0030c487ee7a3445a45057a58e92440e911c43392ec40f91e64",
        "chains": {
            "chain_node0.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node1.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node2.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node3.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node4.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node5.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node6.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node7.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node8.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node9.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node10.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node11.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node12.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node13.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node14.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node15.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node16.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node17.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node18.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
            "chain_node19.jsonl": "d8865f44b11d05a5d59e8f8aa374ab6bb53ba1efa9e0d0581b45677af8606d5c",
        },
    },
    "partition_heal": {
        "trace": "8fd935cff11d98bb4e30873d546eaa6392a57352ec3cbf7b9006aa7b1cdea805",
        "summary": "6bdd12d650baa0b375daf99cb3c247381cd9d0bd47ae582b9d597850a75ce8f5",
        "metrics": "f0667ceb8084ed265cfa7307bffd855b58c232a5446e57637a576f7a58961c26",
        "chains": {
            "chain_node0.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node1.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node2.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node3.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node4.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node5.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node6.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node7.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node8.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
            "chain_node9.jsonl": "61927d42abe2a101708dd5c9b10f2f421748a241ca15db4a7c1e3cea2aaf01ca",
        },
    },
    "sybil_shares": {
        "trace": "be09703545b17624ea58a92cc4249dae407e41d2eae783e2197582eab14b838b",
        "summary": "cb38c9f43fcaa238341a0890feff982817216d489150e19b4fc5f264279e3972",
        "metrics": "5950accb5cea1fcac2d989773812e4313b3c0ecced59acc381910666eea5cfb7",
        "chains": {
            "chain_node0.jsonl": "1693da2a8bf9f1f6ca9c0bbfcd94b0f86a5e93ef36facc177c684466bcd50a31",
            "chain_node1.jsonl": "1693da2a8bf9f1f6ca9c0bbfcd94b0f86a5e93ef36facc177c684466bcd50a31",
            "chain_node2.jsonl": "1693da2a8bf9f1f6ca9c0bbfcd94b0f86a5e93ef36facc177c684466bcd50a31",
            "chain_node3.jsonl": "1693da2a8bf9f1f6ca9c0bbfcd94b0f86a5e93ef36facc177c684466bcd50a31",
            "chain_node4.jsonl": "1693da2a8bf9f1f6ca9c0bbfcd94b0f86a5e93ef36facc177c684466bcd50a31",
        },
    },
    "tamper_detect": {
        "trace": "04ca094ac52bed46e4d192d8d899e387f16c77dfca674727f4a6eb2541b9fbf8",
        "summary": "026a91810d70e89ff135f38b902b3a2e49fa01cea8c78fe2f7a3a9934c9c22f0",
        "metrics": "5885b8ed9cf6756767ae31ef876eb74ddddb20b672dfbbe0a5798896e57a0b29",
        "chains": {
            "chain_node0.jsonl": "7e2412fe7aa660896a3092e9b3347a6350a4faa900be197cbcfdf3db33355f6d",
            "chain_node1.jsonl": "7e2412fe7aa660896a3092e9b3347a6350a4faa900be197cbcfdf3db33355f6d",
            "chain_node2.jsonl": "7e2412fe7aa660896a3092e9b3347a6350a4faa900be197cbcfdf3db33355f6d",
        },
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(out) -> dict:
    summary = json.loads((out / "summary.json").read_text())
    consensus = {k: summary[k] for k in SUMMARY_CONSENSUS_FIELDS}
    return {
        "trace": _sha256((out / "trace.jsonl").read_bytes()),
        "summary": _sha256(json.dumps(consensus, sort_keys=True).encode()),
        "metrics": _sha256((out / "metrics.csv").read_bytes()),
        "chains": {p.name: _sha256(p.read_bytes()) for p in out.glob("chain_node*.jsonl")},
    }


def test_every_bundled_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(BUNDLED)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name, tmp_path):
    assert main(["run", name, "--out", str(tmp_path), "--quiet"]) == 0
    assert fingerprint(tmp_path) == GOLDEN[name]
