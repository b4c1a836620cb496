"""Outside-in per-layer tracing of the ``chainsim`` package.

``LayerTrace.install`` replaces every public function of every
``chainsim.*`` module, at every binding site, with a timing wrapper: module
attributes (so ``crypto.verify`` is caught as ``ledger.verify`` and
``mempool.verify`` too) and methods on the classes that define them.
Nothing under ``src/`` changes; ``restore`` puts every original back.

Spans are kept in memory as per-name aggregates: calls, self time (the
span's duration minus its child spans) and inclusive time. A few layers
also record counts taken from arguments and results (hooks); hook time is
charged to no span, so it does not inflate any self time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from collections import Counter

KINDS = ("TX_ANNOUNCE", "BLOCK_ANNOUNCE", "GET_BLOCKS", "BLOCKS")
RPC_METHODS = (
    "getBlockByHeight", "getBlockByHash", "getTransactionStatus",
    "getBalance", "getHead", "submitTransaction",
)


def chainsim_modules() -> list:
    import chainsim

    return [
        importlib.import_module(f"chainsim.{info.name}")
        for info in sorted(pkgutil.iter_modules(chainsim.__path__), key=lambda i: i.name)
    ]


def is_public_function(value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and value.__module__.startswith("chainsim.")
        and not value.__name__.startswith("_")
        and not hasattr(value, "__wrapped__")
    )


def span_name(func) -> str:
    return f"{func.__module__.removeprefix('chainsim.')}.{func.__qualname__}"


class LayerTrace:
    def __init__(self):
        self.stats: dict = {}  # span name -> [calls, self_s, total_s]
        self.counts: Counter = Counter()
        self.top_s = 0.0  # time covered by outermost spans
        self.block_costs: list = []  # (height, inclusive s) per adopting on_block
        self.verified: set = set()
        self._stack: list = []  # child-time accumulators of open spans
        self._patches: list = []  # (owner, attribute, original value)
        self.originals: dict = {}  # span name -> unwrapped function, for hooks

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict = {}  # id(original) -> wrapper, one per function

        def wrapped(func):
            if id(func) not in wrappers:
                wrappers[id(func)] = self._wrap(func)
            return wrappers[id(func)]

        for module in chainsim_modules():
            for attr, value in list(vars(module).items()):
                if is_public_function(value):
                    self._patch(module, attr, wrapped(value))
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for name, member in list(vars(value).items()):
                        if name.startswith("_"):
                            continue
                        if isinstance(member, staticmethod) and is_public_function(member.__func__):
                            self._patch(value, name, staticmethod(wrapped(member.__func__)))
                        elif is_public_function(member):
                            self._patch(value, name, wrapped(member))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, func):
        name = span_name(func)
        self.originals[name] = func
        hook = HOOKS.get(name)
        stats, stack, clock = self.stats, self._stack, time.perf_counter
        labelled = name == "node.SimNode.handle"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = f"{name}.{args[1].kind}" if labelled else name
            before = hook.before(self, args) if hook and hook.before else None
            stack.append(0.0)
            start = clock()
            outcome = error = None
            try:
                outcome = func(*args, **kwargs)
                return outcome
            except Exception as e:
                error = e
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                st = stats.get(span)
                if st is None:
                    st = stats[span] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur - child
                st[2] += dur
                if hook:
                    h0 = clock()
                    hook.after(self, args, kwargs, outcome, error, before, dur)
                    dur += clock() - h0
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur

        return wrapper

    # -- report ----------------------------------------------------------------

    def calls(self, *spans) -> int:
        return sum(self.stats.get(s, (0,))[0] for s in spans)

    def self_s(self, *spans) -> float:
        return sum(self.stats.get(s, (0, 0.0))[1] for s in spans)

    def block_cost_growth(self) -> float:
        """Mean on_block time of adopted blocks in the top height quartile
        over the bottom quartile; about 1 means flat cost per block."""
        if len(self.block_costs) < 8:
            return 0.0
        costs = sorted(self.block_costs)
        q = len(costs) // 4
        low = sum(c for _, c in costs[:q]) / q
        high = sum(c for _, c in costs[-q:]) / q
        return high / low


class Hook:
    def __init__(self, after, before=None):
        self.after, self.before = after, before


def _verify(t, args, kwargs, out, err, before, dur):
    t.verified.add((bytes(args[0]), bytes(args[1]), bytes(args[2])))


def _mine(t, args, kwargs, out, err, before, dur):
    start = kwargs.get("start_nonce", args[1] if len(args) > 1 else 0)
    t.counts["consensus.mine.attempts"] += (
        out.pow_nonce - start + 1 if err is None else getattr(err, "attempts", 0)
    )


def _insert(t, args, kwargs, out, err, before, dur):
    t.counts["mempool.insert.rejected"] += err is not None
    t.counts["mempool.size_max"] = max(t.counts["mempool.size_max"], len(args[0]))


def _reinstate(t, args, kwargs, out, err, before, dur):
    t.counts["mempool.reinstate.offered"] += len(args[1])
    t.counts["mempool.reinstate.accepted"] += len(out or ())


def _prune(t, args, kwargs, out, err, before, dur):
    t.counts["mempool.prune.dropped"] += before - len(args[0])


def _send(t, args, kwargs, out, err, before, dur):
    kind, body = args[3], args[4]
    t.counts["netsim.send.dropped"] += out is False
    t.counts[f"netsim.msgs.{kind}"] += 1
    t.counts[f"netsim.bytes.{kind}"] += len(body)


def _step(t, args, kwargs, out, err, before, dur):
    t.counts["netsim.queue_peak"] = max(t.counts["netsim.queue_peak"], before)


def _on_block(t, args, kwargs, out, err, before, dur):
    t.counts[f"node.on_block.{out}"] += 1
    if out == "adopted":
        t.block_costs.append((args[1].height, dur))


def _on_tx(t, args, kwargs, out, err, before, dur):
    t.counts[f"node.on_tx.{(out or 'error').split(':')[0]}"] += 1


HOOKS = {
    "crypto.verify": Hook(_verify),
    "ledger.BlockStore.path_to_genesis": Hook(
        lambda t, a, k, out, err, b, d: t.counts.update({"ledger.path_to_genesis.blocks_walked": len(out or ())})
    ),
    "consensus.mine": Hook(_mine),
    "consensus.fork_choice": Hook(
        lambda t, a, k, out, err, b, d: t.counts.update({"consensus.fork_choice.tips_scanned": len(a[0].tips)})
    ),
    "mempool.Mempool.insert": Hook(_insert),
    "mempool.Mempool.reinstate": Hook(_reinstate),
    "mempool.Mempool.prune": Hook(_prune, before=lambda t, a: len(a[0])),
    "kademlia.iterative_lookup": Hook(
        lambda t, a, k, out, err, b, d: t.counts.update({"kademlia.lookup.rounds": out[1] if out else 0})
    ),
    "netsim.Simulator.send": Hook(_send),
    "netsim.Simulator.step": Hook(
        _step, before=lambda t, a: t.originals["netsim.Simulator.pending"](a[0])
    ),
    "netsim.Tracer.write": Hook(
        lambda t, a, k, out, err, b, d: t.counts.update({"netsim.trace.rows": len(a[0].rows)})
    ),
    "node.SimNode.on_block": Hook(_on_block),
    "node.SimNode.on_transaction": Hook(_on_tx),
}

BLOCK_CODEC = (
    "ledger.Block.encode", "ledger.Block.decode", "ledger.Block.to_json",
    "ledger.Block.from_json", "ledger.Transaction.to_json",
    "ledger.Transaction.from_json", "node.encode_blocks", "node.decode_blocks",
)

# metric prefix -> the spans it sums
SPANS = {
    "crypto.verify": ("crypto.verify",),
    "crypto.sign": ("crypto.sign",),
    "ledger.path_to_genesis": ("ledger.BlockStore.path_to_genesis",),
    "ledger.validate_block": ("ledger.validate_block",),
    "ledger.apply_block": ("ledger.apply_block",),
    "ledger.tx_decode": ("ledger.decode_transaction",),
    "consensus.mine": ("consensus.mine",),
    "consensus.fork_choice": ("consensus.fork_choice",),
    "mempool.insert": ("mempool.Mempool.insert",),
    "mempool.select": ("mempool.Mempool.select_for_block",),
    "mempool.prune": ("mempool.Mempool.prune",),
    "kademlia.lookup": ("kademlia.iterative_lookup",),
    "kademlia.observe": ("kademlia.RoutingTable.observe_contact",),
    "kademlia.contacts": ("kademlia.RoutingTable.contacts",),
    "kademlia.find_closest": ("kademlia.RoutingTable.find_closest",),
    "netsim.step": ("netsim.Simulator.step",),
    "netsim.send": ("netsim.Simulator.send",),
}

COUNT_METRICS = (
    "ledger.path_to_genesis.blocks_walked", "consensus.mine.attempts",
    "consensus.fork_choice.tips_scanned", "mempool.insert.rejected",
    "mempool.prune.dropped", "mempool.reinstate.offered",
    "mempool.reinstate.accepted", "mempool.size_max", "kademlia.lookup.rounds",
    "netsim.send.dropped", "netsim.queue_peak", "netsim.trace.rows",
)


def layer_metrics(t: LayerTrace, phase_wall_s: float, shape: dict) -> dict:
    """The per-layer metric set, as (value, unit) pairs by name. The rpc
    metrics and the tracing overhead are filled in by the caller, which
    holds the requests and the plain run (see rpc_metrics)."""
    m: dict = {}
    for prefix, spans in SPANS.items():
        m[f"{prefix}.calls"] = (t.calls(*spans), "count")
        m[f"{prefix}.self_s"] = (t.self_s(*spans), "s")
    m["mempool.reinstate.self_s"] = (t.self_s("mempool.Mempool.reinstate"), "s")
    verifies = t.calls("crypto.verify")
    m["crypto.verify.distinct_ratio"] = (len(t.verified) / verifies if verifies else 0.0, "ratio")
    m["crypto.sha256.calls"] = (t.calls("crypto.hash_bytes"), "count")
    m["ledger.block_codec.calls"] = (t.calls("ledger.Block.encode", "ledger.Block.decode"), "count")
    m["ledger.block_codec.self_s"] = (t.self_s(*BLOCK_CODEC), "s")
    m["ledger.replay.self_s"] = (t.self_s("ledger.replay_blocks"), "s")
    for name in COUNT_METRICS:
        m[name] = (t.counts[name], "count")
    for kind in KINDS:
        m[f"netsim.msgs.{kind}"] = (t.counts[f"netsim.msgs.{kind}"], "count")
        m[f"netsim.bytes.{kind}"] = (t.counts[f"netsim.bytes.{kind}"], "B")
        m[f"node.handle.{kind}.self_s"] = (t.self_s(f"node.SimNode.handle.{kind}"), "s")
    m["netsim.trace.serialize_s"] = (t.self_s("netsim.Tracer.lines"), "s")
    on_block = t.calls("node.SimNode.on_block")
    useful = t.counts["node.on_block.adopted"] + t.counts["node.on_block.side_chain"]
    m["node.on_block.calls"] = (on_block, "count")
    m["node.on_block.useful_ratio"] = (useful / on_block if on_block else 0.0, "ratio")
    on_tx = t.calls("node.SimNode.on_transaction")
    m["node.on_tx.calls"] = (on_tx, "count")
    m["node.on_tx.useful_ratio"] = (t.counts["node.on_tx.relayed"] / on_tx if on_tx else 0.0, "ratio")
    m["node.reorgs"] = (shape.get("reorgs", 0), "count")
    m["node.reorg_depth_max"] = (shape.get("reorg_depth_max", 0), "count")
    m["node.block_cost_growth"] = (t.block_cost_growth(), "ratio")
    m["node.tx_submit.rejected"] = (shape.get("txs_rejected", 0), "count")
    m.update(rpc_metrics({}, {}, 0, 0))
    m["metrics.compute.self_s"] = (t.self_s("metrics.compute_metrics"), "s")
    m["cli.artifacts.self_s"] = (t.self_s("netsim.Tracer.write", "ledger.write_chain_file"), "s")
    m["other.self_s"] = (max(0.0, phase_wall_s - t.top_s), "s")
    m["trace.overhead"] = (0.0, "ratio")
    return m


def rpc_metrics(calls: dict, p99_ms: dict, expected: int, unexpected: int) -> dict:
    """Per-method calls and p99 latency, and the error counts; taken by the
    caller, because RpcDispatcher.METHODS holds the method functions
    themselves."""
    m: dict = {}
    for method in RPC_METHODS:
        m[f"rpc.{method}.calls"] = (calls.get(method, 0), "count")
        m[f"rpc.{method}.p99_ms"] = (p99_ms.get(method, 0.0), "ms")
    m["rpc.errors.expected"] = (expected, "count")
    m["rpc.errors.unexpected"] = (unexpected, "count")
    return m
