import random

import pytest
from hypothesis import given, strategies as st

from chainsim.crypto import hash_bytes
from chainsim.kademlia import (
    Contact,
    LookupFailed,
    RoutingTable,
    bucket_index,
    iterative_lookup,
    xor_distance,
)


def nid(i: int) -> bytes:
    return hash_bytes(b"kad" + i.to_bytes(8, "big"))[:20]


ids = st.binary(min_size=20, max_size=20)


# -- metric ---------------------------------------------------------------

@given(ids, ids, ids)
def test_xor_metric_axioms(a, b, c):
    assert xor_distance(a, a) == 0
    assert xor_distance(a, b) == xor_distance(b, a)
    # XOR triangle relation: d(a,c) = d(a,b) XOR d(b,c) <= d(a,b) + d(b,c)
    assert xor_distance(a, c) == xor_distance(a, b) ^ xor_distance(b, c)
    assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)


@given(ids, ids)
def test_bucket_index_bounds_distance(a, b):
    if a == b:
        return
    i = bucket_index(a, b)
    assert 0 <= i < 160
    assert 2**i <= xor_distance(a, b) < 2 ** (i + 1)


def test_unidirectional_distance():
    # for a fixed target, distances from all other points are distinct
    target = nid(0)
    dists = [xor_distance(nid(i), target) for i in range(1, 500)]
    assert len(set(dists)) == len(dists)


# -- routing table ----------------------------------------------------------

def test_table_never_stores_owner():
    t = RoutingTable(nid(0))
    t.observe_contact(Contact(nid(0), 0))
    assert len(t) == 0


def test_observe_moves_known_contact_to_fresh_end():
    t = RoutingTable(nid(0), k=4)
    owner = nid(0)
    # find several ids landing in one bucket
    bucket_members = []
    i = 1
    while len(bucket_members) < 3:
        if bucket_index(owner, nid(i)) == 159:
            bucket_members.append(nid(i))
        i += 1
    for m in bucket_members:
        t.observe_contact(Contact(m, 0))
    t.observe_contact(Contact(bucket_members[0], 0))
    bucket = t.buckets[159]
    assert bucket[-1].node_id == bucket_members[0]
    assert [c.node_id for c in bucket] == bucket_members[1:] + bucket_members[:1]
    t.audit()


def _fill_bucket(t, owner, idx, k):
    members = []
    i = 1
    while len(members) < k:
        cand = nid(1000 + i)
        if bucket_index(owner, cand) == idx:
            members.append(cand)
            t.observe_contact(Contact(cand, i))
        i += 1
    return members


def test_full_bucket_keeps_live_stalest():
    owner = nid(0)
    t = RoutingTable(owner, k=3)
    members = _fill_bucket(t, owner, 159, 3)
    newcomer = None
    i = 0
    while newcomer is None:
        cand = nid(5000 + i)
        if bucket_index(owner, cand) == 159 and cand not in members:
            newcomer = cand
        i += 1
    pinged = []
    t.observe_contact(Contact(newcomer, 99), ping=lambda c: pinged.append(c) or True)
    assert [c.node_id for c in pinged] == [members[0]]
    # live stalest kept, newcomer dropped
    assert newcomer not in [c.node_id for c in t.contacts()]
    assert t.buckets[159][-1].node_id == members[0]  # refreshed to MRS end
    t.audit()


def test_full_bucket_evicts_dead_stalest():
    owner = nid(0)
    t = RoutingTable(owner, k=3)
    members = _fill_bucket(t, owner, 159, 3)
    newcomer = None
    i = 0
    while newcomer is None:
        cand = nid(6000 + i)
        if bucket_index(owner, cand) == 159 and cand not in members:
            newcomer = cand
        i += 1
    t.observe_contact(Contact(newcomer, 99), ping=lambda c: False)
    known = [c.node_id for c in t.contacts()]
    assert members[0] not in known
    assert newcomer in known
    t.audit()


def test_find_closest_matches_brute_force():
    rng = random.Random(4)
    owner = nid(0)
    t = RoutingTable(owner, k=8)
    pop = [nid(i) for i in range(1, 300)]
    for p in pop:
        t.observe_contact(Contact(p, 0))
    known = [c.node_id for c in t.contacts()]
    for _ in range(50):
        target = rng.getrandbits(160).to_bytes(20, "big")
        got = [c.node_id for c in t.find_closest(target, 8)]
        want = sorted(known, key=lambda n: xor_distance(n, target))[:8]
        assert got == want


POOL = [nid(i) for i in range(1, 13)]  # four each in buckets 159 and 158: k=2 fills them


@given(st.lists(
    st.tuples(
        st.integers(0, len(POOL)),  # len(POOL) observes the owner: a no-op
        st.sampled_from([True, False, None]),  # stalest alive, dead, no ping
        st.booleans(),  # look up the closest contacts afterwards
    ),
    max_size=40,
))
def test_contacts_follow_every_bucket_change(ops):
    owner = nid(0)
    t = RoutingTable(owner, k=2)
    for pick, alive, probe in ops:
        node_id = owner if pick == len(POOL) else POOL[pick]
        ping = None if alive is None else (lambda c, alive=alive: alive)
        t.observe_contact(Contact(node_id, pick), ping=ping)
        assert list(t.contacts()) == [c for b in t.buckets for c in b]
        if probe:
            before = t.contacts()
            t.find_closest(POOL[pick % len(POOL)], 3)
            assert t.contacts() is before
            assert list(before) == [c for b in t.buckets for c in b]
    t.audit()


# -- iterative lookup ------------------------------------------------------

def _make_overlay(n, rng_seed=0, k=8):
    """Fully-seeded overlay: every node's table observes every other node."""
    idlist = [nid(i) for i in range(n)]
    tables = {}
    for i, me in enumerate(idlist):
        t = RoutingTable(me, k=k)
        for j, other in enumerate(idlist):
            if j != i:
                t.observe_contact(Contact(other, j))
        tables[me] = t
    return idlist, tables


def test_lookup_converges_to_global_k_closest():
    idlist, tables = _make_overlay(64)

    def query(contact, target):
        return tables[contact.node_id].find_closest(target, 8)

    rng = random.Random(5)
    for _ in range(20):
        target = rng.getrandbits(160).to_bytes(20, "big")
        start = tables[idlist[rng.randrange(64)]]
        found, rounds = iterative_lookup(start, target, query)
        got = [c.node_id for c in found]
        want = sorted(
            (n for n in idlist if n != start.owner),
            key=lambda n: xor_distance(n, target),
        )[:8]
        # every global closest reachable from the start set must be found
        assert got[0] == want[0]
        assert set(got) <= set(idlist)
        assert rounds >= 1


def test_lookup_empty_table_fails():
    t = RoutingTable(nid(0))
    with pytest.raises(LookupFailed):
        iterative_lookup(t, nid(1), lambda c, tgt: [])


def test_lookup_all_peers_dead_fails():
    idlist, tables = _make_overlay(16)
    with pytest.raises(LookupFailed):
        iterative_lookup(tables[idlist[0]], nid(99), lambda c, tgt: None)


def test_lookup_tolerates_partial_failures():
    idlist, tables = _make_overlay(64)
    dead = set(idlist[1:20])

    def query(contact, target):
        if contact.node_id in dead:
            return None
        return tables[contact.node_id].find_closest(target, 8)

    found, rounds = iterative_lookup(tables[idlist[0]], nid(7777), query)
    assert found
    assert all(c.node_id not in dead for c in found)
