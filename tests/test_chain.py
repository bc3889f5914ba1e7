"""Chain storage, reachability queries, forks, and sync diffs."""

import random

import pytest

from chaingen import random_chain
from layerdag.chain import Chain
from layerdag.errors import (
    DuplicateEvent,
    InvalidLamport,
    MissingRef,
    RefShapeViolation,
    UnknownEvent,
)
from layerdag.events import make_event, make_leaf, new_event


def dfs_reachability(chain):
    """Brute-force ancestor oracle: reach[x] = everything below x."""
    reach = {}

    def visit(eid):
        if eid in reach:
            return reach[eid]
        below = set()
        for r in chain.get(eid).refs:
            below.add(r)
            below |= visit(r)
        reach[eid] = below
        return below

    for eid in chain.events:
        visit(eid)
    return reach


def two_branch_fork(chain, creator, base, peers=()):
    """Insert two rival children of ``base`` and return them."""
    fork_a = make_event(creator, base, tuple(peers), payload=b"a")
    fork_b = make_event(creator, base, tuple(peers), payload=b"b")
    chain.insert(fork_a)
    chain.insert(fork_b)
    return fork_a, fork_b


# -- validation ---------------------------------------------------------


def test_duplicate_insert_rejected():
    chain = Chain()
    leaf = make_leaf(0)
    chain.insert(leaf)
    with pytest.raises(DuplicateEvent):
        chain.insert(leaf)


def test_missing_ref_rejected():
    chain = Chain()
    ghost = make_leaf(9)
    orphan = make_event(0, ghost, ())
    with pytest.raises(MissingRef):
        chain.insert(orphan)


def test_wrong_lamport_rejected():
    chain = Chain()
    leaf = make_leaf(0)
    chain.insert(leaf)
    bad = new_event(0, leaf.id, (), 5, b"", 1)
    with pytest.raises(InvalidLamport):
        chain.insert(bad)


def test_self_ref_other_creator_rejected():
    chain = Chain()
    a, b = make_leaf(0), make_leaf(1)
    chain.insert(a)
    chain.insert(b)
    bad = make_event(0, b, ())  # self ref points at creator 1's event
    with pytest.raises(RefShapeViolation):
        chain.insert(bad)


def test_unknown_event_query():
    chain = Chain()
    chain.insert(make_leaf(0))
    with pytest.raises(UnknownEvent):
        chain.happened_before(make_leaf(7).id, make_leaf(0).id)


# -- reachability against the DFS oracle --------------------------------


def test_happened_before_matches_dfs_oracle():
    rng = random.Random("chain-oracle")
    for trial in range(8):
        chain = random_chain(rng, rng.randint(3, 6), 25)
        reach = dfs_reachability(chain)
        ids = list(chain.events)
        for x in ids:
            for y in ids:
                expect = x in reach[y]
                assert chain.happened_before(x, y) == expect


def test_concurrent_matches_pairwise_oracle():
    rng = random.Random("concurrent")
    chain = random_chain(rng, 4, 30)
    reach = dfs_reachability(chain)
    ids = list(chain.events)
    for x in ids:
        for y in ids:
            expect = x != y and x not in reach[y] and y not in reach[x]
            assert chain.concurrent(x, y) == expect


def test_subgraph_under_matches_closure_oracle():
    rng = random.Random("subgraph")
    chain = random_chain(rng, 5, 40)
    reach = dfs_reachability(chain)
    for eid in chain.events:
        assert chain.subgraph_under(eid) == reach[eid] | {eid}


def test_self_ancestor_follows_self_chain_only():
    chain = Chain()
    a0, b0 = make_leaf(0), make_leaf(1)
    chain.insert(a0)
    chain.insert(b0)
    a1 = make_event(0, a0, (b0,))
    chain.insert(a1)
    assert chain.self_ancestor(a0.id, a1.id)
    assert not chain.self_ancestor(b0.id, a1.id)
    assert chain.happened_before(b0.id, a1.id)


def test_top_events_are_self_chain_heads():
    rng = random.Random("tops")
    chain = random_chain(rng, 4, 30)
    extended = {e.self_ref for e in chain.in_insertion_order() if e.self_ref}
    for creator, top in chain.top_events.items():
        assert chain.get(top).creator == creator
        assert top not in extended  # no event builds on top of it


# -- forks ---------------------------------------------------------------


def bruteforce_fork_pairs(chain):
    """Every id-ordered pair of same-creator events, neither a self-ancestor of the other."""
    expect = set()
    ids = list(chain.events)
    for x in ids:
        for y in ids:
            if x >= y:
                continue
            ex, ey = chain.get(x), chain.get(y)
            if ex.creator != ey.creator:
                continue
            if chain.self_ancestor(x, y) or chain.self_ancestor(y, x):
                continue
            expect.add((x, y))
    return expect


def test_detect_forks_matches_bruteforce_scan():
    rng = random.Random("forks")
    chain = random_chain(rng, 4, 20)
    base = chain.get(chain.top_event(2))
    two_branch_fork(chain, 2, base)
    assert set(chain.detect_forks()) == bruteforce_fork_pairs(chain)


@pytest.mark.parametrize(
    "leaves,branches",
    [(2, 2), (1, 3)],
    ids=["equivocator-two-leaves", "forker-three-branches"],
)
def test_insert_reports_each_fork_pair_once(leaves, branches):
    # creator 0 grows its branches in turns, each event citing creator 1's
    # latest event, which in turn cites one of the branch tips
    chain = Chain()
    reported = []
    peer = make_leaf(1)
    reported += chain.insert(peer)
    tips = []
    for b in range(leaves):
        leaf = new_event(0, None, (), 0, b"leaf:%d" % b, 0)
        reported += chain.insert(leaf)
        tips.append(leaf)
    tips += [tips[0]] * (branches - leaves)
    for step in range(6):
        for b in range(branches):
            tips[b] = make_event(0, tips[b], (peer,), payload=b"%d:%d" % (b, step))
            reported += chain.insert(tips[b])
        peer = make_event(1, peer, (tips[step % branches],), payload=b"p%d" % step)
        reported += chain.insert(peer)
    pairs = chain.detect_forks()
    assert set(pairs) == bruteforce_fork_pairs(chain)
    assert len(set(pairs)) == len(pairs)
    assert sorted(reported) == pairs
    later = {max(p, key=lambda x: chain.get(x).sort_key()) for p in pairs}
    assert chain.fork_victims() == later


def test_fork_victims_pick_later_sort_key():
    chain = Chain()
    leaf = make_leaf(0)
    chain.insert(leaf)
    fa, fb = two_branch_fork(chain, 0, leaf)
    later = max(fa, fb, key=lambda e: e.sort_key())
    assert chain.fork_victims() == {later.id}


def test_fork_detected_on_deep_branches():
    # extending an already forked chain keeps producing pairs
    chain = Chain()
    leaf = make_leaf(0)
    chain.insert(leaf)
    fa, fb = two_branch_fork(chain, 0, leaf)
    fa2 = make_event(0, fa, (), payload=b"a2")
    chain.insert(fa2)
    pairs = set(chain.detect_forks())
    assert tuple(sorted((fa2.id, fb.id))) in pairs


# -- sync helpers ---------------------------------------------------------


def test_diff_events_returns_exactly_whats_missing():
    rng = random.Random("diff")
    chain = random_chain(rng, 4, 40)
    partial = Chain()
    blocks = list(chain.in_insertion_order())
    for e in blocks[:25]:
        partial.insert(e)
    diff = chain.diff_events(partial.known_map())
    assert {e.id for e in diff} >= {e.id for e in blocks[25:]}
    # causal: every ref of a diff event is either known or earlier in diff
    seen = set(partial.events)
    for e in diff:
        assert all(r in seen for r in e.refs)
        seen.add(e.id)


def test_closure_of_is_ancestor_closed_and_ordered():
    rng = random.Random("closure")
    chain = random_chain(rng, 4, 30)
    top = chain.top_event(1)
    blocks = chain.closure_of([top])
    got = {e.id for e in blocks}
    assert got == chain.subgraph_under(top)
    seen = set()
    for e in blocks:
        assert all(r in seen for r in e.refs)
        seen.add(e.id)


def test_closure_of_limited_truncates_depth():
    chain = Chain()
    tip = make_leaf(0)
    chain.insert(tip)
    for i in range(40):
        tip = make_event(0, tip, (), payload=b"%d" % i)
        chain.insert(tip)
    partial = chain.closure_of_limited([tip.id], depth=5)
    assert len(partial) == 5
    full = chain.closure_of_limited([tip.id], depth=100)
    assert len(full) == 41


def test_closure_of_limited_prunes_what_the_requester_knows():
    rng = random.Random("pruned-closure")
    for trial in range(20):
        chain = random_chain(rng, rng.randint(3, 6), rng.randint(20, 80))
        blocks = list(chain.in_insertion_order())
        # insertion order is causal, so any prefix is ancestor-closed
        sub = Chain()
        for e in blocks[: rng.randint(0, len(blocks))]:
            sub.insert(e)
        wanted = rng.sample([e.id for e in blocks], rng.randint(1, 4))
        for depth in (1, 3, 16):
            full = {e.id for e in chain.closure_of_limited(wanted, depth=depth)}
            pruned = chain.closure_of_limited(
                wanted, depth=depth, known=sub.known_map()
            )
            got = {e.id for e in pruned}
            assert got == (full - set(sub.events)) | set(wanted)
            assert set(wanted) <= got
            assert [e.sort_key() for e in pruned] == sorted(
                e.sort_key() for e in pruned
            )


def test_known_map_counts_per_creator():
    rng = random.Random("known")
    chain = random_chain(rng, 3, 20)
    km = chain.known_map()
    for c, count in km.items():
        assert count == len(
            [e for e in chain.in_insertion_order() if e.creator == c]
        )
