"""Chain storage, reachability queries, forks, and sync diffs."""

import random

import pytest

from chaingen import causal_shuffle, random_chain
from layerdag import simnet
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
def test_insert_reports_each_fork_member_once(leaves, branches):
    # creator 0 grows its branches in turns, each event citing creator 1's
    # latest event, which in turn cites one of the branch tips
    chain = Chain()
    joined = []
    peer = make_leaf(1)
    joined += chain.insert(peer)
    tips = []
    for b in range(leaves):
        leaf = new_event(0, None, (), 0, b"leaf:%d" % b, 0)
        joined += chain.insert(leaf)
        tips.append(leaf)
    tips += [tips[0]] * (branches - leaves)
    for step in range(6):
        for b in range(branches):
            tips[b] = make_event(0, tips[b], (peer,), payload=b"%d:%d" % (b, step))
            joined += chain.insert(tips[b])
        peer = make_event(1, peer, (tips[step % branches],), payload=b"p%d" % step)
        joined += chain.insert(peer)
    pairs = chain.detect_forks()
    assert set(pairs) == bruteforce_fork_pairs(chain)
    assert len(set(pairs)) == len(pairs)
    # an insert reports its event once it pairs with an event held before
    members = {max(p, key=chain.index_of) for p in pairs}
    assert joined == sorted(members, key=chain.index_of)


def forked_blocks(rng, n, events, branches):
    """Blocks, in causal order, of a random chain whose creator 0 forks.

    Creator 0 extends a random one of its tips, or, while it has fewer
    than ``branches`` tips, sometimes forks off a random one of its
    events or starts a second leaf; the others extend their own tip.
    Each event cites up to two other creators' tips.
    """
    blocks = [make_leaf(c, payload=b"leaf:%d" % c) for c in range(n)]
    tips = {c: [blocks[c]] for c in range(n)}
    mine = [blocks[0]]
    for i in range(events):
        c = rng.randrange(n)
        others = [rng.choice(tips[p]) for p in range(n) if p != c]
        others = tuple(rng.sample(others, rng.randint(0, min(2, len(others)))))
        if c == 0 and len(tips[0]) < branches and rng.random() < 0.3:
            if rng.random() < 0.2:
                e = new_event(0, None, (), 0, b"leaf:0:%d" % i, 0)
            else:
                e = make_event(0, rng.choice(mine), others, payload=b"f:%d" % i)
        else:
            parent = rng.choice(tips[c])
            e = make_event(c, parent, others, payload=b"p:%d" % i)
            tips[c].remove(parent)
        tips[c].append(e)
        if c == 0:
            mine.append(e)
        blocks.append(e)
    return blocks


def late_rival_blocks(rng):
    """A long clean history, then a rival forking off an old event, both growing."""
    blocks = list(random_chain(rng, 3, 60).in_insertion_order())
    old = [e for e in blocks if e.creator == 1]
    branch = [make_event(1, old[len(old) // 3], (), payload=b"late")]
    main = old[-1]
    for i in range(6):
        main = make_event(1, main, (), payload=b"m:%d" % i)
        branch.append(make_event(1, branch[-1], (), payload=b"b:%d" % i))
        blocks += [main, branch[-2]]
    return blocks + [branch[-1]]


def fork_streams():
    for seed in range(6):
        rng = random.Random(f"victims/{seed}")
        yield forked_blocks(rng, rng.randint(2, 4), 80, rng.randint(2, 4))
    rng = random.Random("victims/late")
    yield late_rival_blocks(rng)
    for seed in range(6):
        rng = random.Random(f"victims/shuffled/{seed}")
        chain = Chain()
        for e in forked_blocks(rng, 3, 80, 4):
            chain.insert(e)
        yield causal_shuffle(chain, rng)


def test_fork_members_and_top_event_match_bruteforce_after_every_insert():
    members = 0
    forked_tops = {True: 0, False: 0}
    for blocks in fork_streams():
        chain = Chain()
        for e in blocks:
            joined = chain.insert(e)
            pairs = bruteforce_fork_pairs(chain)
            assert joined == ([e.id] if any(e.id in p for p in pairs) else [])
            members += len(joined)
            # tips are pairwise concurrent, so every tip but the smallest by
            # (lamport, id) is the later member of its pair with it: the
            # canonical tip is a later member only when every tip is one
            later = {max(p, key=lambda x: chain.get(x).sort_key()) for p in pairs}
            mine = chain.by_creator[e.creator]
            parents = {chain.get(x).self_ref for x in mine}
            tips = [x for x in mine if x not in parents]
            top_is_later = chain.top_event(e.creator) in later
            assert top_is_later == all(t in later for t in tips)
            if len(tips) > 1:
                forked_tops[top_is_later] += 1
        assert set(chain.detect_forks()) == pairs
    assert members >= 250
    # with a fork present, both sides of the equivalence occur
    assert forked_tops[True] >= 100 and forked_tops[False] >= 10


def test_forks_in_a_past_match_bruteforce():
    # a creator is forked in a past when two of its events there are
    # neither one a self-ancestor of the other
    forked = 0
    for blocks in fork_streams():
        chain = Chain()
        for e in blocks:
            chain.insert(e)
        below = dfs_reachability(chain)
        for eid in list(chain.events)[::3]:
            mine = {}
            for x in below[eid] | {eid}:
                mine.setdefault(chain.get(x).creator, []).append(x)
            want = {
                c
                for c, xs in mine.items()
                if any(
                    not chain.self_ancestor(x, y) and not chain.self_ancestor(y, x)
                    for i, x in enumerate(xs)
                    for y in xs[:i]
                )
            }
            assert chain.forks_in(chain.ancestor_mask(eid)) == want
            forked += bool(want)
    assert forked >= 100


def earliest_rival(chain, y):
    """Brute force: the first-inserted event of y's creator concurrent with y."""
    return next(
        x
        for x in chain.in_insertion_order()
        if x.creator == chain.get(y).creator
        and x.id != y
        and not chain.self_ancestor(x.id, y)
        and not chain.self_ancestor(y, x.id)
    ).id


@pytest.mark.parametrize("kind", ["forker", "equivocator"])
def test_first_rival_matches_bruteforce(kind):
    # reordered delivery lets a replica receive rivals in either order
    cfg = simnet.SimConfig(
        n=5,
        steps=40,
        seed=f"rival/{kind}",
        delay_model="reorder",
        delay_arg=2,
        byzantine={4: kind},
        w_p=3,
        w_c=12,
    )
    replica = simnet.run(cfg).nodes[0].chain
    chain = Chain()
    joined = []
    for e in replica.in_insertion_order():
        if chain.insert(e):
            assert chain.first_rival(e.id) == earliest_rival(chain, e.id)
            joined.append(e.id)
    # still the same once the members' self-descendants are held
    for y in joined:
        assert chain.first_rival(y) == earliest_rival(chain, y)
    assert len(joined) >= 20


def orphan_blocks(rng):
    """A forked stream with an early leaf no event ever cites.

    Every later past misses that leaf, so the all-ones prefix of every
    later ancestor set stops below it.
    """
    blocks = forked_blocks(rng, 3, 60, 3)
    return blocks[:5] + [make_leaf(9, payload=b"orphan")] + blocks[5:]


def late_fork_blocks(rng):
    """Creator 1 forks off an old event after 20 or more clean events.

    Both of its branches then grow while the others cite either one.
    """
    blocks = list(random_chain(rng, 3, 90).in_insertion_order())
    old = [e for e in blocks if e.creator == 1]
    assert len(old) >= 20
    tips = {c: [e for e in blocks if e.creator == c][-1] for c in (0, 2)}
    branches = [old[-1], old[4]]
    for i in range(10):
        b = i % 2
        branches[b] = make_event(1, branches[b], (tips[0],), payload=b"b:%d" % i)
        blocks.append(branches[b])
        c = rng.choice((0, 2))
        tips[c] = make_event(c, tips[c], (rng.choice(branches),), payload=b"c:%d" % i)
        blocks.append(tips[c])
    return blocks


def index_streams():
    for seed in range(4):
        rng = random.Random(f"index/{seed}")
        yield forked_blocks(rng, rng.randint(2, 4), 50, rng.randint(2, 4))
    rng = random.Random("index/shuffled")
    chain = Chain()
    for e in forked_blocks(rng, 3, 50, 3):
        chain.insert(e)
    yield causal_shuffle(chain, rng)
    yield orphan_blocks(random.Random("index/orphan"))
    yield late_fork_blocks(random.Random("index/late"))


def test_reachability_index_matches_oracles_after_every_insert():
    # oracles built from refs alone: every ancestor, and every self-ancestor
    unforked_pairs = forked_pairs = 0
    for blocks in index_streams():
        chain = Chain()
        below, self_below, joined = {}, {}, []
        for e in blocks:
            if chain.insert(e):
                joined.append(e.id)
            below[e.id] = set().union(*(below[r] | {r} for r in e.refs))
            parent = e.self_ref
            self_below[e.id] = set() if parent is None else self_below[parent] | {parent}
            ids = list(chain.events)
            for y in ids:
                mask = chain.ancestor_mask(y)
                assert chain.ids_from_mask(mask) == below[y] | {y}
                assert chain.subgraph_under(y) == below[y] | {y}
                for x in ids:
                    assert chain.happened_before(x, y) == (x in below[y])
                    assert chain.self_ancestor(x, y) == (x in self_below[y])
                # a creator is forked in y's past when one of its events
                # there is neither its newest there nor a self-ancestor of it
                mine = {}
                for x in below[y] | {y}:
                    mine.setdefault(chain.get(x).creator, []).append(x)
                want = set()
                for c, xs in mine.items():
                    top = max(xs, key=lambda x: chain.get(x).creation_seq)
                    if set(xs) - self_below[top] - {top}:
                        want.add(c)
                assert chain.forks_in(mask) == want
            for y in joined:
                ey = chain.get(y)
                rival = next(
                    x
                    for x in ids
                    if chain.get(x).creator == ey.creator
                    and x != y
                    and x not in self_below[y]
                    and y not in self_below[x]
                )
                assert chain.first_rival(y) == rival
            # count the self_ancestor checks above against e's creator's
            # events, split by whether that creator has forked yet
            parents = {chain.get(x).self_ref for x in ids}
            mine = [x for x in ids if chain.get(x).creator == e.creator]
            if sum(x not in parents for x in mine) > 1:
                forked_pairs += len(mine) ** 2
            else:
                unforked_pairs += len(mine) ** 2
    assert unforked_pairs >= 50_000 and forked_pairs >= 20_000


@pytest.mark.parametrize("steps", [150, 600])
def test_stored_ancestor_index_stays_narrow_on_honest_runs(steps):
    # an honest past holds everything inserted up to a recent point, so
    # the bits stored above each all-ones prefix do not grow with history
    cfg = simnet.SimConfig(
        n=5, steps=steps, seed="narrow", delay_model="rand", delay_arg=1
    )
    for node in simnet.run(cfg).nodes.values():
        assert len(node.chain) >= steps
        assert max(rest.bit_length() for rest in node.chain._rest) < 64


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


def filtered_diff(chain, remote):
    """Every event at or past the remote's per-creator count, by scan."""
    out = [
        e
        for e in chain.events.values()
        if e.creation_seq >= remote.get(e.creator, 0)
    ]
    return sorted(out, key=lambda e: e.sort_key())


def test_diff_events_matches_the_filter_over_every_event():
    chain = Chain()
    leaves = [make_leaf(c) for c in range(3)]
    for leaf in leaves:
        chain.insert(leaf)
    # creator 0 forks at seq 1, and one branch goes on to seq 3
    fa, fb = two_branch_fork(chain, 0, leaves[0], (leaves[1],))
    fa2 = make_event(0, fa, (leaves[2],), payload=b"a2")
    chain.insert(fa2)
    chain.insert(make_event(0, fa2, (), payload=b"a3"))
    chain.insert(make_event(1, leaves[1], (fb,), payload=b"b1"))
    assert sum(chain.get(x).creation_seq == 1 for x in chain.by_creator[0]) == 2
    remotes = [
        {},  # a remote that has seen no creator
        {0: 1, 1: 1},  # the forked seq and creator 2 unseen
        {0: 2, 1: 0, 2: 1},
        {0: 4, 1: 2, 2: 1},  # at the end of every chain
        {0: 9, 1: 5, 2: 7},  # past the end
        {0: -1, 5: 3},  # a negative count and a creator the chain lacks
    ]
    for remote in remotes:
        got = chain.diff_events(remote)
        assert got == filtered_diff(chain, remote), remote
    rng = random.Random("diff-filter")
    chain = random_chain(rng, 5, 60)
    for _ in range(20):
        remote = {c: rng.randint(0, 15) for c in rng.sample(range(5), 3)}
        assert chain.diff_events(remote) == filtered_diff(chain, remote)


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
