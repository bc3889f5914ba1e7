"""Clotho decisions, Atropos ordering, and final-order emission."""

import random

import pytest

from layerdag.chain import Chain
from layerdag.errors import ConsensusInvariantError, UnlayeredVertex
from layerdag.events import make_event, make_leaf
from chaingen import causal_shuffle, random_chain
from layerdag.finality import (
    Election,
    FinalOrder,
    check_prefix,
    select_atropos,
    select_clothos,
    sort_vertex_key,
    topo_sort_finalize,
)
from layerdag.layering import layer_lpl
from layerdag.node import NodeState
from layerdag.roots import build_root_graph, quorum

from test_chain import forked_blocks
from test_roots import round_robin_chain, stream_into_engine


def pipeline(chain, n):
    layering = layer_lpl(chain)
    rg = build_root_graph(chain, layering, n)
    clothos = select_clothos(chain, rg, n)
    return layering, rg, clothos


def test_round_robin_frame_one_roots_all_become_clothos():
    chain = round_robin_chain(4, 10)
    layering, rg, clothos = pipeline(chain, 4)
    assert rg.max_frame >= 5
    for rid in rg.frames[1]:
        assert rid in clothos
        rec = clothos[rid]
        assert rec.frame == 1
        assert len(rec.witnesses) >= quorum(4)


def test_clotho_witnesses_actually_reach_the_root():
    chain = round_robin_chain(5, 8)
    layering, rg, clothos = pipeline(chain, 5)
    assert clothos
    for rid, rec in clothos.items():
        nominator = rg.roots[rec.nominator].frame
        assert nominator >= rec.frame + 2
        for w in rec.witnesses:
            assert chain.happened_before(rid, w)
            assert chain.happened_before(w, rec.nominator)
            assert rg.roots[w].frame == nominator - 1


def test_underreached_root_is_not_nominated():
    # creators 0..2 reference each other but never creator 3, while
    # creator 3 follows everyone: 3's leaf gathers a single witness,
    # which is below the quorum of 3
    n = 4
    chain = Chain()
    tips = {}
    for c in range(n):
        leaf = make_leaf(c)
        chain.insert(leaf)
        tips[c] = leaf
    lonely = tips[3].id
    for r in range(10):
        new_tips = {}
        for c in range(3):
            others = tuple(tips[p] for p in range(3) if p != c)
            e = make_event(c, tips[c], others, payload=b"%d" % r)
            chain.insert(e)
            new_tips[c] = e
        others = tuple(tips[p] for p in range(3))
        e = make_event(3, tips[3], others, payload=b"x%d" % r)
        chain.insert(e)
        new_tips[3] = e
        tips = new_tips
    layering, rg, clothos = pipeline(chain, n)
    assert lonely in rg.roots
    assert lonely not in clothos
    # sanity: the well-connected leaves were decided
    decided_leaves = [r for r in rg.frames[1] if r in clothos]
    assert len(decided_leaves) >= 3


def test_select_atropos_positions_and_idempotence():
    chain = round_robin_chain(4, 10)
    layering, rg, clothos = pipeline(chain, 4)
    order = FinalOrder()
    fresh = select_atropos(chain, layering, clothos, order)
    assert [a.consensus_position for a in fresh] == list(range(len(fresh)))
    keys = [sort_vertex_key(chain, layering, a.clotho.root) for a in fresh]
    assert keys == sorted(keys)
    # calling again with the same clothos adds nothing
    assert select_atropos(chain, layering, clothos, order) == []
    assert len(order.atropos) == len(fresh)


def test_topo_sort_emits_each_event_once_under_earliest_atropos():
    chain = round_robin_chain(4, 10)
    layering, rg, clothos = pipeline(chain, 4)
    order = FinalOrder()
    fresh = select_atropos(chain, layering, clothos, order)
    emitted = topo_sort_finalize(chain, layering, order, fresh)
    assert emitted == order.ordered_events
    assert len(set(emitted)) == len(emitted)
    # every event below the last atropos is covered
    last = fresh[-1].clotho.root
    assert set(emitted) >= chain.subgraph_under(last)
    # chunks: an event goes to the first atropos whose past contains it
    seen = set()
    for rec in fresh:
        chunk = chain.subgraph_under(rec.clotho.root) - seen
        seen |= chunk
        for v in chunk:
            assert order.processed_mask >> chain.index_of(v) & 1


def test_final_order_is_topological():
    chain = round_robin_chain(5, 8)
    layering, rg, clothos = pipeline(chain, 5)
    order = FinalOrder()
    fresh = select_atropos(chain, layering, clothos, order)
    topo_sort_finalize(chain, layering, order, fresh)
    position = {v: i for i, v in enumerate(order.ordered_events)}
    for v in order.ordered_events:
        for r in chain.get(v).refs:
            assert position[r] < position[v]


def test_fork_members_share_one_slot():
    # both members of a fork pair sit under the atropos; only the
    # (lamport, id)-earliest may be emitted
    n = 4
    chain = Chain()
    tips = {}
    for c in range(n):
        leaf = make_leaf(c)
        chain.insert(leaf)
        tips[c] = leaf
    rival_a = make_event(0, tips[0], (tips[1],), payload=b"a")
    rival_b = make_event(0, tips[0], (tips[2],), payload=b"b")
    chain.insert(rival_a)
    chain.insert(rival_b)
    survivor = min(rival_a, rival_b, key=lambda e: e.sort_key())
    # keep building on the survivor so consensus advances over both
    tips[0] = survivor
    for r in range(10):
        new_tips = {}
        for c in range(n):
            others = tuple(tips[p] for p in range(n) if p != c)
            e = make_event(c, tips[c], others, payload=b"%d" % r)
            chain.insert(e)
            new_tips[c] = e
        tips = new_tips
    layering, rg, clothos = pipeline(chain, n)
    order = FinalOrder()
    fresh = select_atropos(chain, layering, clothos, order)
    topo_sort_finalize(chain, layering, order, fresh)
    final = set(order.ordered_events)
    assert survivor.id in final
    loser = rival_b if survivor is rival_a else rival_a
    assert loser.id not in final


def test_check_prefix_accepts_extension():
    a, b, c = make_leaf(0).id, make_leaf(1).id, make_leaf(2).id
    check_prefix([a, b], [a, b, c])
    check_prefix([], [a])
    check_prefix([a], [a])


def test_check_prefix_rejects_divergence_and_shrink():
    a, b, c = make_leaf(0).id, make_leaf(1).id, make_leaf(2).id
    with pytest.raises(ConsensusInvariantError):
        check_prefix([a, b], [a, c])
    with pytest.raises(ConsensusInvariantError):
        check_prefix([a, b], [a])


def test_sort_vertex_key_requires_layer():
    chain = Chain()
    leaf = make_leaf(0)
    chain.insert(leaf)
    with pytest.raises(UnlayeredVertex):
        sort_vertex_key(chain, layer_lpl(Chain()), leaf.id)


def check_records(chain, clothos, n):
    """Each Clotho rests on a quorum of witnesses its nominator reaches."""
    for rid, rec in clothos.items():
        assert rec.root == rid
        assert len(rec.witnesses) >= quorum(n)
        for w in rec.witnesses:
            assert chain.happened_before(rid, w)
            assert chain.happened_before(w, rec.nominator)


def forked_chain(rng):
    chain = Chain()
    for e in forked_blocks(rng, 4, 150, 3):
        chain.insert(e)
    return chain


@pytest.mark.parametrize(
    "make_chain, decided_at_least",
    [
        (lambda rng: round_robin_chain(4, 12), 30),
        (lambda rng: random_chain(rng, 4, 150, k=4), 1),
        (forked_chain, 1),
    ],
    ids=["round-robin", "random", "forked"],
)
def test_incremental_select_clothos_equals_batch(make_chain, decided_at_least):
    # the election fed a causally shuffled stream one root at a time
    # decides as one batch election over the same graph after each update
    rng = random.Random("incremental-clothos")
    chain = make_chain(rng)
    election = Election(4)
    for replay, engine in stream_into_engine(causal_shuffle(chain, rng), 4):
        got = select_clothos(replay, engine.graph, 4, election)
        assert got == select_clothos(replay, engine.graph, 4)
    check_records(chain, got, 4)
    assert len(got) >= decided_at_least
    if not chain.detect_forks():
        # the same slots decide the same way in insertion order; only
        # the nominator, the first root seen deciding, may differ
        batch = Election(4)
        select_clothos(chain, build_root_graph(chain, layer_lpl(chain), 4), 4, batch)
        assert batch.complete == election.complete
        assert {r: rec.frame for r, rec in batch.clothos.items()} == {
            r: rec.frame for r, rec in got.items()
        }


def test_a_tied_tally_votes_yes():
    # n=4, q=3: creator 3's leaf is seen by the frame-2 roots of 2 and 3
    # but not of 0 and 1, so every frame-3 root tallies 2 yes and 2 no;
    # each votes yes on the tie, and frame 4 decides the leaf a Clotho
    n = 4
    chain = Chain()
    leaves = [make_leaf(c) for c in range(n)]
    sees = {0: (1, 2), 1: (0, 2), 2: (3, 0), 3: (0, 1)}
    second = [make_event(c, leaves[c], tuple(leaves[p] for p in sees[c])) for c in range(n)]
    third = [
        make_event(c, second[c], tuple(second[p] for p in range(n) if p != c))
        for c in range(n)
    ]
    top = make_event(0, third[0], tuple(third[1:]))
    for e in leaves + second + third + [top]:
        chain.insert(e)
    layering, rg, clothos = pipeline(chain, n)
    assert [rg.roots[e.id].frame for e in (leaves[3], second[3], third[3], top)] == [1, 2, 3, 4]
    rec = clothos[leaves[3].id]
    assert rec.nominator == top.id
    assert rec.witnesses == {e.id for e in third}


def test_a_root_arriving_after_its_slot_was_decided_leaves_it_unchanged():
    # creators 0..2 reach the quorum of 3 among themselves; creator 3's
    # leaf and first child arrive only once frame 1 is decided without it
    n = 4
    chain = Chain()
    tips = {c: make_leaf(c) for c in range(3)}
    early = list(tips.values())
    for r in range(6):
        tips = {
            c: make_event(c, tips[c], tuple(tips[p] for p in range(3) if p != c), b"%d" % r)
            for c in range(3)
        }
        early += tips.values()
    late_leaf = make_leaf(3)
    late_child = make_event(3, late_leaf, (tips[0], tips[1]))
    node = NodeState(0, n)
    node.ingest_events(early)
    node.run_pipeline()
    assert node.election.complete > 2
    decided = {f: list(node.election.by_frame.get(f, ())) for f in range(1, node.election.complete)}
    emitted = list(node.order.ordered_events)
    assert emitted and late_leaf.id not in emitted
    node.ingest_events([late_leaf, late_child])
    node.run_pipeline()
    assert node.engine.graph.roots[late_leaf.id].frame == 1
    assert late_leaf.id not in node.clothos
    assert node.order.ordered_events[: len(emitted)] == emitted
    for f, roots in decided.items():
        assert node.election.by_frame.get(f, []) == roots
    # later events that cite creator 3 carry its leaf into the order
    for r in range(6):
        tips = {
            c: make_event(c, tips[c], (late_child,) + tuple(tips[p] for p in range(3) if p != c), b"x%d" % r)
            for c in range(3)
        }
        node.ingest_events(list(tips.values()))
        late_child = make_event(3, late_child, (tips[0], tips[1]), b"x%d" % r)
        node.ingest_events([late_child])
    node.run_pipeline()
    assert node.order.ordered_events[: len(emitted)] == emitted
    assert late_leaf.id in node.order.ordered_events
