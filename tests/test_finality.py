"""Clotho decisions, Atropos ordering, and final-order emission."""

import pytest

from layerdag.chain import Chain
from layerdag.errors import ConsensusInvariantError, UnlayeredVertex
from layerdag.events import make_event, make_leaf
from layerdag.finality import (
    FinalOrder,
    check_prefix,
    select_atropos,
    select_clothos,
    sort_vertex_key,
    topo_sort_finalize,
)
from layerdag.layering import layer_lpl
from layerdag.roots import build_root_graph, quorum

from test_roots import round_robin_chain


def pipeline(chain, n):
    layering = layer_lpl(chain)
    rg = build_root_graph(chain, layering, n, frozenset(chain.fork_victims()))
    clothos = select_clothos(chain, rg, n)
    return layering, rg, clothos


def test_round_robin_frame_one_roots_all_become_clothos():
    chain = round_robin_chain(4, 10)
    layering, rg, clothos = pipeline(chain, 4)
    assert rg.max_frame >= 5
    for rid in rg.frame_members()[1]:
        assert rid in clothos
        rec = clothos[rid]
        assert rec.frame == 1
        assert len(rec.witnesses) >= quorum(4)


def test_clotho_witnesses_actually_reach_the_root():
    chain = round_robin_chain(5, 8)
    layering, rg, clothos = pipeline(chain, 5)
    assert clothos
    frames = rg.frame_members()
    for rid, rec in clothos.items():
        for w in rec.witnesses:
            assert chain.happened_before(rid, w)
            assert rg.roots[w].frame == rec.frame + 1
        assert rg.roots[rec.nominator].frame == rec.frame + 3


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
    decided_leaves = [r for r in rg.frame_members()[1] if r in clothos]
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


def test_clotho_cache_reuse_is_transparent():
    chain = round_robin_chain(4, 10)
    layering = layer_lpl(chain)
    rg = build_root_graph(chain, layering, 4)
    cache = {}
    first = select_clothos(chain, rg, 4, cache)
    second = select_clothos(chain, rg, 4, cache)
    assert first == second
    assert first == select_clothos(chain, rg, 4)  # no cache at all
