"""Root selection, frame assignment, and the incremental engine."""

import random

import pytest

from chaingen import causal_shuffle, random_chain
from layerdag.chain import Chain
from layerdag.errors import MissingLayering
from layerdag.events import make_event, make_leaf
from layerdag.layering import (
    DiffGraph,
    Layering,
    LayeringState,
    layer_lpl,
    layer_lpl_online,
)
from layerdag.roots import RootGraphEngine, build_root_graph, quorum


def round_robin_chain(n, rounds):
    """Every creator references every other creator's tip each round."""
    chain = Chain()
    tips = {}
    for c in range(n):
        leaf = make_leaf(c)
        chain.insert(leaf)
        tips[c] = leaf
    for r in range(rounds):
        new_tips = {}
        for c in range(n):
            others = tuple(tips[p] for p in range(n) if p != c)
            e = make_event(c, tips[c], others, payload=b"%d" % r)
            chain.insert(e)
            new_tips[c] = e
        tips = new_tips
    return chain


def test_quorum_values():
    assert quorum(3) == 3
    assert quorum(4) == 3
    assert quorum(5) == 4
    assert quorum(6) == 5
    assert quorum(7) == 5


def test_leaves_are_frame_one_roots():
    chain = round_robin_chain(4, 2)
    rg = build_root_graph(chain, layer_lpl(chain), 4)
    for e in chain.in_insertion_order():
        if e.is_leaf:
            assert e.id in rg.roots
            assert rg.roots[e.id].frame == 1


def test_event_reaching_quorum_becomes_root_with_edges():
    # n=4: an event reaching 3 of the 4 active roots is promoted and
    # carries one edge per reached root
    chain = Chain()
    leaves = []
    for c in range(4):
        leaf = make_leaf(c)
        chain.insert(leaf)
        leaves.append(leaf)
    v = make_event(0, leaves[0], (leaves[1], leaves[2]))
    chain.insert(v)
    rg = build_root_graph(chain, layer_lpl(chain), 4)
    assert v.id in rg.roots
    assert set(rg.edges[v.id]) == {leaves[0].id, leaves[1].id, leaves[2].id}


def test_event_below_quorum_not_promoted():
    chain = Chain()
    leaves = []
    for c in range(4):
        leaf = make_leaf(c)
        chain.insert(leaf)
        leaves.append(leaf)
    v = make_event(0, leaves[0], (leaves[1],))  # reaches only 2 of 4
    chain.insert(v)
    rg = build_root_graph(chain, layer_lpl(chain), 4)
    assert v.id not in rg.roots


def test_root_reaching_quorum_of_frame_one_gets_frame_two():
    chain = round_robin_chain(4, 1)
    rg = build_root_graph(chain, layer_lpl(chain), 4)
    frames = rg.frame_members()
    assert len(frames[1]) == 4
    round_one = [
        e.id for e in chain.in_insertion_order() if e.creation_seq == 1
    ]
    for rid in round_one:
        assert rg.roots[rid].frame == 2


def test_round_robin_frames_strictly_increase_per_creator():
    chain = round_robin_chain(4, 8)
    rg = build_root_graph(chain, layer_lpl(chain), 4)
    per_creator = {}
    for rid in rg.order:
        rec = rg.roots[rid]
        per_creator.setdefault(rec.creator, []).append(
            (chain.get(rid).creation_seq, rec.frame)
        )
    for creator, seq in per_creator.items():
        seq.sort()
        frames = [f for _, f in seq]
        assert frames == sorted(frames)
        assert len(set(frames)) == len(frames)


def test_edges_respect_reachability():
    rng = random.Random("root-edges")
    chain = random_chain(rng, 5, 60)
    rg = build_root_graph(chain, layer_lpl(chain), 5)
    for u, v in rg.edge_pairs():
        assert chain.happened_before(v, u)


def test_assign_root_frames_monotone_along_edges():
    chain = round_robin_chain(5, 6)
    rg = build_root_graph(chain, layer_lpl(chain), 5)
    assert rg.edges
    for u, targets in rg.edges.items():
        for v in targets:
            assert rg.roots[u].frame > rg.roots[v].frame


def test_engine_incremental_equals_batch():
    rng = random.Random("engine-incr")
    chain = random_chain(rng, 5, 80)
    blocks = list(chain.in_insertion_order())
    replay = Chain()
    state = LayeringState(Layering())
    engine = RootGraphEngine(5)
    for e in blocks:
        replay.insert(e)
        diff = DiffGraph((e.id,), tuple((e.id, r) for r in e.refs))
        layer_lpl_online(state, diff, replay)
        engine.update(replay, state.layering, [e.id])
    batch = build_root_graph(chain, layer_lpl(chain), 5)
    assert {r: engine.graph.roots[r].frame for r in engine.graph.roots} == {
        r: batch.roots[r].frame for r in batch.roots
    }
    assert engine.graph.edges == batch.edges


def test_engine_rolls_back_on_low_layer_insertion():
    # creators 0..3 advance while creator 4 stays silent; its leaf then
    # arrives at layer 1, far below the processed frontier
    n = 5
    chain = Chain()
    tips = {}
    for c in range(4):
        leaf = make_leaf(c)
        chain.insert(leaf)
        tips[c] = leaf
    for r in range(6):
        new_tips = {}
        for c in range(4):
            others = tuple(tips[p] for p in range(4) if p != c)
            e = make_event(c, tips[c], others, payload=b"%d" % r)
            chain.insert(e)
            new_tips[c] = e
        tips = new_tips

    layering = layer_lpl(chain)
    engine = RootGraphEngine(n)
    engine.update(chain, layering, list(layering.phi))
    gen_before = engine.generation

    late = make_leaf(4)
    chain.insert(late)
    layering = layer_lpl(chain)
    engine.update(chain, layering, [late.id])
    assert engine.generation > gen_before

    batch = build_root_graph(chain, layering, n)
    assert {r: engine.graph.roots[r].frame for r in engine.graph.roots} == {
        r: batch.roots[r].frame for r in batch.roots
    }


def test_engine_requires_layered_events():
    chain = Chain()
    leaf = make_leaf(0)
    chain.insert(leaf)
    engine = RootGraphEngine(2)
    with pytest.raises(MissingLayering):
        engine.update(chain, Layering(), [leaf.id])


def rebuilt_partition(rg):
    frames = {}
    for rid in rg.order:
        frames.setdefault(rg.roots[rid].frame, []).append(rid)
    return frames


def stream_into_engine(blocks, n):
    """Feed blocks to an engine one at a time, online-layered.

    Yields (chain so far, engine, frame members before, roots before)
    after every update.
    """
    replay = Chain()
    state = LayeringState(Layering())
    engine = RootGraphEngine(n)
    for e in blocks:
        replay.insert(e)
        diff = DiffGraph((e.id,), tuple((e.id, r) for r in e.refs))
        layer_lpl_online(state, diff, replay)
        before = {f: set(m) for f, m in engine.graph.frames.items()}
        roots_before = dict(engine.graph.roots)
        engine.update(replay, state.layering, [e.id])
        yield replay, engine, before, roots_before


@pytest.mark.parametrize("seed", ["a", "b", "c"])
def test_kept_partition_and_changes_track_promotions_and_rollbacks(seed):
    rng = random.Random(f"kept-partition/{seed}")
    chain = random_chain(rng, 5, 90)
    generations = set()
    for replay, engine, before, roots_before in stream_into_engine(
        causal_shuffle(chain, rng), 5
    ):
        rg = engine.graph
        changes = engine.take_changes()
        generations.add(engine.generation)
        # the kept partition is the one rebuilt from the promotion order
        assert rg.frame_members() == rebuilt_partition(rg)
        # the changes are exactly what differs from the graph before
        after = {f: set(m) for f, m in rg.frames.items()}
        differ = {
            f for f in before.keys() | after.keys() if before.get(f) != after.get(f)
        }
        assert changes.frames == differ
        assert set(changes.added) == {
            r for r, rec in rg.roots.items() if roots_before.get(r) != rec
        }
        assert set(changes.dropped) == {
            rec for r, rec in roots_before.items() if rg.roots.get(r) != rec
        }
    assert len(generations) > 10  # the stream rolled the engine back often
    batch = build_root_graph(chain, layer_lpl(chain), 5)
    assert engine.graph.frame_members() == rebuilt_partition(batch)


def test_rollback_below_every_layer_keeps_the_partition():
    # a late leaf (layer 1) sends the engine back to the start; the
    # replay promotes every earlier root again into the same frame
    n = 5
    chain = round_robin_chain(4, 3)
    late = make_leaf(4)
    blocks = list(chain.in_insertion_order()) + [late]
    for _, engine, before, roots_before in stream_into_engine(blocks, n):
        generation = engine.generation
        changes = engine.take_changes()
    assert engine.generation == generation > 0
    assert engine.graph.frame_members() == rebuilt_partition(engine.graph)
    assert roots_before.items() <= engine.graph.roots.items()
    assert list(changes.added) == [late.id]
    assert changes.dropped == []
    assert changes.frames == {1}
