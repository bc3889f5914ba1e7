"""Own-past frames, roots, and the engine that assigns them."""

import random

import pytest

from chaingen import causal_shuffle, random_chain
from test_chain import dfs_reachability, forked_blocks
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


def prior_roots(chain, rg, u):
    """The root-graph edges of root ``u``: previous-frame roots in its past."""
    f = rg.roots[u].frame
    return {
        r for r in rg.frames.get(f - 1, ()) if chain.happened_before(r, u)
    }


def test_event_reaching_quorum_becomes_root_with_edges():
    # n=4: an event whose past holds 3 of the 4 frame-1 roots opens
    # frame 2, with an edge to each of those roots
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
    assert rg.roots[v.id].frame == 2
    assert prior_roots(chain, rg, v.id) == {leaves[0].id, leaves[1].id, leaves[2].id}


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
    assert len(rg.frames[1]) == 4
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
    # every root above frame 1 reaches previous-frame roots of a quorum
    # of creators, which is what opened its frame
    rng = random.Random("root-edges")
    chain = random_chain(rng, 5, 60)
    rg = build_root_graph(chain, layer_lpl(chain), 5)
    assert rg.max_frame >= 3
    for u, rec in rg.roots.items():
        if rec.frame > 1:
            creators = {rg.roots[v].creator for v in prior_roots(chain, rg, u)}
            assert len(creators) >= quorum(5)


def test_assign_root_frames_monotone_along_edges():
    chain = round_robin_chain(5, 6)
    layering = layer_lpl(chain)
    engine = RootGraphEngine(5)
    rg = engine.update(chain, layering, list(layering.phi))
    for e in chain.in_insertion_order():
        for r in e.refs:
            assert engine.frame[e.id] >= engine.frame[r]
    edges = [(u, v) for u in rg.roots for v in prior_roots(chain, rg, u)]
    assert edges
    for u, v in edges:
        assert rg.roots[u].frame > rg.roots[v].frame


def stream_into_engine(blocks, n):
    """Feed blocks to an engine one at a time, online-layered.

    Yields (chain so far, engine) after every update.
    """
    replay = Chain()
    state = LayeringState(Layering())
    engine = RootGraphEngine(n)
    for e in blocks:
        replay.insert(e)
        diff = DiffGraph((e.id,), tuple((e.id, r) for r in e.refs))
        layer_lpl_online(state, diff, replay)
        engine.update(replay, state.layering, [e.id])
        yield replay, engine


def test_engine_incremental_equals_batch():
    rng = random.Random("engine-incr")
    chain = random_chain(rng, 5, 80)
    for _, engine in stream_into_engine(list(chain.in_insertion_order()), 5):
        pass
    batch = build_root_graph(chain, layer_lpl(chain), 5)
    assert engine.graph.roots == batch.roots
    assert engine.graph.frames == batch.frames


def test_engine_requires_layered_events():
    chain = Chain()
    leaf = make_leaf(0)
    chain.insert(leaf)
    engine = RootGraphEngine(2)
    with pytest.raises(MissingLayering):
        engine.update(chain, Layering(), [leaf.id])


def scratch_frames(chain, n):
    """Frames and roots recomputed from the final chain alone.

    Pasts come from a depth-first walk over refs and each event is
    framed after its parents, by the rule: the largest parent frame,
    plus one when the past holds roots of that frame from a quorum of
    creators; a root is a leaf or an event above its self parent's frame.
    """
    past = dfs_reachability(chain)
    q = quorum(n)
    frame, roots = {}, {}
    for e in sorted(chain.events.values(), key=lambda e: e.sort_key()):
        if e.is_leaf:
            f = 1
        else:
            f = max(frame[r] for r in e.refs)
            seen = {roots[r] for r in past[e.id] if roots.get(r) is not None and frame[r] == f}
            f += len(seen) >= q
        frame[e.id] = f
        if e.is_leaf or f > frame[e.self_ref]:
            roots[e.id] = e.creator
    return frame, set(roots)


def shuffled_streams():
    for seed in range(4):
        rng = random.Random(f"frames/{seed}")
        yield causal_shuffle(random_chain(rng, rng.randint(3, 6), 120, k=3), rng)
    for seed in range(4):
        rng = random.Random(f"frames/forked/{seed}")
        chain = Chain()
        for e in forked_blocks(rng, rng.randint(3, 5), 120, 3):
            chain.insert(e)
        yield causal_shuffle(chain, rng)


@pytest.mark.parametrize(
    "blocks",
    list(shuffled_streams()),
    ids=[f"honest{i}" for i in range(4)] + [f"forked{i}" for i in range(4)],
)
def test_own_past_frames_match_a_from_scratch_recomputation(blocks):
    n = 1 + max(e.creator for e in blocks)
    seen = {}
    for replay, engine in stream_into_engine(blocks, n):
        # a frame, once assigned, never changes
        assert seen.items() <= engine.frame.items()
        seen = dict(engine.frame)
    frame, roots = scratch_frames(replay, n)
    assert engine.frame == frame
    assert set(engine.graph.roots) == roots
    assert {r: rec.frame for r, rec in engine.graph.roots.items()} == {
        r: frame[r] for r in roots
    }
    # every frame below the top holds roots of a quorum of creators
    for f in range(1, engine.graph.max_frame):
        members = engine.graph.frames[f]
        assert len({engine.graph.roots[r].creator for r in members}) >= quorum(n)
    assert engine.graph.max_frame >= 5
