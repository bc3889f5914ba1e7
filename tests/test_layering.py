"""Layering algorithms: LPL, Coffman-Graham, online variants, reduction."""

import math
import random
from fractions import Fraction

import pytest

from chaingen import causal_shuffle, random_chain
from layerdag.chain import Chain
from layerdag.errors import InvalidWidth, OverlapWithSettled, UnlayeredDependency
from layerdag.events import make_event, make_leaf
from layerdag.layering import (
    DiffGraph,
    Layering,
    LayeringState,
    layer_cg,
    layer_cg_online,
    layer_lpl,
    layer_lpl_online,
    max_width,
    transitive_reduce,
)
from layerdag.simnet import SimConfig, run


def longest_path_oracle(chain):
    """phi(v) = 1 + length of the longest ref path down to a leaf."""
    depth = {}

    def visit(eid):
        if eid in depth:
            return depth[eid]
        e = chain.get(eid)
        if not e.refs:
            depth[eid] = 1
        else:
            depth[eid] = 1 + max(visit(r) for r in e.refs)
        return depth[eid]

    for eid in chain.events:
        visit(eid)
    return depth


def assert_valid_layering(chain, layering):
    for eid in chain.events:
        e = chain.get(eid)
        for r in e.refs:
            assert layering.phi[eid] >= layering.phi[r] + 1
    for layer, members in layering.layers.items():
        for v in members:
            assert layering.phi[v] == layer


def stream_diffs(chain):
    """One DiffGraph per event, in causal (insertion) order."""
    for e in chain.in_insertion_order():
        yield DiffGraph((e.id,), tuple((e.id, r) for r in e.refs))


# -- LPL ------------------------------------------------------------------


def test_lpl_matches_longest_path_oracle():
    rng = random.Random("lpl-oracle")
    for trial in range(10):
        chain = random_chain(rng, rng.randint(3, 6), 40)
        layering = layer_lpl(chain)
        oracle = longest_path_oracle(chain)
        assert layering.phi == oracle
        assert_valid_layering(chain, layering)


def test_lpl_minimality():
    # LPL assigns each vertex the least feasible layer
    rng = random.Random("lpl-min")
    chain = random_chain(rng, 4, 30)
    layering = layer_lpl(chain)
    for eid in chain.events:
        refs = chain.get(eid).refs
        floor = 1 + max((layering.phi[r] for r in refs), default=0)
        assert layering.phi[eid] == floor


def test_lpl_height_and_width_properties():
    chain = Chain()
    a = make_leaf(0)
    chain.insert(a)
    b = make_event(0, a, ())
    chain.insert(b)
    layering = layer_lpl(chain)
    assert layering.height == 2
    assert layering.width == 1


# -- transitive reduction --------------------------------------------------


def test_transitive_reduce_preserves_reachability():
    rng = random.Random("reduce")
    for trial in range(6):
        chain = random_chain(rng, 4, 35)

        def closure(parents):
            reach = {}

            def visit(v):
                if v in reach:
                    return reach[v]
                out = set()
                for p in parents.get(v, ()):
                    out.add(p)
                    out |= visit(p)
                reach[v] = out
                return out

            for v in chain.events:
                visit(v)
            return reach

        full = closure({e.id: e.refs for e in chain.in_insertion_order()})
        reduced_parents = transitive_reduce(chain)
        reduced = closure(reduced_parents)
        assert full == reduced


def test_transitive_reduce_drops_redundant_edges():
    chain = Chain()
    a = make_leaf(0)
    b = make_leaf(1)
    chain.insert(a)
    chain.insert(b)
    c = make_event(1, b, (a,))
    chain.insert(c)
    d = make_event(0, a, (c,))  # direct ref to a is redundant via c
    chain.insert(d)
    parents = transitive_reduce(chain)
    assert set(parents[d.id]) == {c.id}


# -- Coffman-Graham ---------------------------------------------------------


def test_cg_diamond_width_one_gives_four_layers():
    chain = Chain()
    a = make_leaf(0)
    b = make_leaf(1)
    chain.insert(a)
    chain.insert(b)
    c = make_event(0, a, (b,))
    chain.insert(c)
    d = make_event(1, b, (c,))
    chain.insert(d)
    layering = layer_cg(chain, 1, transitive_reduce(chain))
    assert layering.height == 4
    assert all(len(m) == 1 for m in layering.layers.values())
    assert layering.phi[d.id] == 4


def test_cg_respects_width_bound():
    rng = random.Random("cg-width")
    for width in (1, 2, 3):
        chain = random_chain(rng, 5, 40)
        layering = layer_cg(chain, width, transitive_reduce(chain))
        assert layering.width <= width
        assert_valid_layering(chain, layering)


def test_cg_invalid_width():
    chain = Chain()
    chain.insert(make_leaf(0))
    with pytest.raises(InvalidWidth):
        layer_cg(chain, 0, transitive_reduce(chain))


def test_cg_equals_lpl_at_bound_on_forkfree_chain():
    rng = random.Random("cg-eq")
    for trial in range(5):
        n = rng.randint(3, 6)
        chain = random_chain(rng, n, 60)
        bound = math.ceil(max_width(n))
        lpl = layer_lpl(chain)
        cg = layer_cg(chain, bound, transitive_reduce(chain))
        assert lpl.phi == cg.phi


# -- width bound -------------------------------------------------------------


def test_max_width_values():
    assert max_width(5) == 5
    assert max_width(6, 1, 1) == 8
    assert max_width(4, 1, 1) == Fraction(16, 3)
    assert max_width(7, 2, 2) == 7 + Fraction(7 * 2 * 2, 3)


# -- online variants ----------------------------------------------------------


def test_online_lpl_equals_batch():
    rng = random.Random("olpl")
    chain = random_chain(rng, 5, 80)
    state = LayeringState(Layering())
    replay = Chain()
    for e, diff in zip(chain.in_insertion_order(), stream_diffs(chain)):
        replay.insert(e)
        layer_lpl_online(state, diff, replay)
    assert state.layering.phi == layer_lpl(chain).phi


def test_online_lpl_never_relayers_existing_events():
    rng = random.Random("olpl-frozen")
    chain = random_chain(rng, 4, 50)
    state = LayeringState(Layering())
    replay = Chain()
    snapshots = []
    for e, diff in zip(chain.in_insertion_order(), stream_diffs(chain)):
        replay.insert(e)
        layer_lpl_online(state, diff, replay)
        snapshots.append(dict(state.layering.phi))
    for earlier, later in zip(snapshots, snapshots[1:]):
        for v, layer in earlier.items():
            assert later[v] == layer


def test_online_cg_equals_batch_under_causal_order():
    rng = random.Random("ocg")
    n = 5
    chain = random_chain(rng, n, 80)
    width = math.ceil(max_width(n))
    state = LayeringState(Layering())
    replay = Chain()
    for e, diff in zip(chain.in_insertion_order(), stream_diffs(chain)):
        replay.insert(e)
        layer_cg_online(state, width, diff, replay)
    batch = layer_cg(chain, width, transitive_reduce(chain))
    assert state.layering.phi == batch.phi


def test_online_cg_layers_a_forked_chain_by_arrival_order_and_lpl_does_not():
    # why the consensus layers by longest path only: two replicas that
    # receive one forked chain in different causal orders get different
    # width-bounded layers, so they would order its events differently
    n = 7
    cfg = SimConfig(n=n, steps=10, seed="ocg-fork", byzantine={6: "equivocator"})
    chain = run(cfg).nodes[0].chain
    assert chain.detect_forks()
    orders = [
        list(chain.in_insertion_order()),
        causal_shuffle(chain, random.Random("ocg-fork/order")),
    ]
    cg, lpl = [], []
    for blocks in orders:
        cg_state, lpl_state = LayeringState(Layering()), LayeringState(Layering())
        replay = Chain()
        for e in blocks:
            replay.insert(e)
            diff = DiffGraph((e.id,), tuple((e.id, r) for r in e.refs))
            layer_cg_online(cg_state, n, diff, replay)
            layer_lpl_online(lpl_state, diff, replay)
        assert_valid_layering(chain, cg_state.layering)
        assert cg_state.layering.width <= n
        cg.append(cg_state.layering.phi)
        lpl.append(lpl_state.layering.phi)
    assert cg[0] != cg[1]
    assert lpl[0] == lpl[1] == layer_lpl(chain).phi


def test_online_lpl_rejects_unlayered_dependency():
    chain = Chain()
    a = make_leaf(0)
    chain.insert(a)
    b = make_event(0, a, ())
    chain.insert(b)
    state = LayeringState(Layering())
    diff = DiffGraph((b.id,), ((b.id, a.id),))
    with pytest.raises(UnlayeredDependency):
        layer_lpl_online(state, diff, chain)
    # an edge to a vertex inserted after its child is not causal
    with pytest.raises(UnlayeredDependency):
        layer_lpl_online(state, DiffGraph((a.id, b.id), ((a.id, b.id),)), chain)
    assert state.layering.phi == {}


@pytest.mark.parametrize("online", ["lpl", "cg"])
def test_online_layering_rejects_an_already_layered_vertex(online):
    chain = Chain()
    a = make_leaf(0)
    chain.insert(a)
    b = make_event(0, a, ())
    chain.insert(b)
    state = LayeringState(Layering())
    layer = {
        "lpl": lambda diff: layer_lpl_online(state, diff, chain),
        "cg": lambda diff: layer_cg_online(state, 4, diff, chain),
    }[online]
    layer(DiffGraph((a.id,), ()))
    with pytest.raises(OverlapWithSettled):
        layer(DiffGraph((a.id, b.id), ((b.id, a.id),)))
    assert state.layering.phi == {a.id: 1}
