"""Node behavior: event creation, ingest, messages, pipeline, estimates."""

import dataclasses
import random

import pytest

from chaingen import causal_shuffle, random_chain
from layerdag import simnet
from layerdag.errors import IncompleteCoverage, UnknownTransaction
from layerdag.events import make_event, make_leaf, new_event
from layerdag.finality import (
    Election,
    FinalOrder,
    select_atropos,
    select_clothos,
    topo_sort_finalize,
)
from layerdag.layering import layer_lpl
from layerdag.node import (
    Broadcast,
    ConfirmationStage,
    Envelope,
    EventRequest,
    ForkNotice,
    NodeState,
)
from layerdag.roots import build_root_graph


def fresh_node(node_id=0, n=4, **kw):
    return NodeState(node_id, n, **kw)


def lockstep_round(nodes, step_no):
    """Everyone emits and delivers broadcasts synchronously."""
    events = [node.create_event() for node in nodes]
    for node in nodes:
        node.ingest_events([e for e in events if e.creator != node.id])
        node.run_pipeline()
    return events


# -- event creation ---------------------------------------------------------


def test_first_event_is_leaf():
    node = fresh_node()
    e = node.create_event()
    assert e.is_leaf
    assert e.creator == 0
    assert e.id in node.chain


def test_create_event_references_freshest_peers():
    node = fresh_node(0, 4, k=3)
    mine = node.create_event()
    peers = [make_leaf(1), make_leaf(2), make_leaf(3)]
    node.ingest_events(peers)
    stale = min(peers, key=lambda e: e.sort_key())
    newer = make_event(stale.creator, stale, ())
    node.ingest_events([newer])
    e = node.create_event()
    assert e.self_ref == mine.id
    assert len(e.other_refs) <= node.k - 1
    # the replaced tip must not appear; its newer child may
    assert stale.id not in e.other_refs


def test_create_event_cites_the_smallest_tip():
    node = fresh_node(0, 4)
    node.create_event()
    b0 = make_leaf(1)
    node.ingest_events([b0])
    rival_a = make_event(1, b0, (), payload=b"a")
    rival_b = make_event(1, b0, (), payload=b"b")
    report = node.ingest_events([rival_a, rival_b])
    assert report.fork_members  # fork detected
    first, second = sorted([rival_a, rival_b], key=lambda e: e.sort_key())
    e = node.create_event()
    assert first.id in e.other_refs
    assert second.id not in e.other_refs


def test_transaction_lifecycle():
    node = fresh_node()
    node.submit_transaction(b"tx-1")
    assert node.transaction_stage(b"tx-1") == ConfirmationStage.SUBMITTED
    e = node.create_event()
    assert e.payload == b"tx-1"
    assert node.transaction_stage(b"tx-1") == ConfirmationStage.BATCHED
    with pytest.raises(UnknownTransaction):
        node.transaction_stage(b"missing")


# -- ingest -------------------------------------------------------------------


def test_ingest_buffers_until_parents_arrive():
    node = fresh_node()
    b0 = make_leaf(1)
    b1 = make_event(1, b0, ())
    report = node.ingest_events([b1])
    assert b1.id in report.buffered
    assert b1.id not in node.chain
    report = node.ingest_events([b0])
    assert set(report.accepted) == {b0.id, b1.id}
    assert not node.pending


def test_ingest_reports_fork_members():
    node = fresh_node()
    b0 = make_leaf(1)
    rival_a = make_event(1, b0, (), payload=b"a")
    rival_b = make_event(1, b0, (), payload=b"b")
    report = node.ingest_events([b0, rival_a, rival_b])
    assert set(report.accepted) == {b0.id, rival_a.id, rival_b.id}
    # the rival accepted second is the one that joined a fork
    assert report.fork_members == report.accepted[-1:]
    assert report.fork_members[0] in (rival_a.id, rival_b.id)


def test_later_fork_member_is_inserted_at_once():
    node = fresh_node()
    b0, first, second, child = forked_leaf()
    node.ingest_events([b0, first])
    report = node.ingest_events([second])
    assert report.accepted == report.fork_members == [second.id]
    assert second.id in node.chain
    # its self-descendants join the fork as well
    report = node.ingest_events([child])
    assert report.accepted == report.fork_members == [child.id]
    assert child.id in node.chain


def test_later_leaf_rival_is_inserted_at_once():
    node = fresh_node()
    leaf_a = make_leaf(1, payload=b"a")
    leaf_b = make_leaf(1, payload=b"b")
    first, second = sorted([leaf_a, leaf_b], key=lambda e: e.sort_key())
    node.ingest_events([first])
    report = node.ingest_events([second])
    assert report.accepted == report.fork_members == [second.id]
    assert second.id in node.chain
    assert first.id in node.chain


def test_earlier_leaf_rival_is_inserted():
    node = fresh_node()
    leaf_a = make_leaf(1, payload=b"a")
    leaf_b = make_leaf(1, payload=b"b")
    first, second = sorted([leaf_a, leaf_b], key=lambda e: e.sort_key())
    node.ingest_events([second])
    report = node.ingest_events([first])
    assert report.accepted == [first.id]
    assert report.fork_members == [first.id]


def test_ingest_rejects_an_id_that_is_not_the_hash_of_the_content():
    node = fresh_node()
    b0 = make_leaf(1)
    b1 = make_event(1, b0, (), payload=b"genuine")
    forged = dataclasses.replace(b1, payload=b"forged")
    made_up = dataclasses.replace(b0, id=b"\x07" * 32)
    report = node.ingest_events([b0, forged, made_up])
    assert report.accepted == [b0.id]
    assert [eid for eid, _ in report.rejected] == [b1.id, made_up.id]
    assert b1.id not in node.chain and not node.pending
    # the genuine content under that id still goes in
    report = node.ingest_events([b1])
    assert report.accepted == [b1.id]
    assert node.chain.get(b1.id).payload == b"genuine"


def test_event_claiming_a_lamport_time_not_above_its_parent_never_enters():
    node = fresh_node()
    b0 = make_leaf(1)
    b1 = make_event(1, b0, ())
    bad = new_event(1, b1.id, (), 0, b"bad", 2)
    # ``bad`` sorts before its parent, and the pass rejects it on reaching it
    report = node.ingest_events([b0, b1, bad])
    assert report.accepted == [b0.id, b1.id]
    assert [eid for eid, _ in report.rejected] == [bad.id]
    assert not report.buffered
    assert bad.id not in node.chain and not node.pending


def test_event_claiming_a_lamport_time_not_above_its_parent_is_rejected_when_the_parent_arrives():
    node = fresh_node()
    b0 = make_leaf(1)
    b1 = make_event(1, b0, ())
    bad = new_event(1, b1.id, (), 1, b"bad", 2)
    # the bad child comes one call before its parent, whose time it ties
    report = node.ingest_events([bad])
    assert report.buffered == [bad.id]
    report = node.ingest_events([b0, b1])
    assert report.accepted == [b0.id, b1.id]
    assert [eid for eid, _ in report.rejected] == [bad.id]
    assert bad.id not in node.chain and not node.pending


def test_duplicate_delivery_is_harmless():
    node = fresh_node()
    b0 = make_leaf(1)
    node.ingest_events([b0])
    report = node.ingest_events([b0])
    assert not report.accepted
    assert len(node.chain) == 1


# -- messages -------------------------------------------------------------------


def test_fork_notice_triggers_event_request():
    node = fresh_node()
    ghost_a = make_leaf(7)
    ghost_b = make_event(7, ghost_a, ())
    pair = tuple(sorted((ghost_a.id, ghost_b.id)))
    node.handle_message(Envelope(1, 0, ForkNotice((pair,))))
    requests = [
        env for env in node.outbox if isinstance(env.payload, EventRequest)
    ]
    assert len(requests) == 1
    assert set(requests[0].payload.wanted) == set(pair)


def joined_fork(chain, y):
    """Brute force: whether an earlier-inserted event of y's creator is concurrent with y."""
    creator = chain.get(y).creator
    return any(
        chain.index_of(x) < chain.index_of(y) and not chain.self_ancestor(x, y)
        for x in chain.by_creator[creator]
    )


def check_notices_name_new_fork_members(monkeypatch):
    """Make every ``step`` assert the notice rule on what it sends.

    Take the events that joined a fork in the sender's chain since its
    previous step, in insertion order.  The step sends each peer exactly
    one notice holding one pair per such event the peer did not create,
    in that order, and none when no event is left.  Each pair names its
    event and a held event of the same creator concurrent with it.
    Returns counters of (pair, recipient) deliveries sent and of those
    that arrived while a member they name was not held.
    """
    step, handle = NodeState.step, NodeState.handle_message
    checked = {}  # node -> count of its chain events already checked
    seen = {"sent": 0, "early": 0}

    def handle_message(node, env):
        if isinstance(env.payload, ForkNotice):
            seen["early"] += sum(
                any(x not in node.chain for x in pair) for pair in env.payload.pairs
            )
        handle(node, env)

    def checked_step(node, step_no, inbox, emit=True):
        out = step(node, step_no, inbox, emit)
        chain = node.chain
        order = [e.id for e in chain.in_insertion_order()]
        joined = [y for y in order[checked.get(node, 0):] if joined_fork(chain, y)]
        checked[node] = len(order)
        sent = [env for env in out if isinstance(env.payload, ForkNotice)]
        by_peer = {env.dst: env.payload.pairs for env in sent}
        assert len(by_peer) == len(sent) and set(by_peer) <= set(node.peers)
        for p in node.peers:
            ys = [y for y in joined if chain.get(y).creator != p]
            pairs = by_peer.get(p, ())
            assert len(pairs) == len(ys) and (p in by_peer) == bool(ys)
            for y, pair in zip(ys, pairs):
                assert y in pair and pair == tuple(sorted(pair))
                (x,) = [m for m in pair if m != y]
                assert x in chain and chain.get(x).creator == chain.get(y).creator
                assert not (chain.self_ancestor(x, y) or chain.self_ancestor(y, x))
            seen["sent"] += len(pairs)
        return out

    monkeypatch.setattr(NodeState, "handle_message", handle_message)
    monkeypatch.setattr(NodeState, "step", checked_step)
    return seen


def notices(out):
    return [env.payload for env in out if isinstance(env.payload, ForkNotice)]


def requests(out):
    return [
        (env.dst, env.payload.wanted)
        for env in out
        if isinstance(env.payload, EventRequest)
    ]


def forked_leaf(creator=1):
    """A leaf of ``creator``, two rival children sorted by key, and a child of the later."""
    b0 = make_leaf(creator)
    rivals = [make_event(creator, b0, (), payload=p) for p in (b"a", b"b")]
    first, second = sorted(rivals, key=lambda e: e.sort_key())
    child = make_event(creator, second, (), payload=b"c")
    return b0, first, second, child


def test_notice_for_members_not_yet_held_is_not_relayed(monkeypatch):
    seen = check_notices_name_new_fork_members(monkeypatch)
    node = fresh_node()
    b0, first, second, child = forked_leaf()
    pair = tuple(sorted((first.id, second.id)))
    # the notice comes first: its members are asked for, not announced
    out = node.step(0, [Envelope(2, 0, ForkNotice((pair,)))])
    assert not notices(out)
    (request,) = [env for env in out if isinstance(env.payload, EventRequest)]
    assert request.dst == 2 and set(request.payload.wanted) == set(pair)
    assert seen["early"] == 1
    # the members and a child of the later one arrive: each new member goes
    # out once, in insertion order, paired with its earliest-inserted rival,
    # in one notice to each peer but the forking creator 1
    inbox = [
        Envelope(2, 0, Broadcast((b0, first, second))),
        Envelope(3, 0, Broadcast((child,))),
    ]
    out = node.step(1, inbox)
    pairs = (pair, tuple(sorted((first.id, child.id))))
    assert [env.dst for env in out if isinstance(env.payload, ForkNotice)] == [2, 3]
    assert notices(out) == [ForkNotice(pairs)] * 2
    assert seen["sent"] == 4


def test_notice_naming_made_up_ids_is_not_relayed():
    node = fresh_node()
    junk = tuple(sorted((b"\x01" * 32, b"\x02" * 32)))
    out = node.step(0, [Envelope(2, 0, ForkNotice((junk,)))])
    assert not notices(out)
    assert requests(out) == [(2, junk)]
    out = node.step(1, [])
    assert not notices(out)


def test_each_unknown_member_is_asked_for_once_per_outbox():
    node = fresh_node()
    _, first, second, child = forked_leaf(7)
    pair = tuple(sorted((first.id, second.id)))
    later = tuple(sorted((first.id, child.id)))
    inbox = [
        # ``first`` is in both pairs and is asked for once
        Envelope(2, 0, ForkNotice((pair, later))),
        Envelope(3, 0, ForkNotice((pair,))),
        Envelope(1, 0, ForkNotice((later,))),
    ]
    out = node.step(0, inbox)
    assert requests(out) == [(2, tuple(dict.fromkeys(pair + later)))]
    assert len(requests(out)[0][1]) == 3


def test_member_wanted_as_a_missing_parent_is_not_asked_for_again():
    node = fresh_node()
    _, first, second, child = forked_leaf(7)
    pair = tuple(sorted((first.id, second.id)))
    inbox = [
        Envelope(2, 0, Broadcast((child,))),
        Envelope(3, 0, ForkNotice((pair,))),
        Envelope(1, 0, ForkNotice((pair,))),
    ]
    out = node.step(0, inbox)
    assert requests(out) == [(2, (second.id,)), (3, (first.id,))]


def test_notice_outside_step_still_requests_its_unknown_ids():
    # the drain hands messages to ``handle_message`` after resetting the
    # outbox, so an id asked for in an earlier step is asked for again
    node = fresh_node()
    _, first, second, _ = forked_leaf(7)
    pair = tuple(sorted((first.id, second.id)))
    assert requests(node.step(0, [Envelope(2, 0, ForkNotice((pair,)))])) == [(2, pair)]
    node.outbox = []
    node.handle_message(Envelope(3, 0, ForkNotice((pair,))))
    assert requests(node.outbox) == [(3, pair)]


def test_no_notice_goes_to_the_forking_creator(monkeypatch):
    step = NodeState.step
    named = {}  # dst -> creators of the pairs it was sent

    def recording_step(node, step_no, inbox, emit=True):
        out = step(node, step_no, inbox, emit)
        for env in out:
            if isinstance(env.payload, ForkNotice):
                named.setdefault(env.dst, set()).update(
                    node.chain.get(x).creator for pair in env.payload.pairs for x in pair
                )
        return out

    monkeypatch.setattr(NodeState, "step", recording_step)
    cfg = simnet.SimConfig(
        n=7, steps=60, seed="notice/forker", byzantine={4: "forker", 6: "equivocator"}
    )
    simnet.run(cfg)
    assert named == {i: {4, 6} - {i} for i in range(7)}


@pytest.mark.parametrize(
    "cfg",
    [
        simnet.SimConfig(n=7, steps=90, seed="notice/eq", byzantine={6: "equivocator"}),
        simnet.SimConfig(
            n=7,
            steps=120,
            seed="notice/wp3",
            delay_model="reorder",
            delay_arg=2,
            byzantine={6: "forker"},
            w_p=3,
            w_c=12,
        ),
        simnet.SimConfig(
            n=7,
            steps=90,
            seed="notice/mix",
            delay_model="rand",
            delay_arg=2,
            byzantine={1: "forker", 4: "equivocator"},
        ),
    ],
    ids=["equivocator", "forker-wp3", "mixed-rand2"],
)
def test_each_new_fork_member_is_announced_once(cfg, monkeypatch):
    seen = check_notices_name_new_fork_members(monkeypatch)
    simnet.run(cfg)
    assert seen["sent"] >= 300
    assert seen["early"] >= 10


def test_event_request_carries_known_map_and_gets_only_whats_missing():
    requester, responder = fresh_node(0), fresh_node(1)
    for _ in range(3):
        responder.ingest_events([requester.create_event()])
        requester.ingest_events([responder.create_event()])
    parent = responder.create_event()
    child = responder.create_event()
    requester.handle_message(Envelope(1, 0, Broadcast((child,))))
    requests = [
        env for env in requester.outbox if isinstance(env.payload, EventRequest)
    ]
    assert len(requests) == 1
    req = requests[0].payload
    assert req.wanted == (parent.id,)
    assert req.known == requester.chain.known_map()
    responder.handle_message(Envelope(0, 1, req))
    (resp,) = responder.outbox
    assert [e.id for e in resp.payload.events] == [parent.id]


def test_step_broadcasts_one_event_to_every_peer():
    node = fresh_node(1, 4)
    outbox = node.step(1, [])
    (e,) = node.chain.in_insertion_order()
    assert outbox == [Envelope(1, p, Broadcast((e,))) for p in (0, 2, 3)]


# -- pipeline and global state ---------------------------------------------------


def test_pipeline_matches_batch_recompute():
    nodes = [fresh_node(i, 4) for i in range(4)]
    for step in range(12):
        lockstep_round(nodes, step)
    node = nodes[0]
    batch_layering = layer_lpl(node.chain)
    assert node.lstate.layering.phi == batch_layering.phi
    batch_rg = build_root_graph(node.chain, batch_layering, 4)
    got = {r: rec.frame for r, rec in node.engine.graph.roots.items()}
    want = {r: rec.frame for r, rec in batch_rg.roots.items()}
    assert got == want


def test_estimate_global_state_is_consistent_cut():
    nodes = [fresh_node(i, 4) for i in range(4)]
    for step in range(8):
        lockstep_round(nodes, step)
    for node in nodes:
        cut = node.estimate_global_state()
        for eid in cut:
            for r in node.chain.get(eid).refs:
                assert r in cut


def test_estimate_global_state_needs_full_coverage():
    node = fresh_node(0, 4)
    node.create_event()
    with pytest.raises(IncompleteCoverage):
        node.estimate_global_state()


def test_lockstep_cluster_finalizes_and_agrees():
    nodes = [fresh_node(i, 4) for i in range(4)]
    for step in range(30):
        lockstep_round(nodes, step)
    orders = [node.order.ordered_events for node in nodes]
    assert orders[0]
    assert all(o == orders[0] for o in orders[1:])


def test_stage_progression_is_monotone():
    nodes = [fresh_node(i, 4) for i in range(4)]
    nodes[0].submit_transaction(b"tx-a")
    history = []
    for step in range(30):
        lockstep_round(nodes, step)
        history.append(nodes[0].transaction_stage(b"tx-a"))
    for prev, cur in zip(history, history[1:]):
        assert cur >= prev
    assert history[-1] == ConfirmationStage.FINALIZED


# -- the incremental pipeline against a from-scratch oracle -------------------


def oracle_pipeline(node):
    """Roots, Clothos and the final order from scratch over the node's chain.

    One engine update over every event, one election over every root,
    and every complete frame's Clothos emitted into a fresh order.
    """
    chain, layering = node.chain, node.lstate.layering
    rg = build_root_graph(chain, layering, node.n)
    election = Election(node.n)
    clothos = select_clothos(chain, rg, node.n, election)
    order = FinalOrder()
    for f in range(1, election.complete):
        frame = {c: clothos[c] for c in election.by_frame.get(f, ())}
        fresh = select_atropos(chain, layering, frame, order)
        topo_sort_finalize(chain, layering, order, fresh)
    return rg, clothos, order


def oracle_stages(node, stages, clothos):
    """Stages after one run from the stages before it, covering everything."""
    stages, positions = dict(stages), dict(node.final_positions)
    final_pos = {e: i for i, e in enumerate(node.order.ordered_events)}
    clotho_cover = 0
    for c in clothos:
        clotho_cover |= node.chain.ancestor_mask(c)
    root_cover = 0
    for r in node.engine.graph.roots:
        root_cover |= node.chain.ancestor_mask(r)
    for payload, eid in node.tx_event.items():
        if eid in final_pos:
            stages[payload] = ConfirmationStage.FINALIZED
            positions[payload] = final_pos[eid]
            continue
        idx = node.chain.index_of(eid)
        if clotho_cover >> idx & 1:
            new = ConfirmationStage.CLOTHO_CONFIRMED
        elif root_cover >> idx & 1:
            new = ConfirmationStage.ROOT_CONFIRMED
        else:
            new = ConfirmationStage.BATCHED
        stages[payload] = max(stages[payload], new)
    return stages, positions


def run_against_oracle(node, run_pipeline):
    """Run the pipeline and check it against the oracle."""
    before = dict(node.stages)
    run_pipeline(node)
    rg, clothos, order = oracle_pipeline(node)
    assert node.engine.graph.roots == rg.roots
    assert node.clothos == clothos
    assert node.order.main_chain == order.main_chain
    assert node.order.ordered_events == order.ordered_events
    stages, positions = oracle_stages(node, before, clothos)
    assert node.stages == stages
    assert node.final_positions == positions


@pytest.mark.parametrize(
    "cfg",
    [
        simnet.SimConfig(
            n=5, steps=300, seed="oracle/rand", delay_model="rand", delay_arg=3
        ),
        simnet.SimConfig(
            n=7,
            steps=160,
            seed="oracle/f2",
            delay_model="reorder",
            delay_arg=2,
            byzantine={5: "forker", 6: "forker"},
        ),
        simnet.SimConfig(
            n=7, steps=160, seed="oracle/eq", byzantine={6: "equivocator"}
        ),
        simnet.SimConfig(
            n=5,
            steps=240,
            seed="oracle/cg",
            layering_algo="cg",
            width=6,
            k=2,
            delay_model="rand",
            delay_arg=1,
        ),
    ],
    ids=["rand3", "reorder-forkers", "equivocator", "cg"],
)
def test_incremental_pipeline_matches_from_scratch_oracle(cfg, monkeypatch):
    incremental = NodeState.run_pipeline
    runs = []

    def checked(node):
        run_against_oracle(node, incremental)
        runs.append(len(node.order.ordered_events))

    monkeypatch.setattr(NodeState, "run_pipeline", checked)
    txs = {
        nid: [b"tx/%d/%d" % (nid, i) for i in range(cfg.steps)] for nid in range(cfg.n)
    }
    result = simnet.run(cfg, transactions=txs)
    honest = list(result.nodes.values())
    assert len(runs) > cfg.steps
    assert all(node.order.ordered_events for node in honest)
    assert all(
        ConfirmationStage.FINALIZED in node.stages.values() for node in honest
    )


def test_incremental_pipeline_matches_oracle_on_shuffled_streams():
    # events arriving out of order are framed and voted on as they come,
    # yet the final order is the one the chain gives in insertion order
    finalized = 0
    for seed in range(8):
        rng = random.Random(f"oracle-stream/{seed}")
        n = rng.randint(3, 5)
        chain = random_chain(rng, n, 150, k=n)
        node = NodeState(0, n)
        for e in causal_shuffle(chain, rng, window=3):
            node.ingest_events([e])
            run_against_oracle(node, NodeState.run_pipeline)
        in_order = NodeState(0, n)
        in_order.ingest_events(list(chain.in_insertion_order()))
        in_order.run_pipeline()
        assert node.order.ordered_events == in_order.order.ordered_events
        finalized += len(node.order.ordered_events)
    assert finalized >= 300
