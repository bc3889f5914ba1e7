"""Node behavior: event creation, ingest, syncing, pipeline, estimates."""

import random

import pytest

from chaingen import causal_shuffle, random_chain
from layerdag import simnet
from layerdag.errors import IncompleteCoverage, UnknownTransaction
from layerdag.events import make_event, make_leaf
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
    PeerStrategy,
    SyncRequest,
    SyncResponse,
)
from layerdag.roots import build_root_graph


def fresh_node(node_id=0, n=4, **kw):
    return NodeState(node_id, n, seed="test", **kw)


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


def test_create_event_skips_fork_victims():
    node = fresh_node(0, 4)
    node.create_event()
    b0 = make_leaf(1)
    node.ingest_events([b0])
    rival_a = make_event(1, b0, (), payload=b"a")
    rival_b = make_event(1, b0, (), payload=b"b")
    node.ingest_events([rival_a, rival_b])
    assert node.victims  # fork detected
    e = node.create_event()
    for v in node.victims:
        assert v not in e.other_refs


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
    later = max(rival_a, rival_b, key=lambda e: e.sort_key())
    assert node.victims == {later.id}


def test_later_fork_member_is_quarantined_then_reinstated():
    node = fresh_node()
    b0 = make_leaf(1)
    rival_a = make_event(1, b0, (), payload=b"a")
    rival_b = make_event(1, b0, (), payload=b"b")
    first, second = sorted([rival_a, rival_b], key=lambda e: e.sort_key())
    node.ingest_events([b0, first])
    report = node.ingest_events([second])
    assert report.quarantined == [second.id]
    assert second.id not in node.chain
    # a child of the quarantined event forces it back in
    child = make_event(1, second, ())
    report = node.ingest_events([child])
    assert second.id in node.chain
    assert child.id in node.chain


def test_later_leaf_rival_is_quarantined():
    node = fresh_node()
    leaf_a = make_leaf(1, payload=b"a")
    leaf_b = make_leaf(1, payload=b"b")
    first, second = sorted([leaf_a, leaf_b], key=lambda e: e.sort_key())
    node.ingest_events([first])
    report = node.ingest_events([second])
    assert report.quarantined == [second.id]
    assert second.id not in node.chain
    assert first.id in node.chain


def test_earlier_leaf_rival_is_inserted():
    node = fresh_node()
    leaf_a = make_leaf(1, payload=b"a")
    leaf_b = make_leaf(1, payload=b"b")
    first, second = sorted([leaf_a, leaf_b], key=lambda e: e.sort_key())
    node.ingest_events([second])
    report = node.ingest_events([first])
    assert report.accepted == [first.id]
    assert not report.quarantined
    assert report.fork_members == [first.id]
    assert node.victims == {second.id}


def test_duplicate_delivery_is_harmless():
    node = fresh_node()
    b0 = make_leaf(1)
    node.ingest_events([b0])
    report = node.ingest_events([b0])
    assert not report.accepted
    assert len(node.chain) == 1


# -- syncing and messages -----------------------------------------------------


def test_sync_roundtrip_carries_missing_events():
    a, b = fresh_node(0), fresh_node(1)
    for _ in range(3):
        b.ingest_events([a.create_event()])
        a.ingest_events([b.create_event()])
    ahead = a.create_event()
    req = a.start_sync(1)
    assert isinstance(req.payload, SyncRequest)
    resp = b.handle_sync_request(0, req.payload)
    # b answers with what a is missing relative to a's counts: nothing,
    # since a is ahead; the reverse direction carries the new event
    resp2 = a.handle_sync_request(1, SyncRequest(b.chain.known_map()))
    assert ahead.id in {e.id for e in resp2.payload.events}


def test_fork_notice_triggers_event_request():
    node = fresh_node()
    ghost_a = make_leaf(7)
    ghost_b = make_event(7, ghost_a, ())
    pair = tuple(sorted((ghost_a.id, ghost_b.id)))
    node.handle_message(Envelope(1, 0, ForkNotice(7, pair)))
    requests = [
        env for env in node.outbox if isinstance(env.payload, EventRequest)
    ]
    assert len(requests) == 1
    assert set(requests[0].payload.wanted) == set(pair)


class PairQueueFlush:
    """Test-only copy of the notice flush that queued every fork pair.

    Each insert queued its event's pair with every concurrent event of
    its creator already held, and ``step`` sent the queued pairs in
    sorted order, skipping a pair once both its members were announced.
    Received notices queue nothing: only held members are announced.
    """

    def __init__(self):
        self.queue = []
        self.announced = set()
        self.flushed = 0  # chain events already paired

    def flush(self, node):
        chain = node.chain
        order = [e.id for e in chain.in_insertion_order()]
        for y in order[self.flushed:]:
            for x in chain.by_creator[chain.get(y).creator]:
                if chain.index_of(x) < chain.index_of(y) and not (
                    chain.self_ancestor(x, y) or chain.self_ancestor(y, x)
                ):
                    self.queue.append((min(x, y), max(x, y)))
        self.flushed = len(order)
        out = []
        for pair in sorted(self.queue):
            if pair[0] in self.announced and pair[1] in self.announced:
                continue
            creator = chain.get(pair[0]).creator if pair[0] in chain else -1
            out += [
                Envelope(node.id, p, ForkNotice(creator, pair))
                for p in sorted(node.syncs_initiated)
            ]
            self.announced.update(pair)
        self.queue = []
        return out


def check_notices_against_pair_queue(monkeypatch):
    """Make every ``step`` assert its ForkNotices equal the pair-queue flush's.

    Returns counters of notices sent and of notices that arrived while a
    member they name was not held.
    """
    step, handle = NodeState.step, NodeState.handle_message
    flushes = {}
    seen = {"sent": 0, "early": 0}

    def handle_message(node, env):
        if isinstance(env.payload, ForkNotice):
            seen["early"] += any(x not in node.chain for x in env.payload.pair)
        handle(node, env)

    def checked_step(node, step_no, inbox, emit=True):
        out = step(node, step_no, inbox, emit)
        notices = [env for env in out if isinstance(env.payload, ForkNotice)]
        assert notices == flushes.setdefault(id(node), PairQueueFlush()).flush(node)
        seen["sent"] += len(notices)
        return out

    monkeypatch.setattr(NodeState, "handle_message", handle_message)
    monkeypatch.setattr(NodeState, "step", checked_step)
    return seen


def notices(out):
    return [env.payload for env in out if isinstance(env.payload, ForkNotice)]


def test_notice_for_members_not_yet_held_is_not_relayed(monkeypatch):
    seen = check_notices_against_pair_queue(monkeypatch)
    node = fresh_node()
    b0 = make_leaf(1)
    rivals = [make_event(1, b0, (), payload=p) for p in (b"a", b"b")]
    first, second = sorted(rivals, key=lambda e: e.sort_key())
    child = make_event(1, second, (), payload=b"c")
    pair = tuple(sorted((first.id, second.id)))
    # the notice comes first: its members are asked for, not announced
    out = node.step(0, [Envelope(2, 0, ForkNotice(1, pair))])
    assert not notices(out)
    (request,) = [env for env in out if isinstance(env.payload, EventRequest)]
    assert request.dst == 2 and set(request.payload.wanted) == set(pair)
    assert seen["early"] == 1
    # one member held and the other quarantined is no fork here yet
    out = node.step(1, [Envelope(2, 0, Broadcast((b0, first, second)))])
    assert not notices(out)
    assert second.id in node.quarantine
    # the child pulls the quarantined member in: both new members go out
    out = node.step(2, [Envelope(2, 0, Broadcast((child,)))])
    pairs = sorted({pair, tuple(sorted((first.id, child.id)))})
    assert notices(out) == [ForkNotice(1, p) for p in pairs for _ in range(3)]
    assert seen["sent"] == 6


def test_notice_naming_made_up_ids_is_not_relayed():
    node = fresh_node()
    junk = tuple(sorted((b"\x01" * 32, b"\x02" * 32)))
    out = node.step(0, [Envelope(2, 0, ForkNotice(1, junk))])
    assert not notices(out)
    assert [env.dst for env in out if isinstance(env.payload, EventRequest)] == [2]
    out = node.step(1, [])
    assert not notices(out)
    assert node._announced == set()


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
def test_fork_notices_match_the_pair_queue_flush(cfg, monkeypatch):
    seen = check_notices_against_pair_queue(monkeypatch)
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
    node = fresh_node(0, 4)
    outbox = node.step(1, [])
    casts = [env for env in outbox if isinstance(env.payload, Broadcast)]
    assert {env.dst for env in casts} == {1, 2, 3}
    syncs = [env for env in outbox if isinstance(env.payload, SyncRequest)]
    assert len(syncs) >= 1


# -- peer strategies -----------------------------------------------------------


@pytest.mark.parametrize("strategy", list(PeerStrategy))
def test_strategies_return_valid_peers(strategy):
    node = fresh_node(2, 6, strategy=strategy)
    for _ in range(20):
        chosen = node.select_peers()
        assert len(chosen) == 1
        assert chosen[0] != node.id
        assert 0 <= chosen[0] < 6
        node.syncs_initiated[chosen[0]] += 1


def test_fair_strategy_cycles_through_everyone():
    node = fresh_node(0, 5, strategy=PeerStrategy.FAIR)
    seen = set()
    for _ in range(4):
        peer = node.select_peers()[0]
        seen.add(peer)
        node.syncs_initiated[peer] += 1
    assert seen == {1, 2, 3, 4}


def test_least_used_strategy_balances():
    node = fresh_node(0, 4, strategy=PeerStrategy.LEAST_USED)
    node.syncs_initiated.update({1: 5, 2: 0, 3: 5})
    assert node.select_peers() == [2]


def test_most_used_strategy_repeats():
    node = fresh_node(0, 4, strategy=PeerStrategy.MOST_USED)
    node.syncs_initiated.update({1: 5, 2: 0, 3: 1})
    assert node.select_peers() == [1]


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
            strategy=PeerStrategy.FAIR,
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
        node = NodeState(0, n, seed="oracle-stream")
        for e in causal_shuffle(chain, rng, window=3):
            node.ingest_events([e])
            run_against_oracle(node, NodeState.run_pipeline)
        in_order = NodeState(0, n, seed="oracle-stream")
        in_order.ingest_events(list(chain.in_insertion_order()))
        in_order.run_pipeline()
        assert node.order.ordered_events == in_order.order.ordered_events
        finalized += len(node.order.ordered_events)
    assert finalized >= 300
