"""Simulation harness: determinism, convergence, and adversaries."""

import dataclasses
import io

import pytest

from layerdag import io as chainio
from layerdag import simnet
from layerdag.errors import ConfigError, InvalidCut
from layerdag.node import ConfirmationStage
from layerdag.simnet import (
    SimConfig,
    check_consistent_chains,
    check_consistent_cut,
    check_equivalence_theorems,
    check_fork_exclusion,
    check_identical_orders,
    run,
)

DELAY_MODELS = [
    ("lockstep", 0.0),
    ("rand", 2.0),
    ("reorder", 2.0),
    ("drop", 0.1),
]


def snapshot_bytes(result):
    out = {}
    for nid in sorted(result.nodes):
        buf = io.StringIO()
        chainio.write_snapshot(result.nodes[nid], buf)
        out[nid] = buf.getvalue()
    return out


# -- config validation ---------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SimConfig(n=1).validate()
    with pytest.raises(ConfigError):
        SimConfig(steps=0).validate()
    with pytest.raises(ConfigError):
        SimConfig(delay_model="carrier-pigeon").validate()
    with pytest.raises(ConfigError):
        SimConfig(delay_model="drop", delay_arg=1.5).validate()
    with pytest.raises(ConfigError):
        SimConfig(byzantine={9: "forker"}).validate()
    with pytest.raises(ConfigError):
        SimConfig(byzantine={1: "sleeper-agent"}).validate()
    with pytest.raises(ConfigError):
        SimConfig(n=4, k=9).validate()
    with pytest.raises(ConfigError):
        SimConfig(delay_model="rand", delay_arg=1.5).validate()


# -- determinism ----------------------------------------------------------------


@pytest.mark.parametrize("model,arg", DELAY_MODELS)
def test_runs_are_reproducible(model, arg):
    cfg = SimConfig(n=4, steps=60, seed="repro", delay_model=model, delay_arg=arg)
    first = run(cfg)
    second = run(cfg)
    assert snapshot_bytes(first) == snapshot_bytes(second)
    assert [t.line() for t in first.trace] == [t.line() for t in second.trace]


def test_different_seeds_diverge():
    base = SimConfig(n=4, steps=40, seed="a", delay_model="rand", delay_arg=2)
    other = dataclasses.replace(base, seed="b")
    assert snapshot_bytes(run(base)) != snapshot_bytes(run(other))


# -- honest convergence -----------------------------------------------------------


@pytest.mark.parametrize("model,arg", DELAY_MODELS)
def test_honest_nodes_agree(model, arg):
    cfg = SimConfig(n=5, steps=100, seed="agree", delay_model=model, delay_arg=arg)
    result = run(cfg)
    check_consistent_chains(result)
    check_identical_orders(result)
    ref = result.nodes[0]
    assert ref.order.ordered_events
    # drain converges the chains exactly, not just the shared part
    for nid in range(1, 5):
        assert set(result.nodes[nid].chain.events) == set(ref.chain.events)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("loss", [0.3, 0.5])
def test_pull_on_missing_reaches_every_event_before_the_drain(loss, seed):
    # broadcasts are lost and nothing resends them: a replica only gets a
    # lost event when a later arrival names it as a missing parent
    cfg = SimConfig(n=5, steps=200, seed=f"pull/{seed}", delay_model="drop", delay_arg=loss)
    checked = []

    def held_before_drain(step, nodes):
        if step != cfg.steps:
            return
        for c, creator in nodes.items():
            own = [
                eid
                for eid in creator.chain.by_creator[c]
                if creator.chain.get(eid).creation_seq < cfg.steps - 20
            ]
            assert len(own) == cfg.steps - 20
            for node in nodes.values():
                assert all(eid in node.chain for eid in own)
        checked.append(step)

    result = run(cfg, on_step=held_before_drain)
    assert checked == [cfg.steps]
    check_identical_orders(result)
    check_consistent_chains(result)


def test_equivalence_theorems_on_forkfree_run():
    cfg = SimConfig(n=5, steps=80, seed="equiv")
    result = run(cfg)
    check_equivalence_theorems(result.nodes[0].chain, 5)


@pytest.mark.parametrize(
    "model,arg", [("lockstep", 0.0), ("rand", 2.0)], ids=["lockstep", "rand2"]
)
def test_equivocator_run_that_splits_width_bounded_layers_keeps_orders_identical(
    model, arg
):
    # under online Coffman-Graham at width n these runs gave honest
    # replicas different layers, and so different final orders
    cfg = SimConfig(
        n=7,
        steps=100,
        seed="cg/0",
        byzantine={6: "equivocator"},
        delay_model=model,
        delay_arg=arg,
    )
    result = run(cfg)
    check_identical_orders(result)
    check_fork_exclusion(result)
    layers = [node.lstate.layering.phi for node in result.nodes.values()]
    assert all(phi == layers[0] for phi in layers)


def test_transactions_finalize():
    cfg = SimConfig(n=4, steps=80, seed="txs")
    txs = {0: [b"alpha", b"beta"], 2: [b"gamma"]}
    result = run(cfg, transactions=txs)
    for nid, payloads in txs.items():
        node = result.nodes[nid]
        for p in payloads:
            assert node.transaction_stage(p) == ConfirmationStage.FINALIZED
            assert node.tx_event[p] in result.nodes[1].order.ordered_events


def test_on_step_hook_observes_every_tick():
    ticks = []
    cfg = SimConfig(n=3, steps=20, seed="hook")
    run(cfg, on_step=lambda step, nodes: ticks.append(step))
    assert ticks == list(range(1, 21))


# -- byzantine scenarios -------------------------------------------------------------


@pytest.mark.parametrize(
    "byz,wp,wc",
    [
        ({6: "forker"}, 2, 2),
        ({5: "forker", 6: "forker"}, 1, 1),
        ({6: "equivocator"}, 0, 0),
        ({5: "forker", 6: "equivocator"}, 2, 2),
        ({6: "silent"}, 0, 0),
    ],
)
def test_byzantine_runs_stay_consistent(byz, wp, wc):
    cfg = SimConfig(
        n=7,
        steps=80,
        seed="byz",
        delay_model="rand",
        delay_arg=2,
        byzantine=byz,
        w_p=wp,
        w_c=wc,
    )
    result = run(cfg)
    check_consistent_chains(result)
    check_identical_orders(result)
    check_fork_exclusion(result)
    assert set(result.nodes) == set(range(7)) - set(byz)


def test_forker_actually_forks():
    cfg = SimConfig(
        n=7, steps=60, seed="fork-present", byzantine={6: "forker"}, w_p=2, w_c=2
    )
    result = run(cfg)
    assert result.nodes[0].chain.detect_forks()
    check_fork_exclusion(result)


@pytest.mark.parametrize("model,arg", DELAY_MODELS[1:])
@pytest.mark.parametrize("seed", range(3))
def test_equivocator_cites_fresh_honest_events_under_delays(model, arg, seed):
    # an adversary whose view froze after an early loss keeps citing the
    # first steps' events, so its forks never touch the live history
    steps = 100
    cfg = SimConfig(
        n=7,
        steps=steps,
        seed=f"fresh/{seed}",
        delay_model=model,
        delay_arg=arg,
        byzantine={6: "equivocator"},
    )
    result = run(cfg)
    chain = result.nodes[0].chain
    for member in result.byzantine[6].forked[-2:]:
        assert member.other_refs
        for ref in member.other_refs:
            cited = chain.get(ref)
            assert cited.creator in result.nodes
            assert cited.creation_seq >= steps - 5


@pytest.mark.parametrize("model,arg", DELAY_MODELS)
def test_forked_runs_end_with_one_chain_on_every_replica(model, arg):
    # every valid event enters the chain, so the drain leaves each honest
    # replica holding every fork member any of them holds
    cfg = SimConfig(
        n=7,
        steps=40,
        seed="same-chain/both/0",
        delay_model=model,
        delay_arg=arg,
        byzantine={5: "forker", 6: "equivocator"},
        w_p=2,
        w_c=2,
    )
    result = run(cfg)
    held = {nid: set(node.chain.events) for nid, node in result.nodes.items()}
    assert all(ids == held[0] for ids in held.values())
    assert result.nodes[0].chain.detect_forks()


@pytest.mark.parametrize("seed", ["bi/0", "bi/9"])
def test_the_drain_hands_held_back_events_to_every_replica(seed):
    # on these lossy runs some events are in no honest chain, only held
    # back, and a replica places one once the drain brings its refs; the
    # drain must hand it to every other replica too
    cfg = SimConfig(
        n=7,
        steps=120,
        seed=seed,
        delay_model="drop",
        delay_arg=0.3,
        byzantine={6: "equivocator"},
    )
    result = run(cfg)
    held = {nid: set(node.chain.events) for nid, node in result.nodes.items()}
    assert all(ids == held[0] for ids in held.values())


def test_lost_fork_notices_keep_orders_identical_and_fork_free():
    # a lost notice loses every pair its sender found that step; members
    # still arrive as missing parents or through later peers' notices
    forked = 0
    for seed in range(12):
        cfg = SimConfig(
            n=7,
            steps=100,
            seed=f"lossy-notice/{seed}",
            delay_model="drop",
            delay_arg=0.3,
            byzantine={6: "equivocator"},
        )
        result = run(cfg)
        check_identical_orders(result)
        check_fork_exclusion(result)
        assert result.nodes[0].order.ordered_events
        forked += bool(result.nodes[0].chain.detect_forks())
    # the equivocator never resends, so a lost early event can keep one
    # branch out of every honest chain (seed 5)
    assert forked >= 10


def test_silent_node_slows_but_does_not_stop_finality():
    cfg = SimConfig(n=7, steps=80, seed="quiet", byzantine={6: "silent"})
    result = run(cfg)
    assert result.nodes[0].order.ordered_events


# -- schedules that once split or stalled finality --------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_a_straggler_does_not_split_honest_orders(seed, monkeypatch):
    # node 4's messages arrive 20 steps late through step 150, past any
    # delay the rand:2 model itself makes
    send = simnet.Transport.send

    def late(transport, env, now):
        return send(transport, env, now + 20 if env.src == 4 and now <= 150 else now)

    monkeypatch.setattr(simnet.Transport, "send", late)
    cfg = SimConfig(n=5, steps=300, seed=f"strag/{seed}", delay_model="rand", delay_arg=2)
    result = run(cfg)
    check_identical_orders(result)
    assert len(result.nodes[0].order.ordered_events) >= 1200


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(
            n=7,
            steps=300,
            seed="fp/1",
            delay_model="reorder",
            delay_arg=2,
            byzantine={5: "forker", 6: "forker"},
        ),
        SimConfig(n=10, steps=200, seed="fp/2", delay_model="rand", delay_arg=3),
    ],
    ids=["fp1-reorder-forkers", "fp2-n10-rand3"],
)
def test_frames_stay_thick_enough_to_finalize(cfg):
    result = run(cfg)
    check_identical_orders(result)
    for node in result.nodes.values():
        assert len(node.order.ordered_events) >= 0.85 * len(node.chain)


# -- negative controls for the checkers ----------------------------------------------


def test_check_consistent_chains_flags_mutation():
    cfg = SimConfig(n=4, steps=40, seed="mutate")
    result = run(cfg)
    victim = result.nodes[3]
    eid = victim.order.ordered_events[0]
    original = victim.chain.get(eid)
    corrupted = dataclasses.replace(original, payload=b"tampered")
    victim.chain.events[eid] = corrupted
    with pytest.raises(AssertionError, match="differs"):
        check_consistent_chains(result)


def test_check_identical_orders_flags_divergence():
    cfg = SimConfig(n=4, steps=40, seed="orders")
    result = run(cfg)
    result.nodes[2].order.ordered_events.pop()
    with pytest.raises(AssertionError, match="diverges"):
        check_identical_orders(result)


def test_check_consistent_cut_flags_open_cut():
    cfg = SimConfig(n=4, steps=30, seed="cut")
    result = run(cfg)
    node = result.nodes[0]
    cut = node.estimate_global_state()
    check_consistent_cut(node, cut)  # sane cut passes
    # removing an interior event opens the cut
    victim = next(
        eid for eid in cut if any(r in cut for e in [node.chain.get(eid)] for r in e.refs)
    )
    parent = node.chain.get(victim).refs[0]
    cut.discard(parent)
    with pytest.raises(InvalidCut):
        check_consistent_cut(node, cut)


def test_check_fork_exclusion_flags_double_finalization():
    cfg = SimConfig(
        n=7, steps=60, seed="fork-neg", byzantine={6: "forker"}, w_p=2, w_c=2
    )
    result = run(cfg)
    node = result.nodes[0]
    pairs = node.chain.detect_forks()
    assert pairs
    a, b = pairs[0]
    final = set(node.order.ordered_events)
    missing = [x for x in (a, b) if x not in final]
    node.order.ordered_events.extend(missing)
    with pytest.raises(AssertionError, match="fork pair"):
        check_fork_exclusion(result)
