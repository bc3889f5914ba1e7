"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N ...: PASS`` line on
success (run with ``-s`` or check the captured output), and the
parameters — chain counts, node counts, step counts, tolerances — are
pinned here rather than derived, so a green run of this module is the
release gate.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

import pytest

from chaingen import random_chain
from layerdag.chain import Chain
from layerdag.cli import EXIT_OK, main
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

CHAIN_COUNT = 1_000
DELAY_MODELS = [("lockstep", 0.0), ("rand", 3.0), ("reorder", 2.0), ("drop", 0.1)]


def _passed(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {name}: PASS{suffix}")


def corpus_chain(i: int) -> tuple[Chain, int]:
    """Chain ``i`` of the shared 1,000-chain corpus (n in 3..8, <=200 events)."""
    rng = random.Random(f"acceptance-corpus/{i}")
    n = rng.randint(3, 8)
    events = rng.randint(n, 200)
    return random_chain(rng, n, events), n


def longest_path_brute(chain: Chain) -> dict:
    """Longest ref-path to a leaf, counted independently of the layering code."""
    depth: dict = {}
    for e in chain.in_insertion_order():  # causal order: parents first
        best = 0
        for r in e.refs:
            best = max(best, depth[r])
        depth[e.id] = best + 1
    return depth


# -- 1: layering correctness ------------------------------------------------


def test_criterion_1_layering_correctness():
    started = time.monotonic()
    for i in range(CHAIN_COUNT):
        chain, _ = corpus_chain(i)
        layering = layer_lpl(chain)
        oracle = longest_path_brute(chain)
        assert layering.phi == oracle, f"LPL mismatch on corpus chain {i}"
        phi = layering.phi
        for e in chain.in_insertion_order():
            for r in e.refs:
                assert phi[e.id] >= phi[r] + 1, f"edge span violated on chain {i}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"layering sweep took {elapsed:.1f}s (budget 30s)"
    _passed(1, "layering correctness", f"{CHAIN_COUNT} chains in {elapsed:.1f}s")


# -- 2: online/batch equivalence ---------------------------------------------


def test_criterion_2_online_batch_equivalence():
    for i in range(CHAIN_COUNT):
        chain, n = corpus_chain(i)
        width = math.ceil(max_width(n))
        lpl_state = LayeringState(Layering())
        cg_state = LayeringState(Layering())
        replay = Chain()
        for e in chain.in_insertion_order():
            replay.insert(e)
            diff = DiffGraph((e.id,), tuple((e.id, r) for r in e.refs))
            layer_lpl_online(lpl_state, diff, replay)
            layer_cg_online(cg_state, width, diff, replay)
        assert lpl_state.layering.phi == layer_lpl(chain).phi, f"O-LPL mismatch, chain {i}"
        batch_cg = layer_cg(chain, width, transitive_reduce(chain))
        assert cg_state.layering.phi == batch_cg.phi, f"O-CG mismatch, chain {i}"
    _passed(2, "online/batch equivalence", f"{CHAIN_COUNT} chains, zero mismatches")


# -- 3: LPL/CG equivalence theorem -------------------------------------------


def test_criterion_3_lpl_cg_theorem():
    for n in (4, 5, 7):
        result = run(SimConfig(n=n, steps=300, seed=f"acc3/{n}"))
        for nid, node in sorted(result.nodes.items()):
            check_equivalence_theorems(node.chain, n)
            layering = layer_lpl(node.chain)
            for members in layering.layers.values():
                assert len(members) <= n, f"layer wider than n={n} on node {nid}"
    for n in (4, 5, 7):
        cfg = SimConfig(
            n=n,
            steps=300,
            seed=f"acc3-fork/{n}",
            byzantine={n - 1: "forker"},
            w_p=1,
            w_c=1,
        )
        result = run(cfg)
        for node in result.nodes.values():
            check_equivalence_theorems(node.chain, n, w_p=1, w_c=1)
    _passed(3, "LPL/CG theorem", "n in {4,5,7}, honest and forker runs")


# -- 4 and 8 share the same 50 honest runs ------------------------------------


@pytest.fixture(scope="module")
def honest_runs():
    results = []
    started = time.monotonic()
    for i in range(50):
        model, arg = DELAY_MODELS[i % len(DELAY_MODELS)]
        cfg = SimConfig(
            n=5, steps=300, seed=f"acc4/{i}", delay_model=model, delay_arg=arg
        )
        results.append(run(cfg))
    return results, time.monotonic() - started


def test_criterion_4_consistency_theorems(honest_runs):
    results, elapsed = honest_runs
    for i, result in enumerate(results):
        check_consistent_chains(result)
        check_identical_orders(result)
        nodes = sorted(result.nodes)
        frames = {
            nid: {r: rec.frame for r, rec in result.nodes[nid].engine.graph.roots.items()}
            for nid in nodes
        }
        for a in nodes:
            for b in nodes:
                if a >= b:
                    continue
                for root in frames[a].keys() & frames[b].keys():
                    assert frames[a][root] == frames[b][root], (
                        f"run {i}: nodes {a}/{b} disagree on a root frame"
                    )
        orders = {tuple(n.order.ordered_events) for n in result.nodes.values()}
        assert len(orders) == 1, f"run {i}: divergent final orders"
    assert elapsed < 120.0, f"50 honest runs took {elapsed:.1f}s (budget 120s)"
    _passed(4, "consistency theorems", f"50 runs in {elapsed:.1f}s")


def test_criterion_8_consistent_cut(honest_runs):
    results, _ = honest_runs
    checked = 0
    for result in results:
        for node in result.nodes.values():
            check_consistent_cut(node, node.estimate_global_state())
            checked += 1
    _passed(8, "consistent cuts", f"{checked} cuts closed under ancestry")


# -- 5: BFT fork exclusion -----------------------------------------------------


def _fork_pairs(members):
    """Id-sorted pairs of members where neither is a self-ancestor of the other."""
    by_id = {e.id: e for e in members}
    below = {}
    for e in members:
        below[e.id] = set()
        x = e
        while x.self_ref in by_id:
            x = by_id[x.self_ref]
            below[e.id].add(x.id)
    return {
        (min(a.id, b.id), max(a.id, b.id))
        for i, a in enumerate(members)
        for b in members[:i]
        if a.id not in below[b.id] and b.id not in below[a.id]
    }


def test_criterion_5_fork_exclusion():
    for i in range(50):
        # under lockstep every seed gives one outcome, so rotate the delays
        model, arg = DELAY_MODELS[i % len(DELAY_MODELS)]
        cfg = SimConfig(
            n=7,
            steps=200,
            seed=f"acc5/{i}",
            byzantine={5: "forker", 6: "forker"},
            w_p=1,
            w_c=1,
            delay_model=model,
            delay_arg=arg,
        )
        result = run(cfg)
        check_fork_exclusion(result)
        check_identical_orders(result)
        # exclusion holds vacuously over an empty order, so require one
        for nid, node in result.nodes.items():
            honest = [e for e in node.chain.events.values() if e.creator in result.nodes]
            final_honest = sum(
                1 for e in node.order.ordered_events if node.chain.get(e).creator in result.nodes
            )
            assert 2 * final_honest >= len(honest), (
                f"run {i} ({model}): node {nid} finalized {final_honest} "
                f"of {len(honest)} honest events"
            )
        # ground-truth pairs come from the members the cheaters emitted,
        # since a member that never reached an honest node is not in its chain
        pairs = set()
        for byz in result.byzantine.values():
            pairs.update(_fork_pairs(byz.forked))
        assert pairs, f"run {i}: forkers produced no fork pairs"
        for nid, node in result.nodes.items():
            final = set(node.order.ordered_events)
            for a, b in pairs:
                assert not (a in final and b in final), (
                    f"run {i}: node {nid} finalized both members of a fork pair"
                )
    _passed(5, "BFT fork exclusion", "50 runs, n=7, two forkers, all delay models")


# -- 6: prefix stability --------------------------------------------------------


def test_criterion_6_prefix_stability():
    for i in range(20):
        model, arg = DELAY_MODELS[i % len(DELAY_MODELS)]
        short_cfg = SimConfig(
            n=5, steps=300, seed=f"acc6/{i}", delay_model=model, delay_arg=arg
        )
        long_cfg = SimConfig(
            n=5, steps=400, seed=f"acc6/{i}", delay_model=model, delay_arg=arg
        )
        short = run(short_cfg)
        long = run(long_cfg)
        for nid in short.nodes:
            a = short.nodes[nid].order.ordered_events
            b = long.nodes[nid].order.ordered_events
            assert b[: len(a)] == a, f"seed {i}: node {nid} order is not a prefix"
    _passed(6, "prefix stability", "20 seeds, 300 vs 400 steps")


# -- 7: determinism --------------------------------------------------------------


def _artifact_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_criterion_7_determinism(tmp_path):
    scenarios = [
        ["--nodes", "5", "--steps", "120", "--seed", "det-a", "--delay", "rand:3"],
        ["--nodes", "4", "--steps", "120", "--seed", "det-b", "--delay", "drop:0.1"],
        [
            "--nodes", "7", "--steps", "120", "--seed", "det-c",
            "--byzantine", "6:forker", "--wp", "1", "--wc", "1",
        ],
    ]
    for idx, argv in enumerate(scenarios):
        digests = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{idx}-{attempt}"
            assert main(["run", *argv, "--out", str(out)]) == EXIT_OK
            digests.append(_artifact_digest(out))
        assert digests[0] == digests[1], f"scenario {idx} artifacts diverged"
    _passed(7, "determinism", "snapshots, traces and reports digest-identical")


# -- 9: confirmation pipeline -----------------------------------------------------


def test_criterion_9_confirmation_pipeline():
    steps = 300
    txs = {nid: [b"tx:%d:%d" % (nid, j) for j in range(40)] for nid in range(5)}
    last_seen: dict[tuple[int, bytes], ConfirmationStage] = {}

    def watch(step_no, honest):
        for nid, node in honest.items():
            for payload, stage in node.stages.items():
                key = (nid, payload)
                prev = last_seen.get(key, ConfirmationStage.SUBMITTED)
                assert stage >= prev, (
                    f"step {step_no}: tx {payload!r} regressed {prev} -> {stage}"
                )
                last_seen[key] = stage

    for i in range(5):
        last_seen.clear()
        cfg = SimConfig(n=5, steps=steps, seed=f"acc9/{i}")
        result = run(cfg, transactions=txs, on_step=watch)
        total = finalized = 0
        for nid, node in result.nodes.items():
            for payload in txs[nid]:
                total += 1
                if node.transaction_stage(payload) == ConfirmationStage.FINALIZED:
                    finalized += 1
        rate = finalized / total
        assert rate >= 0.95, f"seed {i}: only {rate:.1%} of transactions finalized"
    _passed(9, "confirmation pipeline", ">=95% finalized, stages monotone")
