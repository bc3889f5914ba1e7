"""Tests of the benchmark itself: every output check rejects a corrupted result.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import run as bench
from layerdag.node import ConfirmationStage
from layerdag.roots import quorum
from tracing import Tracer
from workloads import Workload, run_sim

HONEST = Workload("t-honest", "", n=5, steps=60, tail=20, sims=1)
FORKED = Workload("t-equivocator", "", n=5, steps=60, tail=20, sims=1, byzantine=((4, "equivocator"),))


def simulate(workload: Workload, tmp_path: Path, tracer: Tracer | None = None):
    cfg, txs = workload.inputs(0)[0]
    if tracer is None:
        sim = run_sim(workload, cfg, txs, tmp_path)
    else:
        with tracer.installed():
            sim = run_sim(workload, cfg, txs, tmp_path)
    return sim, txs


@pytest.fixture
def honest(tmp_path):
    return simulate(HONEST, tmp_path)


@pytest.fixture
def forked(tmp_path):
    return simulate(FORKED, tmp_path)


def fails(fn, *args) -> None:
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def test_clean_runs_pass_every_check(honest, forked):
    for (sim, txs), workload in ((honest, HONEST), (forked, FORKED)):
        assert checks.count_failed(sim.result, txs) == 0
        assert any(node.clothos for node in sim.result.nodes.values())
        checks.check_output(sim.result, sim.observer, workload, txs)


def test_dag_matches_the_chain_reachability(honest):
    sim, _ = honest
    chain = sim.result.nodes[0].chain
    dag = checks.Dag(chain.events)
    ids = list(chain.events)[::7]
    for x in ids:
        for y in ids:
            assert dag.reaches(x, y) == (x == y or chain.happened_before(y, x))


def test_conservation_catches_a_missing_event(honest):
    sim, _ = honest
    chain = sim.result.nodes[2].chain
    del chain.events[chain.by_creator[1][-1]]
    fails(checks.check_conservation, sim.result, HONEST)


def test_layers_catch_a_shifted_layer(honest):
    sim, _ = honest
    dag = checks.Dag(checks.all_events(sim.result))
    phi = sim.result.nodes[1].lstate.layering.phi
    eid = next(iter(phi))
    phi[eid] += 1
    fails(checks.check_layers, sim.result, dag)


def test_orders_catch_one_node_diverging(honest):
    sim, _ = honest
    order = sim.result.nodes[3].order.ordered_events
    order[4], order[5] = order[5], order[4]
    fails(checks.check_orders, sim.result, sim.observer)


def test_orders_catch_a_child_before_its_parent(honest):
    sim, _ = honest
    node = sim.result.nodes[0]
    order = node.order.ordered_events
    i = next(i for i, eid in enumerate(order) if i > 0 and order[i - 1] in node.chain.get(eid).refs)
    for n in sim.result.nodes.values():
        o = n.order.ordered_events
        o[i - 1], o[i] = o[i], o[i - 1]
    sim.observer.seen_order = {nid: [] for nid in sim.observer.seen_order}
    fails(checks.check_orders, sim.result, sim.observer)


def test_orders_catch_a_retracted_prefix(honest):
    sim, _ = honest
    seen = sim.observer.seen_order[2]
    seen[0], seen[1] = seen[1], seen[0]
    fails(checks.check_orders, sim.result, sim.observer)


def test_observer_flags_an_emitted_order_that_changed(honest):
    sim, _ = honest
    order = sim.result.nodes[4].order.ordered_events
    last = len(sim.observer.seen_order[4]) - 1
    order[last], order[last - 1] = order[last - 1], order[last]
    sim.observer(sim.result.steps_run + 1, sim.result.nodes)
    assert sim.observer.retractions
    fails(checks.check_orders, sim.result, sim.observer)


def test_orders_catch_an_order_that_shrank(honest):
    sim, _ = honest
    lengths = sim.observer.seen_lengths[1]
    lengths.insert(len(lengths) // 2, lengths[-1] + 1)
    fails(checks.check_orders, sim.result, sim.observer)


def clotho(sim):
    node = sim.result.nodes[0]
    root, rec = next(iter(node.clothos.items()))
    return node, root, rec


def test_clothos_catch_a_dropped_witness(honest):
    sim, _ = honest
    dag = checks.Dag(checks.all_events(sim.result))
    node, root, rec = clotho(sim)
    kept = frozenset(sorted(rec.witnesses)[: quorum(HONEST.n) - 1])
    node.clothos[root] = dataclasses.replace(rec, witnesses=kept)
    fails(checks.check_clothos, sim.result, dag)


def test_clothos_catch_a_witness_that_does_not_reach(honest):
    sim, _ = honest
    dag = checks.Dag(checks.all_events(sim.result))
    node, root, rec = clotho(sim)
    # a leaf reaches nothing but itself
    stranger = next(e.id for e in node.chain.events.values() if e.is_leaf and e.id != root)
    swapped = set(rec.witnesses)
    swapped.pop()
    swapped.add(stranger)
    node.clothos[root] = dataclasses.replace(rec, witnesses=frozenset(swapped))
    fails(checks.check_clothos, sim.result, dag)


def test_clothos_catch_a_nominator_that_does_not_reach(honest):
    sim, _ = honest
    dag = checks.Dag(checks.all_events(sim.result))
    node, root, rec = clotho(sim)
    node.clothos[root] = dataclasses.replace(rec, nominator=root)
    fails(checks.check_clothos, sim.result, dag)


def test_branches_catch_an_event_from_the_other_branch(forked):
    sim, _ = forked
    node = sim.result.nodes[0]
    order = node.order.ordered_events
    finalized = [node.chain.get(e) for e in order if node.chain.get(e).creator == 4]
    assert finalized, "the equivocator should have events in the final order"
    branch = finalized[0].payload.split(b":")[1]
    other = next(
        e.id
        for e in node.chain.events.values()
        if e.creator == 4 and e.payload.split(b":")[1] != branch
    )
    order.append(other)
    fails(checks.check_branches, sim.result, FORKED)


def test_transactions_catch_a_twice_ordered_event(honest):
    sim, txs = honest
    node = sim.result.nodes[1]
    node.order.ordered_events.append(node.tx_event[txs[1][0]])
    fails(checks.check_transactions, sim.result, txs)


def test_transactions_catch_a_transaction_mapped_to_another_event(honest):
    sim, txs = honest
    node = sim.result.nodes[1]
    node.tx_event[txs[1][0]] = node.tx_event[txs[1][1]]
    fails(checks.check_transactions, sim.result, txs)


def test_count_failed_counts_unfinalized_transactions(honest):
    sim, txs = honest
    node = sim.result.nodes[2]
    node.stages[txs[2][0]] = ConfirmationStage.CLOTHO_CONFIRMED
    assert checks.count_failed(sim.result, txs) == 1


def test_traced_totals_agree_and_catch_a_miscount(tmp_path):
    tracer = Tracer()
    sim, txs = simulate(FORKED, tmp_path, tracer)
    calls, self_s = tracer.totals()
    handled = Counter({k: calls[f"node.handle_message.{k}"] for k in bench.MESSAGE_KINDS})
    accepted = tracer.counts["node.ingest_events.accepted"]
    checks.check_handled(sim.result, handled)
    checks.check_accepted(sim.result, accepted)
    assert handled["ForkNotice"] > 0 and calls["chain.insert"] > 0
    assert all(t >= 0 for t in self_s.values())
    handled["Broadcast"] += 1
    fails(checks.check_handled, sim.result, handled)
    fails(checks.check_accepted, sim.result, accepted - 1)
    fails(checks.check_same_order, "a", "b")


def test_tracing_restores_the_originals_and_keeps_the_order(tmp_path):
    import layerdag.chain
    import layerdag.node

    before = (layerdag.node.select_clothos, layerdag.chain.Chain.insert)
    plain, _ = simulate(HONEST, tmp_path / "plain")
    traced, _ = simulate(HONEST, tmp_path / "traced", Tracer())
    assert (layerdag.node.select_clothos, layerdag.chain.Chain.insert) == before
    assert plain.digest == traced.digest


def test_benchmark_json_lists_exactly_the_metrics_computed(tmp_path):
    from workloads import WORKLOADS

    spec = json.loads(bench.SPEC.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    plain, _ = simulate(HONEST, tmp_path / "plain")
    rounds = [[bench.sim_stats(plain, 0)]]
    assert list(bench.end_to_end(rounds, 0.1, 50.0)) == list(bench.metric_units("end_to_end"))
    tracer = Tracer()
    traced, _ = simulate(FORKED, tmp_path / "traced", tracer)
    sample = bench.layer_sample(tracer, traced)
    assert sorted(bench.per_layer([sample], 1.0)) == sorted(bench.metric_units("per_layer"))


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "honest-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
