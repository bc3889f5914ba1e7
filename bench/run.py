"""layerdag benchmark: one workload, one seed, whole rounds of simulations.

    python3 bench/run.py --workload honest-long --seed 1 --seconds 40 --trace 0

A round runs each of the workload's simulations once (see
``workloads.py``): one ``simnet.run`` with transactions and a read-only
observer, then the per-node snapshots and the trace written as
``layerdag run --out`` writes them.  A run makes at least one round, and
another one only if it should still end within ``--seconds``; a later
round must reproduce the first one's final orders.  An operation is one
submitted transaction; it fails when its node does not report it
``FINALIZED`` once ``run`` returns.  Every simulation of the first round
is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same untraced rounds, then one more round with every module's public
functions wrapped in spans (see ``tracing.py``), and reports the
per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SPEC = BENCH.parent / "BENCHMARK.json"

MESSAGE_KINDS = ("SyncRequest", "SyncResponse", "Broadcast", "ForkNotice", "EventRequest", "EventResponse")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def process_age() -> float:
    """Seconds since this process started (Linux ``/proc``)."""
    with open("/proc/self/stat") as fh:
        # field 22, counted after the parenthesised command name
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def nearest_rank(sorted_values: list[int], share: float) -> int:
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def traffic(result) -> tuple[int, int, dict[str, int], int]:
    """Messages sent (dropped included), event blocks they carried, per-kind counts, drops."""
    msgs = 0
    carried = 0
    dropped = 0
    kinds = dict.fromkeys(MESSAGE_KINDS, 0)
    for t in result.trace:
        msgs += 1
        action, kind = t.kind.split(":", 1)
        kinds[kind] += 1
        if action == "drop":
            dropped += 1
        s = t.summary
        if kind == "Broadcast":
            carried += s.count(",") + 1
        elif kind in ("SyncResponse", "EventResponse"):
            carried += int(s[s.index("[") + 1 : -1])
    return msgs, carried, kinds, dropped


@dataclass
class SimStats:
    """What the metrics need from one simulation, so its result can be dropped."""

    run_s: float
    finalized: int
    lags: list[int]
    msgs: int
    carried: int
    failed: int
    digest: str


def sim_stats(sim, failed: int) -> SimStats:
    result = sim.result
    msgs, carried, _, _ = traffic(result)
    return SimStats(
        run_s=sim.run_s,
        finalized=len(result.nodes[min(result.nodes)].order.ordered_events),
        lags=sim.observer.lags(),
        msgs=msgs,
        carried=carried,
        failed=failed,
        digest=sim.digest,
    )


def seconds_per_sim(rounds: list[list[SimStats]]) -> float:
    """Mean seconds per simulation within a round; the median over rounds."""
    return statistics.median(sum(s.run_s for s in rnd) / len(rnd) for rnd in rounds)


def end_to_end(rounds: list[list[SimStats]], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    first = rounds[0]
    sims = len(first)
    run_s = seconds_per_sim(rounds)
    finalized = sum(s.finalized for s in first)
    lags = sorted(lag for s in first for lag in s.lags)
    # one simulation's longest stall would set a pooled 99th percentile,
    # so take it per simulation and report the median over the simulations
    p99 = statistics.median(nearest_rank(s.lags, 0.99) for s in first)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "finalized_per_s": finalized / sims / run_s,
        "finalized_events": finalized / sims,
        "tx_lag_p50_steps": statistics.median(lags),
        "tx_lag_p99_steps": p99,
        "msgs_per_finalized": sum(s.msgs for s in first) / finalized,
        "events_sent_per_finalized": sum(s.carried for s in first) / finalized,
        "peak_rss_mb": peak_rss_mb,
    }


SELF_TIMED = (
    "events.new_event", "chain.insert", "chain.diff_events", "chain.closure_of_limited",
    "chain.closure_of", "layering.online", "roots.update", "finality.select_clothos",
    "finality.select_atropos", "finality.topo_sort_finalize", "finality.check_prefix",
    "node.run_pipeline", "node.ingest_events", "node.create_event", "io.write_snapshot",
    "io.write_trace",
)
CALLED = (
    "events.new_event", "chain.insert", "chain.diff_events", "chain.closure_of_limited",
    "layering.online", "roots.update", "node.run_pipeline",
)
COUNTED = (
    "chain.insert.fork_pairs", "chain.diff_events.events", "chain.closure_of_limited.events",
    "layering.online.vertices", "roots.layers_replayed", "node.ingest_events.offered",
    "node.ingest_events.accepted",
)


def layer_sample(tracer, sim) -> tuple[dict[str, float], dict[str, int]]:
    """Additive per-layer quantities of one traced simulation, and its peaks."""
    calls, self_s = tracer.totals()
    result = sim.result
    honest = result.nodes.values()
    ref = result.nodes[min(result.nodes)]
    _, _, kinds, dropped = traffic(result)
    m: dict[str, float] = {}
    for span in CALLED:
        m[f"{span}.calls"] = calls[span]
    for span in SELF_TIMED:
        m[f"{span}.self_s"] = self_s[span]
    for key in COUNTED:
        m[key] = tracer.counts[key]
    for kind in MESSAGE_KINDS:
        m[f"node.handle_message.{kind}.calls"] = calls[f"node.handle_message.{kind}"]
        m[f"node.handle_message.{kind}.self_s"] = self_s[f"node.handle_message.{kind}"]
        m[f"simnet.msgs.{kind}"] = kinds[kind]
    m.update({
        "chain.fork_pairs_held": sum(len(node.chain.detect_forks()) for node in honest),
        "roots.rollbacks": sum(node.engine.generation for node in honest),
        "roots.roots": len(ref.engine.graph.roots),
        "finality.clothos": len(ref.clothos),
        "simnet.stepped_s": sim.stepped_s,
        "simnet.drain_s": sim.drain_s,
        "simnet.dropped": dropped,
        "io.bytes": sim.out_bytes,
        "traced_run_s": sim.run_s,
    })
    peaks = {
        "node.pending_peak": sim.observer.pending_peak,
        "node.quarantine_peak": sim.observer.quarantine_peak,
    }
    return m, peaks


def per_layer(samples, untraced_run_s: float) -> dict[str, float]:
    """Means over the traced round's simulations; peaks are maxima, ratios use the sums."""
    sims = len(samples)
    keys = samples[0][0]
    m = {k: sum(s[k] for s, _ in samples) / sims for k in keys}
    for k in samples[0][1]:
        m[k] = max(p[k] for _, p in samples)
    m["finality.clotho_yield"] = m["finality.clothos"] / m["roots.roots"]
    offered = m["node.ingest_events.offered"]
    m["node.ingest.useful_ratio"] = m["node.ingest_events.accepted"] / offered if offered else 0.0
    m["trace.overhead_s"] = m.pop("traced_run_s") - untraced_run_s
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "layerdag" / "__init__.py").is_file():
        print(f"bench: no layerdag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import WORKLOADS, run_sim

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    n_txs = sum(len(v) for _, txs in inputs for v in txs.values())
    setup_s = process_age()

    problems: list[str] = []
    rounds: list[list[SimStats]] = []
    peak_rss_mb = 0.0
    began = time.perf_counter()
    round_s = 0.0
    # whole rounds only: another one starts if it should still end within --seconds
    while not rounds or time.perf_counter() - began + round_s <= args.seconds:
        round_began = time.perf_counter()
        stats = []
        for k, (cfg, txs) in enumerate(inputs):
            # the previous simulation's result is dropped below, so one
            # simulation at a time sets the peak memory
            gc.collect()
            sim = run_sim(workload, cfg, txs, OUT / workload.name / f"sim{k}")
            peak_rss_mb = max(peak_rss_mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            stats.append(sim_stats(sim, checks.count_failed(sim.result, txs)))
            if not rounds:
                try:
                    checks.check_output(sim.result, sim.observer, workload, txs)
                except checks.CheckFailed as exc:
                    problems.append(f"simulation {cfg.seed}: {exc}")
            sim.result = None
        rounds.append(stats)
        round_s = time.perf_counter() - round_began
    if any(s.digest != f.digest for rnd in rounds[1:] for s, f in zip(rnd, rounds[0])):
        problems.append("rounds of the same inputs produced different final orders")
    attempted = n_txs * len(rounds)
    failed = sum(s.failed for rnd in rounds for s in rnd)

    if args.trace:
        from tracing import Tracer

        samples = []
        for k, (cfg, txs) in enumerate(inputs):
            gc.collect()
            tracer = Tracer()
            out = OUT / workload.name / f"sim{k}"
            with tracer.installed():
                sim = run_sim(workload, cfg, txs, out)
            attempted += sum(len(v) for v in txs.values())
            failed += checks.count_failed(sim.result, txs)
            calls, _ = tracer.totals()
            try:
                checks.check_handled(
                    sim.result,
                    Counter({kind: calls[f"node.handle_message.{kind}"] for kind in MESSAGE_KINDS}),
                )
                checks.check_accepted(sim.result, tracer.counts["node.ingest_events.accepted"])
                checks.check_same_order(rounds[0][k].digest, sim.digest)
            except checks.CheckFailed as exc:
                problems.append(f"traced simulation {cfg.seed}: {exc}")
            tracer.write(out / "spans.tsv")
            samples.append(layer_sample(tracer, sim))
            sim.result = None
        values = per_layer(samples, seconds_per_sim(rounds))
        units = metric_units("per_layer")
    else:
        values = end_to_end(rounds, setup_s, peak_rss_mb)
        units = metric_units("end_to_end")

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    per_sim = " ".join(f"{s.run_s:.3f}" for rnd in rounds for s in rnd)
    print(f"bench: {workload.name} seed={args.seed} rounds={len(rounds)} run_s per simulation: {per_sim}", file=sys.stderr)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
