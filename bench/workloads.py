"""Benchmark workloads, the step observer and one timed simulation.

A workload is ``sims`` pinned ``SimConfig``s (their seeds never change)
plus the transactions submitted to every honest node, which the
benchmark's ``--seed`` generates.  Finality comes in bursts, so one
simulation's counts depend on where its last burst fell; pooling several
simulations per run keeps the figures steady from seed to seed.  Each
honest node creates one event per step and each event carries the next
queued transaction, so submitting ``steps - tail`` transactions fills
every event but the last ``tail`` ones; the tail gives the last
transactions time to reach finality before ``run`` returns.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

from layerdag import io as chainio
from layerdag import simnet
from layerdag.node import ConfirmationStage, NodeState
from layerdag.simnet import RunResult, SimConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    steps: int
    tail: int
    sims: int
    delay_model: str = "lockstep"
    delay_arg: float = 0.0
    byzantine: tuple[tuple[int, str], ...] = ()

    def inputs(self, seed: int) -> list[tuple[SimConfig, dict[int, list[bytes]]]]:
        """The (config, transactions) of each simulation for one benchmark seed."""
        return [(self.config(k), self.transactions(f"{seed}/{k}")) for k in range(self.sims)]

    def config(self, k: int) -> SimConfig:
        """The pinned config of simulation ``k``; its seed does not change with the benchmark's."""
        return SimConfig(
            n=self.n,
            steps=self.steps,
            seed=f"bench/{self.name}/{k}",
            delay_model=self.delay_model,
            delay_arg=self.delay_arg,
            byzantine=dict(self.byzantine),
        )

    def honest(self) -> list[int]:
        faulty = {nid for nid, _ in self.byzantine}
        return [i for i in range(self.n) if i not in faulty]

    def transactions(self, seed: str) -> dict[int, list[bytes]]:
        rng = random.Random(f"bench/{self.name}/{seed}/tx")
        return {
            nid: [b"tx:%d:%d:" % (nid, j) + rng.randbytes(16) for j in range(self.steps - self.tail)]
            for nid in self.honest()
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "honest-long",
            "long history under delays: per-event pipeline cost grows with history and roots roll back",
            n=5,
            steps=600,
            tail=100,
            sims=7,
            delay_model="rand",
            delay_arg=1,
        ),
        Workload(
            "equivocator",
            "a peer that forks on every step: fork detection and fork-pair state grow all run",
            n=7,
            steps=240,
            tail=50,
            sims=8,
            byzantine=((6, "equivocator"),),
        ),
    )
}


class Observer:
    """Read-only ``on_step`` hook: transaction lag, order prefixes, buffer peaks.

    Per step it looks only at what changed since the previous step (the
    node's newest own events and the new tail of its final order), so its
    cost does not grow with history.
    """

    def __init__(self, honest: list[int]) -> None:
        self.created: dict[tuple[int, bytes], int] = {}
        self.finalized: dict[tuple[int, bytes], int] = {}
        # what each node's final order held, as seen step by step
        self.seen_order: dict[int, list[bytes]] = {nid: [] for nid in honest}
        self.seen_lengths: dict[int, list[int]] = {nid: [] for nid in honest}
        self.retractions: list[str] = []
        self._own_seen = {nid: 0 for nid in honest}
        self.pending_peak = 0
        self.quarantine_peak = 0
        self.last_call = 0.0

    def __call__(self, step_no: int, nodes: dict[int, NodeState]) -> None:
        for nid, node in nodes.items():
            chain = node.chain
            own = chain.by_creator.get(nid, ())
            for eid in own[self._own_seen[nid]:]:
                payload = chain.events[eid].payload
                if payload:
                    self.created[(nid, payload)] = step_no
            self._own_seen[nid] = len(own)
            order = node.order.ordered_events
            seen = self.seen_order[nid]
            if len(order) < len(seen) or (seen and order[len(seen) - 1] != seen[-1]):
                self.retractions.append(f"step {step_no}: node {nid} changed its emitted order")
            for eid in order[len(seen):]:
                e = chain.events[eid]
                if e.creator == nid and e.payload:
                    if node.stages.get(e.payload) == ConfirmationStage.FINALIZED:
                        self.finalized.setdefault((nid, e.payload), step_no)
            seen.extend(order[len(seen):])
            self.seen_lengths[nid].append(len(seen))
            self.pending_peak = max(self.pending_peak, len(node.pending))
            self.quarantine_peak = max(self.quarantine_peak, len(node.quarantine))
        self.last_call = time.perf_counter()

    def settle(self, result: RunResult) -> None:
        """Record transactions that only reached finality after the last step."""
        end = result.steps_run + 1
        for nid, node in result.nodes.items():
            for payload, stage in node.stages.items():
                if stage == ConfirmationStage.FINALIZED and (nid, payload) in self.created:
                    self.finalized.setdefault((nid, payload), end)

    def lags(self) -> list[int]:
        return sorted(self.finalized[k] - self.created[k] for k in self.finalized)


def order_digest(result: RunResult) -> str:
    h = hashlib.sha256()
    for nid in sorted(result.nodes):
        h.update(b"node%d:" % nid)
        h.update(b"".join(result.nodes[nid].order.ordered_events))
    return h.hexdigest()


@dataclass
class Sim:
    result: RunResult | None
    observer: Observer
    run_s: float
    stepped_s: float
    drain_s: float
    out_bytes: int
    digest: str


def run_sim(
    workload: Workload, cfg: SimConfig, txs: dict[int, list[bytes]], out: Path
) -> Sim:
    """One ``simnet.run`` plus its snapshots and trace, as ``layerdag run --out`` writes them."""
    obs = Observer(workload.honest())
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = simnet.run(cfg, transactions=txs, on_step=obs)
    t_ret = time.perf_counter()
    for nid in sorted(result.nodes):
        with open(out / f"node{nid}.snapshot", "w") as fh:
            chainio.write_snapshot(result.nodes[nid], fh)
    with open(out / "trace.txt", "w") as fh:
        chainio.write_trace(result.trace, fh)
    t1 = time.perf_counter()
    obs.settle(result)
    out_bytes = sum(p.stat().st_size for p in out.iterdir() if p.name.endswith((".snapshot", ".txt")))
    return Sim(
        result,
        obs,
        run_s=t1 - t0,
        stepped_s=obs.last_call - t0,
        drain_s=t_ret - obs.last_call,
        out_bytes=out_bytes,
        digest=order_digest(result),
    )
