"""Output checks that do not copy the program's own answers.

Each check recomputes what it needs from event content (``refs``,
``creator``, ``payload``) or tests a property the protocol must have.
Reachability and longest-path depth are computed here over the union of
every replica's events, which is valid for every replica because an
event's refs are part of its content.
"""

from __future__ import annotations

from collections import Counter

from layerdag.events import EventBlock
from layerdag.node import ConfirmationStage
from layerdag.roots import quorum
from layerdag.simnet import RunResult

from workloads import Observer, Workload


class CheckFailed(Exception):
    pass


class Dag:
    """Depth and reachability over a set of events, computed from refs alone."""

    def __init__(self, events: dict[bytes, EventBlock]) -> None:
        # Lamport time strictly grows along refs, so this is a topological order
        order = sorted(events.values(), key=lambda e: (e.lamport_ts, e.id))
        self.index = {e.id: i for i, e in enumerate(order)}
        self.depth: dict[bytes, int] = {}
        self._past: list[int] = []  # bitmask over ``index``, the event included
        for i, e in enumerate(order):
            mask = 1 << i
            depth = 1
            for r in e.refs:
                if r not in self.index or self.index[r] >= i:
                    raise CheckFailed(f"{e.short()} refers to an event not below it")
                mask |= self._past[self.index[r]]
                depth = max(depth, self.depth[r] + 1)
            self._past.append(mask)
            self.depth[e.id] = depth

    def reaches(self, x: bytes, y: bytes) -> bool:
        """True iff y is x or lies in x's past."""
        return bool(self._past[self.index[x]] >> self.index[y] & 1)


def all_events(result: RunResult) -> dict[bytes, EventBlock]:
    out: dict[bytes, EventBlock] = {}
    for node in result.nodes.values():
        out.update(node.chain.events)
    return out


def check_conservation(result: RunResult, workload: Workload) -> None:
    """Every honest replica holds exactly ``steps`` events of each honest creator."""
    for nid, node in sorted(result.nodes.items()):
        counts = Counter(e.creator for e in node.chain.events.values())
        for c in workload.honest():
            if counts[c] != workload.steps:
                raise CheckFailed(
                    f"node {nid} holds {counts[c]} events of creator {c}, expected {workload.steps}"
                )


def check_layers(result: RunResult, dag: Dag) -> None:
    """Each replica's layer map is the longest-path depth over refs."""
    for nid, node in sorted(result.nodes.items()):
        phi = node.lstate.layering.phi
        if set(phi) != set(node.chain.events):
            raise CheckFailed(f"node {nid}: layer map does not cover exactly its chain")
        for eid, layer in phi.items():
            if dag.depth[eid] != layer:
                raise CheckFailed(
                    f"node {nid}: event {eid.hex()[:12]} on layer {layer}, longest path gives {dag.depth[eid]}"
                )


def check_orders(result: RunResult, observer: Observer) -> None:
    """Identical honest orders, parents before children, nothing retracted."""
    if observer.retractions:
        raise CheckFailed(observer.retractions[0])
    ids = sorted(result.nodes)
    base = result.nodes[ids[0]].order.ordered_events
    for nid in ids[1:]:
        if result.nodes[nid].order.ordered_events != base:
            raise CheckFailed(f"final order of node {nid} differs from node {ids[0]}'s")
    for nid in ids:
        node = result.nodes[nid]
        order = node.order.ordered_events
        pos = {eid: i for i, eid in enumerate(order)}
        if len(pos) != len(order):
            raise CheckFailed(f"node {nid}: an event appears twice in the final order")
        for i, eid in enumerate(order):
            for r in node.chain.get(eid).refs:
                if r in pos and pos[r] > i:
                    raise CheckFailed(f"node {nid}: parent {r.hex()[:12]} ordered after its child")
        seen = observer.seen_order[nid]
        if order[: len(seen)] != seen:
            raise CheckFailed(f"node {nid}: an order seen during the run is not a prefix of the end order")
        lengths = observer.seen_lengths[nid]
        if any(a > b for a, b in zip(lengths, lengths[1:])):
            raise CheckFailed(f"node {nid}: the emitted order shrank during the run")


def check_clothos(result: RunResult, dag: Dag) -> None:
    """Clotho records rest on a quorum of witnesses the nominator reaches."""
    q = quorum(result.config.n)
    for nid, node in sorted(result.nodes.items()):
        for root, rec in node.clothos.items():
            name = f"node {nid}: clotho {root.hex()[:12]}"
            if rec.root != root:
                raise CheckFailed(f"{name} is filed under another root")
            if len(rec.witnesses) < q:
                raise CheckFailed(f"{name} has {len(rec.witnesses)} witnesses, quorum is {q}")
            for w in rec.witnesses:
                if not dag.reaches(w, root):
                    raise CheckFailed(f"{name}: witness {w.hex()[:12]} does not reach it")
            seen = sum(1 for w in rec.witnesses if dag.reaches(rec.nominator, w))
            if seen < q:
                raise CheckFailed(f"{name}: nominator reaches {seen} witnesses, quorum is {q}")


def check_branches(result: RunResult, workload: Workload) -> None:
    """No final order holds events of both branches of an equivocator."""
    equivocators = {nid for nid, kind in workload.byzantine if kind == "equivocator"}
    for nid, node in sorted(result.nodes.items()):
        branches: dict[int, set[bytes]] = {}
        for eid in node.order.ordered_events:
            e = node.chain.get(eid)
            if e.creator in equivocators:
                tag, branch = e.payload.split(b":")[:2]
                if tag != b"eq":
                    raise CheckFailed(f"node {nid}: equivocator event without a branch tag")
                branches.setdefault(e.creator, set()).add(branch)
        for creator, seen in branches.items():
            if len(seen) > 1:
                raise CheckFailed(f"node {nid} finalized both branches of equivocator {creator}")


def count_failed(result: RunResult, txs: dict[int, list[bytes]]) -> int:
    """Transactions whose submitting node does not report them FINALIZED."""
    return sum(
        1
        for nid, payloads in txs.items()
        for p in payloads
        if result.nodes[nid].transaction_stage(p) != ConfirmationStage.FINALIZED
    )


def check_transactions(result: RunResult, txs: dict[int, list[bytes]]) -> None:
    """A finalized transaction's event carries it and is ordered exactly once."""
    for nid, payloads in sorted(txs.items()):
        node = result.nodes[nid]
        counts = Counter(node.order.ordered_events)
        for p in payloads:
            if node.transaction_stage(p) != ConfirmationStage.FINALIZED:
                continue
            eid = node.tx_event[p]
            e = node.chain.get(eid)
            if e.payload != p or e.creator != nid:
                raise CheckFailed(f"node {nid}: transaction {p!r} maps to an event that does not carry it")
            if counts[eid] != 1:
                raise CheckFailed(
                    f"node {nid}: transaction {p!r} is finalized but its event appears {counts[eid]} times"
                )


def check_output(
    result: RunResult, observer: Observer, workload: Workload, txs: dict[int, list[bytes]]
) -> None:
    dag = Dag(all_events(result))
    check_conservation(result, workload)
    check_layers(result, dag)
    check_orders(result, observer)
    check_clothos(result, dag)
    check_branches(result, workload)
    check_transactions(result, txs)


# -- traced run: totals reached by two independent paths ----------------


def check_handled(result: RunResult, handled: Counter) -> None:
    """``handle_message`` calls per kind match the non-dropped messages to honest nodes in the trace."""
    delivered: Counter = Counter()
    for t in result.trace:
        if t.kind.startswith("send:") and t.dst in result.nodes:
            delivered[t.kind[5:]] += 1
    for kind in sorted(set(delivered) | set(handled)):
        if handled[kind] != delivered[kind]:
            raise CheckFailed(
                f"{handled[kind]} {kind} messages handled, the trace delivered {delivered[kind]}"
            )


def check_accepted(result: RunResult, accepted: int) -> None:
    """Events ``ingest_events`` accepted match what the replicas hold from others."""
    held = sum(
        sum(1 for e in node.chain.events.values() if e.creator != nid)
        for nid, node in result.nodes.items()
    )
    if accepted != held:
        raise CheckFailed(f"ingest accepted {accepted} events, replicas hold {held} foreign events")


def check_same_order(untraced: str, traced: str) -> None:
    if untraced != traced:
        raise CheckFailed("the traced run's final orders differ from the untraced run's")
