"""Deterministic multi-node simulation harness.

Runs n protocol nodes over an in-memory transport with pluggable delay
models and optional Byzantine participants.  An adversary keeps no
replica: it builds its events on the freshest event it was delivered of
each other creator, whose refs it need not hold.  Determinism contract:
given the same configuration and seed, every run produces byte-identical
snapshots, traces, and final orders.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .chain import Chain
from .errors import ConfigError, InvalidCut
from .events import EventBlock, EventId, NodeId, make_event, make_leaf, new_event
from .layering import Layering, layer_cg, layer_lpl, max_width, transitive_reduce
from .node import (
    Broadcast,
    Envelope,
    EventRequest,
    EventResponse,
    ForkNotice,
    NodeState,
)

DELAY_MODELS = ("lockstep", "rand", "reorder", "drop")
BYZANTINE_KINDS = ("forker", "equivocator", "silent")


@dataclass
class SimConfig:
    n: int = 5
    k: int | None = None
    steps: int = 100
    seed: str = "0"
    byzantine: dict[NodeId, str] = field(default_factory=dict)
    w_p: int = 0
    w_c: int = 0
    delay_model: str = "lockstep"
    delay_arg: float = 0.0

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("simulation needs at least two nodes")
        if self.steps < 1:
            raise ConfigError("steps must be positive")
        if self.delay_model not in DELAY_MODELS:
            raise ConfigError(f"unknown delay model {self.delay_model!r}")
        if self.delay_model == "drop" and not 0 <= self.delay_arg < 1:
            raise ConfigError("drop probability must be in [0, 1)")
        if self.delay_model in ("rand", "reorder") and (self.delay_arg < 0 or self.delay_arg % 1):
            raise ConfigError("delay bound must be a non-negative whole number")
        for nid, kind in self.byzantine.items():
            if kind not in BYZANTINE_KINDS:
                raise ConfigError(f"unknown byzantine kind {kind!r}")
            if not 0 <= nid < self.n:
                raise ConfigError(f"byzantine node {nid} out of range")
        k = self.k if self.k is not None else min(3, self.n)
        if not 1 <= k <= self.n:
            raise ConfigError(f"k={k} out of range for n={self.n}")
        validate_width(None, self.w_p, self.w_c)


def validate_width(width: int | None, w_p: int = 0, w_c: int = 0) -> None:
    """Reject a width below 1 and a negative fork budget.

    The width bounds the offline Coffman-Graham layering (``layer --algo
    cg``); the consensus layers by longest path and takes no width.  The
    fork budget sizes the forker's branches and the width bound.
    """
    if width is not None and width < 1:
        raise ConfigError(f"width must be >= 1, got {width}")
    if w_p < 0 or w_c < 0:
        raise ConfigError(f"fork budget w_p={w_p}, w_c={w_c} is negative")


class Transport:
    """In-flight message store implementing the delay models."""

    def __init__(self, cfg: SimConfig) -> None:
        self.cfg = cfg
        self.rng = random.Random(f"{cfg.seed}/net")
        # deliver_at -> list of envelopes in arrival order
        self.queue: dict[int, list[Envelope]] = {}
        self.dropped = 0

    def send(self, env: Envelope, now: int) -> int | None:
        """Schedule delivery; returns the delivery step (None if dropped)."""
        model = self.cfg.delay_model
        if model == "lockstep":
            at = now + 1
        elif model in ("rand", "reorder"):
            at = now + 1 + self.rng.randrange(int(self.cfg.delay_arg) + 1)
        else:  # drop
            if self.rng.random() < self.cfg.delay_arg:
                self.dropped += 1
                return None
            at = now + 1
        self.queue.setdefault(at, []).append(env)
        return at

    def take(self, step: int) -> list[Envelope]:
        batch = self.queue.pop(step, [])
        if self.cfg.delay_model == "reorder":
            self.rng.shuffle(batch)
        return batch

    def pending(self) -> bool:
        return any(self.queue.values())


# -- byzantine participants ---------------------------------------------


class ByzantineNode:
    """Adversarial participant that only emits events and answers no request.

    It keeps no replica and validates nothing.  ``latest`` holds the
    freshest event, by (lamport, id), that it was delivered of each other
    creator, whether or not that event's refs reached it; it picks refs
    from there.
    """

    def __init__(self, node_id: NodeId, n: int) -> None:
        self.id = node_id
        self.n = n
        self.latest: dict[NodeId, EventBlock] = {}
        self.forked: list[EventBlock] = []  # all members we ever emitted

    def _peer_tops(self, count: int) -> list[EventBlock]:
        return sorted(self.latest.values(), key=EventBlock.sort_key, reverse=True)[:count]

    def absorb(self, inbox: list[Envelope]) -> None:
        # it never asks for events, so only broadcasts carry them here
        for env in inbox:
            if isinstance(env.payload, Broadcast):
                for e in env.payload.events:
                    held = self.latest.get(e.creator)
                    if e.creator != self.id and (
                        held is None or e.sort_key() > held.sort_key()
                    ):
                        self.latest[e.creator] = e

    def step(self, step_no: int, inbox: list[Envelope]) -> list[Envelope]:  # pragma: no cover
        raise NotImplementedError


class Silent(ByzantineNode):
    """Produces nothing; a crashed node."""

    def step(self, step_no: int, inbox: list[Envelope]) -> list[Envelope]:
        return []


class Forker(ByzantineNode):
    """Emits w_p parallel self-chains of depth w_c, broadcasting all members."""

    def __init__(self, node_id: NodeId, n: int, w_p: int, w_c: int) -> None:
        super().__init__(node_id, n)
        self.w_p = max(2, w_p)
        self.w_c = max(1, w_c)
        self.branch_tips: list[EventBlock | None] = [None] * self.w_p
        self.branch_depth: list[int] = [0] * self.w_p
        self.base: EventBlock | None = None

    def step(self, step_no: int, inbox: list[Envelope]) -> list[Envelope]:
        self.absorb(inbox)
        out: list[Envelope] = []
        fresh: list[EventBlock] = []
        if self.base is None:
            self.base = make_leaf(self.id, b"")
            fresh.append(self.base)
        else:
            branch = step_no % self.w_p
            if self.branch_depth[branch] < self.w_c:
                parent = self.branch_tips[branch] or self.base
                others = tuple(self._peer_tops(2))
                # distinct payloads keep fork members distinguishable
                e = make_event(
                    self.id, parent, others, b"fork:%d:%d" % (branch, step_no)
                )
                self.branch_tips[branch] = e
                self.branch_depth[branch] += 1
                fresh.append(e)
        for e in fresh:
            self.forked.append(e)
            for p in range(self.n):
                if p != self.id:
                    out.append(Envelope(self.id, p, Broadcast((e,))))
        return out


class Equivocator(ByzantineNode):
    """Maintains two self-chains and shows a different one to each half."""

    def __init__(self, node_id: NodeId, n: int) -> None:
        super().__init__(node_id, n)
        self.tips: list[EventBlock | None] = [None, None]

    def step(self, step_no: int, inbox: list[Envelope]) -> list[Envelope]:
        self.absorb(inbox)
        out: list[Envelope] = []
        for branch in (0, 1):
            parent = self.tips[branch]
            others = tuple(self._peer_tops(2))
            if parent is None:
                e = new_event(self.id, None, (), 0, b"eq:%d" % branch, 0)
            else:
                e = make_event(self.id, parent, others, b"eq:%d:%d" % (branch, step_no))
            self.tips[branch] = e
            self.forked.append(e)
            for p in range(self.n):
                if p != self.id and p % 2 == branch:
                    out.append(Envelope(self.id, p, Broadcast((e,))))
        return out


# -- run ------------------------------------------------------------------


@dataclass
class TraceEntry:
    step: int
    kind: str
    src: NodeId
    dst: NodeId
    summary: str

    def line(self) -> str:
        return (
            f"step={self.step} {self.kind} src={self.src} dst={self.dst} "
            f"payload={self.summary}"
        )


@dataclass
class RunResult:
    config: SimConfig
    nodes: dict[NodeId, NodeState]
    byzantine: dict[NodeId, ByzantineNode]
    trace: list[TraceEntry]
    steps_run: int


def _summarize(msg) -> str:
    if isinstance(msg, Broadcast):
        return f"broadcast[{','.join(e.id.hex()[:8] for e in msg.events)}]"
    if isinstance(msg, ForkNotice):
        pairs = ";".join(f"{a.hex()[:8]},{b.hex()[:8]}" for a, b in msg.pairs)
        return f"fork-notice[{pairs}]"
    if isinstance(msg, EventRequest):
        return f"event-request[{len(msg.wanted)}]"
    if isinstance(msg, EventResponse):
        return f"event-response[{len(msg.events)}]"
    return type(msg).__name__


def build_nodes(cfg: SimConfig) -> tuple[dict[NodeId, NodeState], dict[NodeId, ByzantineNode]]:
    honest: dict[NodeId, NodeState] = {}
    byz: dict[NodeId, ByzantineNode] = {}
    for i in range(cfg.n):
        kind = cfg.byzantine.get(i)
        if kind is None:
            honest[i] = NodeState(i, cfg.n, k=cfg.k)
        elif kind == "forker":
            byz[i] = Forker(i, cfg.n, cfg.w_p or 2, cfg.w_c or 4)
        elif kind == "equivocator":
            byz[i] = Equivocator(i, cfg.n)
        else:
            byz[i] = Silent(i, cfg.n)
    return honest, byz


def run(
    cfg: SimConfig,
    transactions: dict[NodeId, list[bytes]] | None = None,
    on_step=None,
) -> RunResult:
    """Execute the simulation and quiesce it.

    After the configured steps, a drain phase delivers everything still in
    flight to the honest nodes (they answer it but emit no new events).
    Then each honest node is offered, in one call, every event some honest
    node holds in its chain or holds back, so replicas end with the same
    chain before snapshots are compared.  ``on_step(step_no, nodes)`` is
    an observation hook called after every scheduler tick; it must not
    mutate anything.
    """
    cfg.validate()
    honest, byz = build_nodes(cfg)
    transport = Transport(cfg)
    trace: list[TraceEntry] = []
    if transactions:
        for nid, txs in transactions.items():
            if nid in honest:
                for t in txs:
                    honest[nid].submit_transaction(t)

    # one string per trace kind, shared by every entry of that kind
    kinds: dict[str, str] = {}

    def dispatch(step_no: int, outbox: list[Envelope]) -> None:
        for env in outbox:
            action = "drop" if transport.send(env, step_no) is None else "send"
            kind = f"{action}:{type(env.payload).__name__}"
            kind = kinds.setdefault(kind, kind)
            trace.append(
                TraceEntry(step_no, kind, env.src, env.dst, _summarize(env.payload))
            )

    for step_no in range(1, cfg.steps + 1):
        arrivals = transport.take(step_no)
        inboxes: dict[NodeId, list[Envelope]] = {i: [] for i in range(cfg.n)}
        for env in arrivals:
            inboxes[env.dst].append(env)
        for nid in range(cfg.n):
            node = honest.get(nid) or byz[nid]
            outbox = node.step(step_no, inboxes[nid])
            dispatch(step_no, outbox)
        if on_step is not None:
            on_step(step_no, honest)

    # -- drain phase: flush in-flight traffic to the honest nodes, then
    # hand each the events it lacks.  The pipeline feeds nothing back into
    # the network, so it runs once per node at the end
    step_no = cfg.steps
    while transport.pending():
        step_no += 1
        inboxes = {i: [] for i in honest}
        for env in transport.take(step_no):
            if env.dst in honest:
                inboxes[env.dst].append(env)
        for nid, inbox in inboxes.items():
            if inbox:
                node = honest[nid]
                node.outbox = []
                for env in inbox:
                    node.handle_message(env)
                # nodes only answer during drain; they emit no new events
                dispatch(step_no, node.outbox)

    # each replica gets, in one call, every event an honest replica holds or
    # holds back; without the latter, one placed here misses earlier replicas
    union: dict[EventId, EventBlock] = {}
    for node in honest.values():
        union.update(node.chain.events)
        union.update(node.pending)
    offered = sorted(union.values(), key=EventBlock.sort_key)
    for node in honest.values():
        lacking = [e for e in offered if e.id not in node.chain and e.id not in node.pending]
        if lacking:
            node.ingest_events(lacking)
        node.run_pipeline()

    return RunResult(cfg, honest, byz, trace, cfg.steps)


# -- checks ---------------------------------------------------------------


def check_consistent_chains(result: RunResult) -> None:
    """All honest replicas must agree on event content they share."""
    ids = sorted(result.nodes)
    base = result.nodes[ids[0]]
    for nid in ids[1:]:
        other = result.nodes[nid]
        shared = set(base.chain.events) & set(other.chain.events)
        for eid in shared:
            if base.chain.get(eid) != other.chain.get(eid):
                raise AssertionError(f"event {eid.hex()[:12]} differs between replicas")


def check_identical_orders(result: RunResult) -> None:
    ids = sorted(result.nodes)
    base = result.nodes[ids[0]].order.ordered_events
    for nid in ids[1:]:
        other = result.nodes[nid].order.ordered_events
        if other != base:
            raise AssertionError(
                f"final order of node {nid} diverges "
                f"({len(other)} vs {len(base)} events)"
            )


def check_fork_exclusion(result: RunResult) -> None:
    """No finalized sequence may contain both members of a fork pair."""
    for nid in sorted(result.nodes):
        node = result.nodes[nid]
        final = set(node.order.ordered_events)
        for a, b in node.chain.detect_forks():
            if a in final and b in final:
                raise AssertionError(
                    f"node {nid} finalized both members of fork pair "
                    f"{a.hex()[:12]}/{b.hex()[:12]}"
                )


def check_consistent_cut(node: NodeState, cut: set[EventId]) -> None:
    """A cut is consistent when it is closed under the ancestor relation."""
    for eid in cut:
        e = node.chain.get(eid)
        for r in e.refs:
            if r not in cut:
                raise InvalidCut(
                    f"cut drops {r.hex()[:12]}, a parent of {eid.hex()[:12]}"
                )


def check_equivalence_theorems(chain: Chain, n: int, w_p: int = 0, w_c: int = 0) -> None:
    """Fork-free chains: LPL equals CG at the width bound (and above)."""
    lpl = layer_lpl(chain)
    bound = math.ceil(max_width(n, w_p, w_c))
    parents = transitive_reduce(chain)
    cg = layer_cg(chain, bound, parents)
    if lpl.phi != cg.phi:
        raise AssertionError("LPL and width-bounded CG disagree on a fork-free chain")
    if lpl.width > n and not w_p:
        raise AssertionError(f"fork-free width {lpl.width} exceeds n={n}")
