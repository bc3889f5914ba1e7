"""Per-node protocol state machine.

Each node keeps a local chain replica, an online layering, the root
graph, and the finality pipeline.  A step consumes the inbox, ingests
whatever became deliverable, emits a new event referencing fresh tips,
broadcasts it to every peer, and advances consensus.  A node that
receives an event whose parents it lacks asks the sender for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .chain import Chain, KnownMap
from .errors import ConfigError, IncompleteCoverage, UnknownTransaction
from .events import (
    EventBlock,
    EventId,
    NodeId,
    compute_event_id,
    make_event,
    make_leaf,
)
from .finality import (
    ClothoRecord,
    Election,
    FinalOrder,
    # decisions are never revised, so no emitted prefix is re-derived;
    # the name stays here for wrappers such as the benchmark's tracer
    check_prefix,  # noqa: F401
    select_atropos,
    select_clothos,
    topo_sort_finalize,
)
from .layering import (
    DiffGraph,
    Layering,
    LayeringState,
    layer_lpl_online,
)
from .roots import RootGraphEngine

# How often the consensus pipeline runs during simulation stepping.  It is
# always run once more when a node quiesces, so the cadence trades steady
# progress reporting for speed without touching outcomes.
PIPELINE_CADENCE = 4


class ConfirmationStage(IntEnum):
    SUBMITTED = 0
    BATCHED = 1
    ROOT_CONFIRMED = 2
    CLOTHO_CONFIRMED = 3
    FINALIZED = 4


# -- messages ----------------------------------------------------------


@dataclass(frozen=True)
class Broadcast:
    events: tuple[EventBlock, ...]


@dataclass(frozen=True)
class ForkNotice:
    """The fork pairs a node found in one step, each pair sorted by id."""

    pairs: tuple[tuple[EventId, EventId], ...]


@dataclass(frozen=True)
class EventRequest:
    """Ask a peer for specific events by id.

    ``known`` is the requester's known map.  The answer holds the wanted
    events plus their recent past, minus every event the map shows the
    requester already holds (see ``Chain.closure_of_limited``).
    """

    wanted: tuple[EventId, ...]
    known: KnownMap


@dataclass(frozen=True)
class EventResponse:
    events: tuple[EventBlock, ...]


Message = Broadcast | ForkNotice | EventRequest | EventResponse


@dataclass
class Envelope:
    src: NodeId
    dst: NodeId
    payload: Message


@dataclass
class IngestReport:
    accepted: list[EventId] = field(default_factory=list)
    buffered: list[EventId] = field(default_factory=list)
    rejected: list[tuple[EventId, str]] = field(default_factory=list)
    fork_members: list[EventId] = field(default_factory=list)  # accepted, joined a fork


class NodeState:
    def __init__(
        self,
        node_id: NodeId,
        n: int,
        k: int | None = None,
    ) -> None:
        if n < 1:
            raise ConfigError("need at least one node")
        self.id = node_id
        self.n = n
        self.k = k if k is not None else min(3, n)
        if self.k < 1 or self.k > n:
            raise ConfigError(f"k={self.k} out of range for n={n}")
        self.peers: list[NodeId] = [p for p in range(n) if p != node_id]

        self.chain = Chain()
        self.lstate = LayeringState(Layering())
        self.engine = RootGraphEngine(n)
        self.election = Election(n)
        self.clothos: dict[EventId, ClothoRecord] = self.election.clothos
        self.order = FinalOrder()
        self._emit_frame = 1  # lowest frame whose Clothos are not emitted
        # always empty: every valid event enters the chain.  Kept only
        # because the benchmark's observer reads its size
        self.quarantine: dict[EventId, EventBlock] = {}
        self.pending: dict[EventId, EventBlock] = {}  # missing parents
        # (creator, fork pair) per event that joined a fork since the last
        # notice flush in ``step``
        self._notices: list[tuple[NodeId, tuple[EventId, EventId]]] = []
        self.outbox: list[Envelope] = []

        # transaction tracking: payload -> (event id or None, stage)
        self.tx_event: dict[bytes, EventId] = {}
        self.tx_queue: list[bytes] = []
        self.stages: dict[bytes, ConfirmationStage] = {}
        self.final_positions: dict[bytes, int] = {}
        self._unfinalized: set[bytes] = set()  # payloads of tx_event not yet final

        self._fresh: list[EventId] = []  # inserted since last pipeline run

    # -- transactions ---------------------------------------------------

    def submit_transaction(self, payload: bytes) -> None:
        self.tx_queue.append(payload)
        self.stages[payload] = ConfirmationStage.SUBMITTED

    def transaction_stage(self, payload: bytes) -> ConfirmationStage:
        if payload not in self.stages:
            raise UnknownTransaction(payload.hex())
        return self.stages[payload]

    # -- event creation ---------------------------------------------------

    def _insert(self, e: EventBlock, report: IngestReport | None = None) -> None:
        joined = self.chain.insert(e)
        self._fresh.append(e.id)
        if report is not None:
            report.accepted.append(e.id)
            report.fork_members.extend(joined)
        if joined:
            x = self.chain.first_rival(e.id)
            self._notices.append((e.creator, (min(x, e.id), max(x, e.id))))

    def create_event(self) -> EventBlock:
        """Emit one event over the freshest canonical tips."""
        payload = self.tx_queue.pop(0) if self.tx_queue else b""
        self_parent = self.chain.top_event(self.id)
        if self_parent is None:
            e = make_leaf(self.id, payload)
        else:
            others = []
            peers = [p for p in self.chain.creators() if p != self.id]
            tops = [
                (self.chain.get(t).sort_key(), t)
                for p in peers
                if (t := self.chain.top_event(p)) is not None
            ]
            # freshest peers first, capped at k-1 peer refs
            tops.sort(key=lambda kv: (kv[0][0], kv[0][1]), reverse=True)
            sp = self.chain.get(self_parent)
            for _, t in tops:
                if len(others) >= self.k - 1:
                    break
                if t not in sp.other_refs and not self.chain.happened_before(
                    t, self_parent
                ):
                    others.append(t)
            e = make_event(
                self.id,
                sp,
                tuple(self.chain.get(t) for t in others),
                payload,
            )
        self._insert(e)
        if payload:
            self.tx_event[payload] = e.id
            self.stages[payload] = ConfirmationStage.BATCHED
            self._unfinalized.add(payload)
        return e

    # -- ingest ----------------------------------------------------------

    def ingest_events(self, events: list[EventBlock]) -> IngestReport:
        """Insert foreign events, buffering those whose refs are not held.

        Every valid event enters the chain, fork members included: the
        final order follows one self-chain per creator, and the election
        drops the votes of a creator whose fork a root's past shows.  An
        event whose id is not the hash of its content is rejected, so no
        two replicas hold different content under one id.
        """
        report = IngestReport()
        for e in events:
            if e.id in self.pending or e.id in self.chain:
                continue
            if e.id != compute_event_id(
                e.creator,
                e.self_ref,
                e.other_refs,
                e.lamport_ts,
                e.payload,
                e.creation_seq,
            ):
                report.rejected.append((e.id, "id does not match content"))
                continue
            self.pending[e.id] = e
        # a ref's Lamport time is below its referrer's, so one pass in
        # Lamport order inserts each ref before anything that needs it; the
        # sort is stable, so ties keep their arrival order.  An event that
        # claims a time not above a held or pending ref's breaks that rule:
        # the pass rejects it there, or the chain does once its refs are held
        for e in sorted(self.pending.values(), key=lambda x: x.lamport_ts):
            if any(r not in self.chain for r in e.refs):
                held = (self.chain.events.get(r) or self.pending.get(r) for r in e.refs)
                if any(h and h.lamport_ts >= e.lamport_ts for h in held):
                    del self.pending[e.id]
                    report.rejected.append((e.id, "lamport time not above a parent's"))
                continue
            del self.pending[e.id]
            try:
                self._insert(e, report)
            except Exception as exc:
                report.rejected.append((e.id, str(exc)))
        report.buffered = list(self.pending)
        return report

    # -- message handling ---------------------------------------------------

    def _request_missing(self, src: NodeId) -> None:
        wanted = sorted(
            {r for e in self.pending.values() for r in e.refs}
            - set(self.pending)
            - set(self.chain.events)
        )
        if wanted:
            self.outbox.append(
                Envelope(
                    self.id, src, EventRequest(tuple(wanted), self.chain.known_map())
                )
            )

    def handle_message(self, env: Envelope) -> None:
        msg = env.payload
        if isinstance(msg, Broadcast):
            self.ingest_events(list(msg.events))
            if self.pending:
                self._request_missing(env.src)
        elif isinstance(msg, EventRequest):
            have = [w for w in msg.wanted if w in self.chain]
            events = tuple(self.chain.closure_of_limited(have, known=msg.known))
            self.outbox.append(Envelope(self.id, env.src, EventResponse(events)))
        elif isinstance(msg, EventResponse):
            self.ingest_events(list(msg.events))
        elif isinstance(msg, ForkNotice):
            # a node announces only the events that join a fork in its own
            # chain (see ``step``); a notice received is never relayed.  An
            # id some request in the outbox already wants is not asked for
            # again: peers announce the same members, often in one step
            asked = {
                w
                for out in self.outbox
                if isinstance(out.payload, EventRequest)
                for w in out.payload.wanted
            }
            unknown = tuple(
                dict.fromkeys(
                    x
                    for pair in msg.pairs
                    for x in pair
                    if x not in self.chain and x not in asked
                )
            )
            if unknown:
                # fork members nobody references are never pulled in as
                # missing parents
                self.outbox.append(
                    Envelope(
                        self.id,
                        env.src,
                        EventRequest(unknown, self.chain.known_map()),
                    )
                )

    # -- consensus pipeline ------------------------------------------------

    def run_pipeline(self) -> None:
        """Advance layering, frames, the election, and the final order.

        Layers, frames and slot decisions are each computed once, from
        an event's own past, so a run only handles what arrived since the
        previous one.  Layers are longest-path layers, the only layering
        that is a function of an event's own past: a width-bounded one
        depends on what else a replica has layered, and would split the
        (layer, Lamport time, id) order between replicas.  Once every
        slot of the lowest frame not emitted is decided, that frame's
        Clothos become Atropos and flush their pasts.
        """
        rg = self.engine.graph
        known = len(rg.order)
        if self._fresh:
            layer_lpl_online(self.lstate, self._diff_graph(self._fresh), self.chain)
            self.engine.update(self.chain, self.lstate.layering, self._fresh)
            self._fresh = []
        select_clothos(self.chain, rg, self.n, self.election)
        appended: list[EventId] = []
        while self._emit_frame < self.election.complete:
            frame = self.election.by_frame.get(self._emit_frame, ())
            fresh = select_atropos(
                self.chain,
                self.lstate.layering,
                {c: self.clothos[c] for c in frame},
                self.order,
            )
            appended += topo_sort_finalize(
                self.chain, self.lstate.layering, self.order, fresh
            )
            self._emit_frame += 1
        self._update_stages(rg.order[known:], appended)

    def _diff_graph(self, fresh: list[EventId]) -> DiffGraph:
        edges = []
        for eid in fresh:
            e = self.chain.get(eid)
            for r in e.refs:
                edges.append((eid, r))
        return DiffGraph(tuple(fresh), tuple(edges))

    def _update_stages(
        self, new_roots: list[EventId], appended: list[EventId]
    ) -> None:
        """Raise the stages of the transactions not yet final.

        Stages only rise, so covering each run's new roots and Clothos
        gives the same stages as covering all of them: a root present at
        an earlier run either was covered then or cannot reach the
        transaction, whose event came after it.
        """
        if not self._unfinalized:
            return
        first = len(self.order.ordered_events) - len(appended)
        for pos, eid in enumerate(appended, first):
            payload = self.chain.get(eid).payload
            if payload in self._unfinalized and self.tx_event[payload] == eid:
                self.stages[payload] = ConfirmationStage.FINALIZED
                self.final_positions[payload] = pos
                self._unfinalized.discard(payload)
        root_cover = 0
        for r in new_roots:
            root_cover |= self.chain.ancestor_mask(r)
        clotho_cover = 0
        for c in self.election.fresh:
            clotho_cover |= self.chain.ancestor_mask(c)
        for payload in self._unfinalized:
            idx = self.chain.index_of(self.tx_event[payload])
            if clotho_cover >> idx & 1:
                new = ConfirmationStage.CLOTHO_CONFIRMED
            elif root_cover >> idx & 1:
                new = ConfirmationStage.ROOT_CONFIRMED
            else:
                new = ConfirmationStage.BATCHED
            if new > self.stages[payload]:
                self.stages[payload] = new

    # -- global state estimate ----------------------------------------------

    def estimate_global_state(self) -> set[EventId]:
        """Ancestor-closed cut every replica can agree on.

        Takes the lowest layer among each creator's canonical top event and
        returns everything at or below it.  Raises when some creator has
        produced nothing yet, since the cut would silently exclude them.
        """
        self.run_pipeline()
        phi = self.lstate.layering.phi
        tops = []
        for c in range(self.n):
            t = self.chain.top_event(c)
            if t is None:
                raise IncompleteCoverage(f"no events from creator {c}")
            tops.append(t)
        cut_layer = min(phi[t] for t in tops)
        return {v for v, l in phi.items() if l <= cut_layer}

    # -- main step -----------------------------------------------------------

    def step(self, step_no: int, inbox: list[Envelope]) -> list[Envelope]:
        """One scheduler tick: consume inbox, emit, announce forks, run consensus."""
        self.outbox = []
        for env in inbox:
            self.handle_message(env)
        e = self.create_event()
        for p in self.peers:
            self.outbox.append(Envelope(self.id, p, Broadcast((e,))))
        # each event that joined a fork here goes out once, paired with its
        # earliest-inserted rival, in one notice per peer; the forking
        # creator made both members and is told nothing.  A peer that lacks
        # a member asks for it, and older members reach peers through the
        # pairs or as missing parents
        for p in self.peers:
            pairs = tuple(pair for creator, pair in self._notices if creator != p)
            if pairs:
                self.outbox.append(Envelope(self.id, p, ForkNotice(pairs)))
        self._notices = []
        # the pipeline is pure bookkeeping over the chain and feeds nothing
        # back into the network, so running it on a cadence only delays
        # local finality reporting, never changes it
        if step_no % PIPELINE_CADENCE == PIPELINE_CADENCE - 1:
            self.run_pipeline()
        return self.outbox
