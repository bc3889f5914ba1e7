"""Per-node protocol state machine.

Each node keeps a local chain replica, an online layering, the root
graph, and the finality pipeline.  A step consumes the inbox, ingests
whatever became deliverable, emits a new event referencing fresh tips,
broadcasts it to every peer, and advances consensus.  A node that
receives an event whose parents it lacks asks the sender for them.
"""

from __future__ import annotations

import logging
import math
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
    layer_cg_online,
    layer_lpl_online,
    max_width,
)
from .roots import RootGraphEngine

log = logging.getLogger(__name__)

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
    quarantined: list[EventId] = field(default_factory=list)
    rejected: list[tuple[EventId, str]] = field(default_factory=list)
    fork_members: list[EventId] = field(default_factory=list)  # accepted, joined a fork


class NodeState:
    def __init__(
        self,
        node_id: NodeId,
        n: int,
        k: int | None = None,
        layering_algo: str = "lpl",
        width: int | None = None,
        w_p: int = 0,
        w_c: int = 0,
    ) -> None:
        if n < 1:
            raise ConfigError("need at least one node")
        self.id = node_id
        self.n = n
        self.k = k if k is not None else min(3, n)
        if self.k < 1 or self.k > n:
            raise ConfigError(f"k={self.k} out of range for n={n}")
        self.peers: list[NodeId] = [p for p in range(n) if p != node_id]
        self.layering_algo = layering_algo
        if layering_algo == "cg":
            self.width = width if width is not None else math.ceil(max_width(n, w_p, w_c))
        else:
            self.width = None

        self.chain = Chain()
        self.lstate = LayeringState(Layering())
        self.engine = RootGraphEngine(n)
        self.election = Election(n)
        self.clothos: dict[EventId, ClothoRecord] = self.election.clothos
        self.order = FinalOrder()
        self._emit_frame = 1  # lowest frame whose Clothos are not emitted
        # fork members new references avoid: the chain's own set
        self.victims: set[EventId] = self.chain.fork_victims()
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
        """Emit one event over the freshest non-victim tips."""
        payload = self.tx_queue.pop(0) if self.tx_queue else b""
        avoid = self.victims
        self_parent = self.chain.top_event(self.id, avoid)
        if self_parent is None:
            e = make_leaf(self.id, payload)
        else:
            others = []
            peers = [p for p in self.chain.creators() if p != self.id]
            tops = [
                (self.chain.get(t).sort_key(), t)
                for p in peers
                if (t := self.chain.top_event(p, avoid)) is not None
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
        """Insert foreign events, buffering out-of-order arrivals.

        Incoming members of a known fork pair go to quarantine; a
        quarantined event is reinstated when something referencing it
        arrives, since the chain then needs it for reachability.  An
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
        progress = True
        while progress:
            progress = False
            for eid in list(self.pending):
                e = self.pending[eid]
                if eid in self.chain:
                    del self.pending[eid]
                    continue
                missing = [r for r in e.refs if r not in self.chain]
                needed_quarantined = [r for r in missing if r in self.quarantine]
                for r in needed_quarantined:
                    held = self.quarantine.pop(r)
                    try:
                        self._insert(held, report)
                    except Exception as exc:  # malformed held event
                        report.rejected.append((r, str(exc)))
                missing = [r for r in e.refs if r not in self.chain]
                if missing:
                    continue
                if self._is_known_fork_member(e):
                    del self.pending[eid]
                    self.quarantine[eid] = e
                    report.quarantined.append(eid)
                    progress = True
                    continue
                try:
                    self._insert(e, report)
                except Exception as exc:
                    report.rejected.append((eid, str(exc)))
                del self.pending[eid]
                progress = True
        report.buffered = list(self.pending)
        return report

    def _is_known_fork_member(self, e: EventBlock) -> bool:
        """True when inserting ``e`` would complete a fork already seen.

        Only the later-by-(lamport, id) member is held back; the earlier
        member stays insertable so honest descendants keep flowing.
        """
        key = e.sort_key()
        if e.self_ref is None:
            # the chain only holds leaves at seq 0
            rivals = self.chain.by_seq.get((e.creator, 0), ())
            return bool(rivals) and min(
                self.chain.get(x).sort_key() for x in rivals
            ) <= key
        rivals = self.chain.by_seq.get((e.creator, e.creation_seq), ())
        return any(
            x != e.id and self.chain.get(x).sort_key() < key for x in rivals
        )

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
                    if x not in self.chain
                    and x not in self.quarantine
                    and x not in asked
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
        else:  # pragma: no cover - exhaustive above
            log.warning("unknown message %r", msg)

    # -- consensus pipeline ------------------------------------------------

    def run_pipeline(self) -> None:
        """Advance layering, frames, the election, and the final order.

        Layers, frames and slot decisions are each computed once, from
        an event's own past, so a run only handles what arrived since the
        previous one.  Once every slot of the lowest frame not emitted is
        decided, that frame's Clothos become Atropos and flush their pasts.
        """
        rg = self.engine.graph
        known = len(rg.order)
        if self._fresh:
            diff = self._diff_graph(self._fresh)
            if self.layering_algo == "cg":
                layer_cg_online(self.lstate, self.width, diff, self.chain)
            else:
                layer_lpl_online(self.lstate, diff, self.chain)
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
        fresh_set = set(fresh)
        edges = []
        for eid in fresh:
            e = self.chain.get(eid)
            for r in e.refs:
                edges.append((eid, r))
        return DiffGraph(tuple(fresh_set), tuple(edges))

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
            t = self.chain.top_event(c, self.victims)
            if t is None:
                raise IncompleteCoverage(f"no events from creator {c}")
            tops.append(t)
        cut_layer = min(phi[t] for t in tops)
        return {v for v, l in phi.items() if l <= cut_layer}

    # -- main step -----------------------------------------------------------

    def step(self, step_no: int, inbox: list[Envelope], emit: bool = True) -> list[Envelope]:
        """One scheduler tick: consume inbox, emit, announce forks, run consensus."""
        self.outbox = []
        for env in inbox:
            self.handle_message(env)
        if emit:
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
