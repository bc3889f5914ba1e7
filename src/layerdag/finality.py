"""Clotho election, Atropos ordering and final event ordering.

Every (frame, creator) slot is decided by virtual voting among the roots
(see :class:`Election`): each root votes from its own past, so a decision
is the same on every replica and never revised.  Once every slot of the
lowest open frame is decided, that frame's Clothos become Atropos and
their not-yet-processed pasts are flushed into the final order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import Chain
from .errors import ConsensusInvariantError, UnlayeredVertex
from .events import EventId, NodeId
from .layering import Layering
from .roots import RootGraph, quorum


def sort_vertex_key(chain: Chain, layering: Layering, v: EventId):
    """Deterministic total order: layer, then Lamport time, then id."""
    if v not in layering.phi:
        raise UnlayeredVertex(v.hex())
    e = chain.get(v)
    return (layering.phi[v], e.lamport_ts, e.id)


@dataclass(frozen=True)
class ClothoRecord:
    root: EventId
    frame: int
    nominator: EventId
    witnesses: frozenset[EventId]


class Election:
    """Virtual voting on every (frame ``a``, creator ``c``) slot.

    A slot asks whether ``c``'s frame-``a`` root is a Clotho.  Each root
    votes once, from its own past, on every slot still open when it is
    fed:

    - a frame ``a+1`` root votes for the frame-``a`` root of ``c`` that
      its past holds, or no when there is none or its past holds a fork
      of ``c``;
    - a root ``y`` of frame ``b >= a+2`` tallies the frame ``b-1`` roots
      in its past, one per creator whose fork ``y``'s past does not
      show.  A quorum of votes for one root decides yes (that root is a
      Clotho, ``y`` its nominator and those voters its witnesses), a
      quorum of no votes decides no, and otherwise ``y`` votes the
      majority, ties to yes.

    Roots are fed in causal order, so every vote a tally reads was cast
    before it, and a vote on a decided slot is never needed.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.q = quorum(n)
        self.clothos: dict[EventId, ClothoRecord] = {}
        self.by_frame: dict[int, list[EventId]] = {}  # Clotho roots per frame
        self.complete = 1  # every slot of the frames below is decided
        self.fresh: list[EventId] = []  # Clothos the latest feed decided
        self._fed = 0  # how much of the root graph's order was fed
        # frame -> creators whose slot is open, for frames >= complete
        self._open: dict[int, set[NodeId]] = {}
        # open slot -> root -> the root it voted for, None for no
        self._votes: dict[tuple[int, NodeId], dict[EventId, EventId | None]] = {}

    def feed(self, chain: Chain, rg: RootGraph) -> None:
        """Let the graph's roots not fed yet vote."""
        self.fresh = []
        for y in rg.order[self._fed:]:
            self._vote(chain, rg, y)
        self._fed = len(rg.order)

    def _vote(self, chain: Chain, rg: RootGraph, y: EventId) -> None:
        b = rg.roots[y].frame
        if b < self.complete:
            return  # a late root: every slot it could vote on is decided
        self._open.setdefault(b, set(range(self.n)))
        if b == self.complete:
            return
        anc = chain.ancestor_mask(y)
        forked = chain.forks_in(anc)
        # without a fork of c in y's past, c has one frame b-1 root there
        voters = {
            c: rs[0]
            for c, rs in rg.roots_below(chain, b - 1, anc).items()
            if c not in forked
        }
        for c in self._open[b - 1]:
            self._votes.setdefault((b - 1, c), {})[y] = voters.get(c)
        for a in range(self.complete, b - 1):
            for c in sorted(self._open[a]):
                self._tally(y, a, c, voters)
        while self._open.get(self.complete) == set():
            del self._open[self.complete]
            self.complete += 1

    def _tally(
        self, y: EventId, a: int, c: NodeId, voters: dict[NodeId, EventId]
    ) -> None:
        votes = self._votes.setdefault((a, c), {})
        yes: dict[EventId, list[EventId]] = {}
        no = 0
        for x in voters.values():
            r = votes[x]
            if r is None:
                no += 1
            else:
                yes.setdefault(r, []).append(x)
        best = min(yes, key=lambda r: (-len(yes[r]), r), default=None)
        ayes = len(yes[best]) if best is not None else 0
        if ayes >= self.q:
            self.clothos[best] = ClothoRecord(best, a, y, frozenset(yes[best]))
            self.by_frame.setdefault(a, []).append(best)
            self.fresh.append(best)
        elif no < self.q:
            votes[y] = best if ayes and ayes >= no else None
            return
        self._open[a].discard(c)
        del self._votes[(a, c)]


def select_clothos(
    chain: Chain, rg: RootGraph, n: int, election: Election | None = None
) -> dict[EventId, ClothoRecord]:
    """Clotho records of every slot decided yes so far.

    ``election`` is fed the roots it has not seen and its records are
    returned; without one, a new election is fed every root of ``rg``.
    """
    if election is None:
        election = Election(n)
    election.feed(chain, rg)
    return election.clothos


@dataclass(frozen=True)
class AtroposRecord:
    clotho: ClothoRecord
    consensus_position: int


@dataclass
class FinalOrder:
    """Append-only final order plus the Atropos main chain."""

    ordered_events: list[EventId] = field(default_factory=list)
    processed_mask: int = 0
    atropos: list[AtroposRecord] = field(default_factory=list)
    # last emitted event per creator: emission follows exactly one
    # self-chain per creator, so no two concurrent same-creator events
    # (fork members) can both be finalized
    emitted_heads: dict[int, EventId] = field(default_factory=dict)

    @property
    def main_chain(self) -> list[EventId]:
        return [a.clotho.root for a in self.atropos]


def select_atropos(
    chain: Chain,
    layering: Layering,
    clothos: dict[EventId, ClothoRecord],
    order: FinalOrder,
) -> list[AtroposRecord]:
    """Assign consensus positions to Clothos above the main chain's frame.

    Emission goes one complete frame at a time, so Clothos are taken by
    frame, then in the canonical vertex order; positions continue from
    where the main chain left off.  A Clotho of a frame at or below the
    main chain's last Atropos is taken as already placed, so repeated
    calls are idempotent.
    """
    last = order.atropos[-1].clotho.frame if order.atropos else 0
    fresh = sorted(
        (c for c, rec in clothos.items() if rec.frame > last),
        key=lambda c: (clothos[c].frame, sort_vertex_key(chain, layering, c)),
    )
    new_records = []
    for c in fresh:
        rec = AtroposRecord(clothos[c], len(order.atropos))
        order.atropos.append(rec)
        new_records.append(rec)
    return new_records


def topo_sort_finalize(
    chain: Chain,
    layering: Layering,
    order: FinalOrder,
    new_atropos: list[AtroposRecord],
) -> list[EventId]:
    """Flush the unprocessed past of each new Atropos into the order.

    Each Atropos peels ``subgraph_under(atropos) - processed``, sorted by
    (layer, lamport, id).  Per creator, only the events extending the
    creator's already emitted self-chain head are kept, so of any two
    concurrent same-creator events (a fork pair) at most one branch is
    ever finalized.  This depends only on the Atropos pasts and the
    canonical sort, so replicas that agree on the main chain agree on
    the order no matter when they learned of a fork.
    """
    appended: list[EventId] = []
    heads = order.emitted_heads
    for rec in new_atropos:
        chunk_mask = chain.ancestor_mask(rec.clotho.root) & ~order.processed_mask
        order.processed_mask |= chunk_mask
        chunk = chain.ids_from_mask(chunk_mask)
        for v in sorted(chunk, key=lambda x: sort_vertex_key(chain, layering, x)):
            e = chain.get(v)
            if e.self_ref is None:
                ok = e.creator not in heads
            else:
                ok = heads.get(e.creator) == e.self_ref
            if not ok:
                continue
            heads[e.creator] = v
            order.ordered_events.append(v)
            appended.append(v)
    return appended


def check_prefix(previous: list[EventId], current: list[EventId]) -> None:
    """Fail hard if a recomputed order contradicts an emitted prefix."""
    if len(current) < len(previous) or current[: len(previous)] != previous:
        for i, (a, b) in enumerate(zip(previous, current)):
            if a != b:
                raise ConsensusInvariantError(
                    f"final order diverged at position {i}: "
                    f"{a.hex()[:12]} != {b.hex()[:12]}"
                )
        raise ConsensusInvariantError(
            f"final order shrank: {len(previous)} -> {len(current)}"
        )
