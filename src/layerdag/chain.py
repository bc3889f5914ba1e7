"""Per-node append-only event DAG with reachability indices.

The chain stores every accepted event block, keyed by id, together with
incrementally maintained ancestor bitmasks.  Those bitmasks make
happened-before queries, subgraph extraction and fork detection cheap
enough to run inside the consensus pipeline on every step.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import AbstractSet, Iterable, Iterator

from .errors import (
    DuplicateEvent,
    InvalidLamport,
    MissingRef,
    RefShapeViolation,
    UnknownEvent,
)
from .events import EventBlock, EventId, NodeId

KnownMap = dict[NodeId, int]  # per-creator count of known events


class Chain:
    """Append-only OPERA-style DAG held by one node.

    Events are immutable once inserted.  The structure is safe to share
    read-only; mutation is single-writer.

    A creator is forked once it has two concurrent events (neither a
    self-ancestor of the other).  Only then does the chain keep its
    events' (lamport, id) keys sorted, so each later insert marks fork
    victims by bisection instead of pairing the new event with the
    creator's whole self-chain, and a mask of its events, so ``forks_in``
    tells whether a past holds one of its forks and ``first_rival``
    names a fork member's rival with a few mask operations.
    """

    def __init__(self) -> None:
        self.events: dict[EventId, EventBlock] = {}
        self.by_creator: dict[NodeId, list[EventId]] = {}
        # (creator, creation_seq) -> ids; more than one id means a fork
        self.by_seq: dict[tuple[NodeId, int], list[EventId]] = {}
        # index of each event in insertion order, used for bitmasks
        self._index: dict[EventId, int] = {}
        self._order: list[EventId] = []
        # ancestor masks exclude the event itself; self-ancestor masks
        # follow only self-ref edges
        self._anc: dict[EventId, int] = {}
        self._self_anc: dict[EventId, int] = {}
        # per-creator self-chain tips: events with no same-creator child
        self._tips: dict[NodeId, set[EventId]] = {}
        # per forked creator, built at its first fork: the sort keys of
        # its events, ascending, and a bitmask over their insertion indices
        self._fork_keys: dict[NodeId, list[tuple[int, EventId]]] = {}
        self._fork_masks: dict[NodeId, int] = {}
        # later-by-(lamport, id) member of every fork pair seen so far
        self._fork_victims: set[EventId] = set()

    # -- basics -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __contains__(self, event_id: EventId) -> bool:
        return event_id in self.events

    def get(self, event_id: EventId) -> EventBlock:
        try:
            return self.events[event_id]
        except KeyError:
            raise UnknownEvent(event_id.hex()) from None

    def index_of(self, event_id: EventId) -> int:
        return self._index[event_id]

    def in_insertion_order(self) -> Iterator[EventBlock]:
        for eid in self._order:
            yield self.events[eid]

    def edges(self) -> Iterator[tuple[EventId, EventId]]:
        """All (child, parent) reference edges."""
        for e in self.events.values():
            for ref in e.refs:
                yield (e.id, ref)

    def creators(self) -> list[NodeId]:
        return sorted(self.by_creator)

    # -- insertion ----------------------------------------------------

    def _validate(self, e: EventBlock) -> None:
        if e.id in self.events:
            raise DuplicateEvent(e.id.hex())
        missing = [r for r in e.refs if r not in self.events]
        if missing:
            raise MissingRef(e.id, missing)
        if e.is_leaf:
            if e.creation_seq != 0:
                raise RefShapeViolation(
                    f"leaf {e.short()} must have creation_seq 0"
                )
            if e.other_refs:
                raise RefShapeViolation(f"leaf {e.short()} carries refs")
            if e.lamport_ts != 0:
                raise InvalidLamport(
                    f"leaf {e.short()} claims lamport {e.lamport_ts}, expected 0"
                )
            return
        self_parent = self.events[e.self_ref]
        if self_parent.creator != e.creator:
            raise RefShapeViolation(
                f"{e.short()}: self-ref points at creator {self_parent.creator}"
            )
        if e.creation_seq != self_parent.creation_seq + 1:
            raise RefShapeViolation(
                f"{e.short()}: creation_seq must follow its self parent"
            )
        seen: set[NodeId] = {e.creator}
        for ref in e.other_refs:
            c = self.events[ref].creator
            if c in seen:
                raise RefShapeViolation(
                    f"{e.short()}: more than one ref to creator {c}"
                )
            seen.add(c)
        expected = 1 + max(self.events[r].lamport_ts for r in e.refs)
        if e.lamport_ts != expected:
            raise InvalidLamport(
                f"{e.short()} claims lamport {e.lamport_ts}, expected {expected}"
            )

    def insert(self, e: EventBlock) -> list[EventId]:
        """Insert a validated event; returns ``[e.id]`` if it joins a fork.

        ``e`` joins a fork when an event of its creator already in the
        chain is concurrent with it, which honest creators never cause.
        Each such insert is reported once, so the return value counts
        fork members, not fork pairs; ``[]`` means no fork was touched.
        """
        self._validate(e)
        idx = len(self._order)
        anc = 0
        for ref in e.refs:
            anc |= self._anc[ref] | (1 << self._index[ref])
        self_anc = 0
        if e.self_ref is not None:
            self_anc = self._self_anc[e.self_ref] | (1 << self._index[e.self_ref])

        self.events[e.id] = e
        self._index[e.id] = idx
        self._order.append(e.id)
        self._anc[e.id] = anc
        self._self_anc[e.id] = self_anc
        self.by_creator.setdefault(e.creator, []).append(e.id)
        self.by_seq.setdefault((e.creator, e.creation_seq), []).append(e.id)

        tips = self._tips.setdefault(e.creator, set())
        # extending the creator's sole tip cannot create a fork; anything
        # else (second leaf, stale self parent, or an already-forked
        # creator) makes e concurrent with another tip or a sibling
        if e.is_leaf:
            clean = not tips
        else:
            clean = e.self_ref in tips and len(tips) == 1
        tips.discard(e.self_ref)
        tips.add(e.id)

        if clean:
            return []

        keys = self._fork_keys.get(e.creator)
        if keys is None:
            # a forked creator keeps more than one tip for good, so every
            # later insert of it comes here too
            older = self.by_creator[e.creator][:-1]
            keys = sorted(self.events[x].sort_key() for x in older)
            self._fork_keys[e.creator] = keys
            self._fork_masks[e.creator] = sum(1 << self._index[x] for x in older)
        key = e.sort_key()
        i = bisect_left(keys, key)
        # e's creation_seq self-ancestors sort before it, and every other
        # event of its creator is concurrent with it (none is above it
        # yet): e is the later of a pair iff more events sort before it,
        # and each event sorting after it is the later of its pair with e
        if i > e.creation_seq:
            self._fork_victims.add(e.id)
        keys.insert(i, key)
        self._fork_victims.update(k[1] for k in keys[i + 1:])
        self._fork_masks[e.creator] |= 1 << idx
        return [e.id]

    def _self_related(self, x: EventId, y: EventId) -> bool:
        return (
            self._self_anc[y] >> self._index[x] & 1
            or self._self_anc[x] >> self._index[y] & 1
        )

    def _pairs_with(
        self, y: EventId, others: Iterable[EventId]
    ) -> list[tuple[EventId, EventId]]:
        """Fork pairs, ordered by id, of ``y`` with each concurrent one of ``others``."""
        return [
            (min(x, y), max(x, y)) for x in others if not self._self_related(x, y)
        ]

    # -- queries ------------------------------------------------------

    def happened_before(self, x: EventId, y: EventId) -> bool:
        """True iff x is an ancestor of y (x strictly precedes y)."""
        if x not in self.events:
            raise UnknownEvent(x.hex())
        if y not in self.events:
            raise UnknownEvent(y.hex())
        return bool(self._anc[y] >> self._index[x] & 1)

    def concurrent(self, x: EventId, y: EventId) -> bool:
        return (
            x != y
            and not self.happened_before(x, y)
            and not self.happened_before(y, x)
        )

    def self_ancestor(self, x: EventId, y: EventId) -> bool:
        """True iff x is a self-ancestor of y."""
        if x not in self.events or y not in self.events:
            raise UnknownEvent("unknown event in self_ancestor query")
        return bool(self._self_anc[y] >> self._index[x] & 1)

    def ancestor_mask(self, v: EventId) -> int:
        """Bitmask over insertion indices of v's ancestors plus v itself."""
        return self._anc[v] | (1 << self._index[v])

    def ids_from_mask(self, mask: int) -> set[EventId]:
        out = set()
        i = 0
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            out.add(self._order[i])
            mask ^= low
        return out

    def subgraph_under(self, v: EventId) -> set[EventId]:
        """v plus all of its ancestors (closed under refs)."""
        if v not in self.events:
            raise UnknownEvent(v.hex())
        return self.ids_from_mask(self.ancestor_mask(v))

    def top_event(
        self, creator: NodeId, avoid: AbstractSet[EventId] = frozenset()
    ) -> EventId | None:
        """Canonical tip of a creator's self-chain.

        With forks present there may be several tips; the canonical one is
        the smallest by (lamport, id) outside ``avoid`` so that every node
        picks the same branch.
        """
        tips = self._tips.get(creator)
        if not tips:
            return None
        usable = [t for t in tips if t not in avoid] or list(tips)
        return min(usable, key=lambda t: self.events[t].sort_key())

    @property
    def top_events(self) -> dict[NodeId, EventId]:
        return {
            c: self.top_event(c)
            for c in sorted(self._tips)
            if self._tips[c]
        }

    # -- forks ----------------------------------------------------------

    def detect_forks(self) -> list[tuple[EventId, EventId]]:
        """All same-creator concurrent pairs, each ordered by id.

        Computed on each call, not stored: this O(L^2) scan is the
        reference that ``insert``'s fork bookkeeping must agree with.  Only
        a creator with more than one self-chain tip has concurrent events:
        two events below one tip are both its self-ancestors, so one is a
        self-ancestor of the other.
        """
        pairs: list[tuple[EventId, EventId]] = []
        for creator, ids in self.by_creator.items():
            if len(self._tips[creator]) > 1:
                for j, y in enumerate(ids):
                    pairs.extend(self._pairs_with(y, ids[:j]))
        return sorted(pairs)

    def fork_victims(self) -> set[EventId]:
        """Later-by-(lamport, id) member of every fork pair.

        This is a pure function of chain content, so any two nodes with
        the same chain avoid the same events as references.  The
        returned set is the chain's own, kept current by ``insert`` from
        each forked creator's sorted keys without listing any pair;
        callers must not modify it.
        """
        return self._fork_victims

    def forks_in(self, anc: int) -> set[NodeId]:
        """Creators with a fork inside ``anc``, an ancestor-closed mask.

        The newest event of a creator in ``anc`` has no descendant there,
        so the creator's events in ``anc`` hold a fork iff one of them is
        neither that event nor a self-ancestor of it.
        """
        out = set()
        for c, mask in self._fork_masks.items():
            mine = anc & mask
            if mine:
                top = mine.bit_length() - 1
                if mine & ~(self._self_anc[self._order[top]] | 1 << top):
                    out.add(c)
        return out

    def first_rival(self, y: EventId) -> EventId:
        """Earliest-inserted event concurrent with ``y``, which joined a fork.

        ``y`` joined a fork, so an event of its creator concurrent with it
        was inserted before it, and ``y``'s self-descendants all came
        after it: once ``y`` and its self-ancestors are dropped from the
        creator's mask, the lowest index left is that rival.
        """
        mask = self._fork_masks[self.events[y].creator]
        rest = mask & ~(self._self_anc[y] | 1 << self._index[y])
        return self._order[(rest & -rest).bit_length() - 1]

    # -- transfer between replicas -------------------------------------

    def known_map(self) -> KnownMap:
        return {c: len(ids) for c, ids in sorted(self.by_creator.items())}

    def diff_events(self, remote: KnownMap) -> list[EventBlock]:
        """Local events the remote side is missing, in causal order.

        An event is included when its creation_seq is at or past the
        remote's per-creator count.  Every event's self parent is in the
        chain, so each creator's seqs run from 0 without a gap and the
        walk reads seqs from that count up until one is missing.
        (lamport, id) order is a valid topological order because Lamport
        time strictly increases along references.
        """
        out = []
        for creator in self.by_creator:
            seq = max(remote.get(creator, 0), 0)
            while (ids := self.by_seq.get((creator, seq))) is not None:
                out.extend(self.events[eid] for eid in ids)
                seq += 1
        out.sort(key=EventBlock.sort_key)
        return out

    def closure_of(self, ids: Iterable[EventId]) -> list[EventBlock]:
        """Union of subgraphs under the given ids, in causal order."""
        mask = 0
        for eid in ids:
            if eid in self.events:
                mask |= self.ancestor_mask(eid)
        blocks = [self.events[e] for e in self.ids_from_mask(mask)]
        blocks.sort(key=EventBlock.sort_key)
        return blocks

    def closure_of_limited(
        self,
        ids: Iterable[EventId],
        depth: int = 16,
        known: KnownMap | None = None,
    ) -> list[EventBlock]:
        """Subgraphs under the given ids, truncated ``depth`` hops down.

        Answering an event request with the full past of the wanted events
        is wasteful when the requester misses only a few recent parents;
        it can always re-request whatever the truncated answer still
        left dangling.

        ``known`` is the requester's known map.  The walk does not descend
        into a ref whose creation_seq is below the requester's count for
        its creator: a replica holds each creator's self-chain from seq 0
        up, and a chain is ancestor-closed, so that ref and its whole past
        are already there.  The wanted ids themselves are always included.
        A forked creator's count can hide a branch the requester lacks;
        that branch comes back through a later request.
        """
        known = known or {}
        out: dict[EventId, EventBlock] = {}
        frontier = [eid for eid in ids if eid in self.events]
        for _ in range(depth):
            nxt: list[EventId] = []
            for eid in frontier:
                if eid in out:
                    continue
                e = self.events[eid]
                out[eid] = e
                for r in e.refs:
                    if r in out:
                        continue
                    ref = self.events[r]
                    if ref.creation_seq < known.get(ref.creator, 0):
                        continue
                    nxt.append(r)
            if not nxt:
                break
            frontier = nxt
        blocks = sorted(out.values(), key=EventBlock.sort_key)
        return blocks
