"""Frames and roots decided from each event's own past.

An event's frame is the largest frame among its parents, plus one when
its past holds roots of that frame from at least a quorum of distinct
creators; leaves are in frame 1.  A root is a leaf or a creator's first
event in a frame (its frame is above its self parent's).  Both are
functions of the event's past alone, so every replica assigns them once,
in any causal arrival order, and never revises them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import Chain
from .errors import MissingLayering
from .events import EventId, NodeId
from .layering import Layering


def quorum(n: int) -> int:
    """Smallest integer strictly above 2n/3."""
    return (2 * n) // 3 + 1


@dataclass(frozen=True)
class RootRecord:
    event: EventId
    frame: int
    creator: NodeId


@dataclass
class RootGraph:
    """Every root with its frame; only ever appended to."""

    roots: dict[EventId, RootRecord] = field(default_factory=dict)
    order: list[EventId] = field(default_factory=list)  # causal processing order
    # frame -> its roots in processing order
    frames: dict[int, list[EventId]] = field(default_factory=dict)

    @property
    def max_frame(self) -> int:
        return max(self.frames, default=0)

    def roots_below(
        self, chain: Chain, frame: int, anc: int
    ) -> dict[NodeId, list[EventId]]:
        """Roots of ``frame`` in the ancestor mask ``anc``, by creator."""
        out: dict[NodeId, list[EventId]] = {}
        for r in self.frames.get(frame, ()):
            if anc >> chain.index_of(r) & 1:
                out.setdefault(self.roots[r].creator, []).append(r)
        return out


class RootGraphEngine:
    """Assigns each new event its frame and records the roots.

    ``update`` takes each event once, after its parents; nothing it
    decided is ever revised.
    """

    # counted rollbacks, which frames decided from their own past never
    # need; stays 0 for readers of that count
    generation = 0

    def __init__(self, n: int) -> None:
        self.n = n
        self.q = quorum(n)
        self.graph = RootGraph()
        self.frame: dict[EventId, int] = {}  # every processed event's frame

    def _frame_of(self, chain: Chain, eid: EventId) -> int:
        e = chain.get(eid)
        if e.is_leaf:
            return 1
        f = max(self.frame[r] for r in e.refs)
        if len(self.graph.roots_below(chain, f, chain.ancestor_mask(eid))) >= self.q:
            return f + 1
        return f

    def update(
        self,
        chain: Chain,
        layering: Layering,
        new_events: list[EventId],
    ) -> RootGraph:
        """Frame ``new_events``; each must be layered, its parents framed."""
        for eid in new_events:
            if eid not in layering.phi:
                raise MissingLayering(eid.hex())
        graph = self.graph
        for eid in sorted(new_events, key=chain.index_of):
            f = self._frame_of(chain, eid)
            self.frame[eid] = f
            e = chain.get(eid)
            if e.is_leaf or f > self.frame[e.self_ref]:
                graph.roots[eid] = RootRecord(eid, f, e.creator)
                graph.order.append(eid)
                graph.frames.setdefault(f, []).append(eid)
        return graph


def build_root_graph(chain: Chain, layering: Layering, n: int) -> RootGraph:
    """Root graph of a fully layered chain: one update over every event."""
    if len(layering.phi) < len(chain):
        raise MissingLayering("layering does not cover all events")
    return RootGraphEngine(n).update(chain, layering, list(layering.phi))
