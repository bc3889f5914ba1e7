"""Root selection, root graph construction, and frame assignment.

A vertex becomes a root when it reaches more than two thirds of the
current active root set (one root per creator); leaves are roots by
definition.  Roots get frame numbers via root-layering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet

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
    layer: int
    creator: NodeId


@dataclass
class RootGraph:
    """Reduced reachability graph over roots.

    ``edges`` maps each root to the active roots it reached when it was
    promoted; every root has at most one edge per peer creator because
    the active set holds one root per creator.
    """

    roots: dict[EventId, RootRecord] = field(default_factory=dict)
    edges: dict[EventId, tuple[EventId, ...]] = field(default_factory=dict)
    active: dict[NodeId, EventId] = field(default_factory=dict)
    order: list[EventId] = field(default_factory=list)  # promotion order
    # frame -> its roots in promotion order; only non-empty frames appear
    frames: dict[int, list[EventId]] = field(default_factory=dict)

    def edge_pairs(self) -> list[tuple[EventId, EventId]]:
        return [(u, v) for u, targets in self.edges.items() for v in targets]

    def frame_members(self) -> dict[int, list[EventId]]:
        """The frame partition the engine keeps; callers must not modify it."""
        return self.frames

    @property
    def max_frame(self) -> int:
        return max(self.frames, default=0)


@dataclass
class RootChanges:
    """How a root graph changed since a reader last took its changes.

    ``added`` holds the roots present now that were not present then, or
    were in another frame, in promotion order.  ``dropped`` holds the
    records of the roots present then that are gone now or in another
    frame.  ``frames`` holds every frame that gained or lost a member.
    """

    added: dict[EventId, None] = field(default_factory=dict)
    dropped: list[RootRecord] = field(default_factory=list)
    frames: set[int] = field(default_factory=set)


class RootGraphEngine:
    """Incremental root-graph builder with per-layer checkpoints.

    Decisions are a pure function of chain content: the engine sweeps the
    layering bottom-up, and when events arrive at a layer it has already
    passed, it rolls back to that layer's checkpoint and replays.  Replays
    are shallow in practice because syncs deliver near-top events.

    The graph's frame partition is kept as the sweep goes: a promotion
    appends to its frame's list, and since a rollback only drops the tail
    of the promotion order, it only drops the tail of each frame's list.
    What was promoted and dropped since the last ``take_changes()`` is
    recorded, so a reader can redo only what depends on it.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.q = quorum(n)
        self.graph = RootGraph()
        self.generation = 0  # bumped on every rollback
        self._frame_masks: dict[int, int] = {}  # frame -> bitmask of roots
        self._bit: dict[EventId, int] = {}  # root -> chain index
        self._processed_through = 0
        # checkpoint i: (active set, promotion count) after processing layer i
        self._checkpoints: dict[int, tuple[dict[NodeId, EventId], int]] = {}
        self._changes = RootChanges()

    # -- frame assignment for one freshly promoted root ---------------

    def _frame_for(self, chain: Chain, rid: EventId, reached: list[EventId]) -> int:
        e = chain.get(rid)
        if e.is_leaf:
            return 1
        anc = chain.ancestor_mask(rid)
        threshold = 0
        for f in sorted(self._frame_masks, reverse=True):
            if (anc & self._frame_masks[f]).bit_count() >= self.q:
                threshold = f
                break
        # root-graph edges must strictly decrease the frame along (u, v)
        edge_floor = max(
            (self.graph.roots[t].frame for t in reached), default=0
        )
        return max(threshold + 1, edge_floor + 1, 1)

    def _promote(
        self,
        chain: Chain,
        vid: EventId,
        frame: int,
        layer: int,
        creator: NodeId,
        reached: tuple[EventId, ...],
    ) -> None:
        self.graph.roots[vid] = RootRecord(vid, frame, layer, creator)
        self.graph.order.append(vid)
        self.graph.frames.setdefault(frame, []).append(vid)
        self._changes.added[vid] = None
        if reached:
            self.graph.edges[vid] = reached
        idx = chain.index_of(vid)
        self._bit[vid] = idx
        self._frame_masks[frame] = self._frame_masks.get(frame, 0) | (1 << idx)

    # -- sweep ---------------------------------------------------------

    def _rollback_to(self, layer: int) -> None:
        """Drop all decisions at layers > ``layer``."""
        self.generation += 1
        layer = max(layer, 0)
        active, count = self._checkpoints[layer] if layer else ({}, 0)
        graph, changes = self.graph, self._changes
        for rid in reversed(graph.order[count:]):
            rec = graph.roots.pop(rid)
            graph.edges.pop(rid, None)
            # the dropped roots are the tail of the promotion order, so
            # each one is the last member of its frame
            members = graph.frames[rec.frame]
            members.pop()
            if not members:
                del graph.frames[rec.frame]
            self._frame_masks[rec.frame] &= ~(1 << self._bit.pop(rid))
            if not self._frame_masks[rec.frame]:
                del self._frame_masks[rec.frame]
            if rid in changes.added:
                del changes.added[rid]  # never seen by the reader
            else:
                changes.dropped.append(rec)
        del graph.order[count:]
        graph.active = dict(active)
        for l in range(layer + 1, self._processed_through + 1):
            self._checkpoints.pop(l, None)
        self._processed_through = layer

    def take_changes(self) -> RootChanges:
        """What the graph gained and lost since the previous call.

        A root that a rollback dropped and the replay promoted again into
        the same frame counts as neither added nor dropped.
        """
        changes, self._changes = self._changes, RootChanges()
        roots = self.graph.roots
        back = {rec.event for rec in changes.dropped if roots.get(rec.event) == rec}
        if back:
            changes.dropped = [r for r in changes.dropped if r.event not in back]
            for rid in back:
                del changes.added[rid]
        changes.frames = {roots[rid].frame for rid in changes.added}
        changes.frames.update(rec.frame for rec in changes.dropped)
        return changes

    def _process_layer(
        self,
        chain: Chain,
        layer: int,
        members: list[EventId],
        exclude: AbstractSet[EventId],
    ) -> None:
        newly: list[EventId] = []
        for vid in sorted(members, key=lambda v: chain.get(v).sort_key()):
            if vid in exclude:
                continue
            e = chain.get(vid)
            if e.is_leaf:
                # genesis vertices join the root graph unconditionally
                self._promote(chain, vid, 1, layer, e.creator, ())
                newly.append(vid)
                continue
            anc = chain.ancestor_mask(vid)
            reached = [
                rid
                for rid in self.graph.active.values()
                if anc >> chain.index_of(rid) & 1
            ]
            if len(reached) >= self.q:
                frame = self._frame_for(chain, vid, reached)
                self._promote(chain, vid, frame, layer, e.creator, tuple(reached))
                newly.append(vid)
        for rid in newly:
            self.graph.active[chain.get(rid).creator] = rid
        self._checkpoints[layer] = (
            dict(self.graph.active),
            len(self.graph.order),
        )
        self._processed_through = layer

    def update(
        self,
        chain: Chain,
        layering: Layering,
        new_events: list[EventId],
        exclude: AbstractSet[EventId] = frozenset(),
    ) -> RootGraph:
        """Extend the sweep to cover ``new_events`` (and any rollback)."""
        for eid in new_events:
            if eid not in layering.phi:
                raise MissingLayering(eid.hex())
        lowest = min(
            (layering.phi[e] for e in new_events),
            default=self._processed_through + 1,
        )
        if lowest <= self._processed_through:
            self._rollback_to(lowest - 1)
        for layer in range(self._processed_through + 1, layering.height + 1):
            members = layering.layers.get(layer)
            if not members:
                self._checkpoints[layer] = (
                    dict(self.graph.active),
                    len(self.graph.order),
                )
                self._processed_through = layer
                continue
            self._process_layer(chain, layer, sorted(members), exclude)
        return self.graph


def build_root_graph(
    chain: Chain,
    layering: Layering,
    n: int,
    exclude: AbstractSet[EventId] = frozenset(),
) -> RootGraph:
    """Batch root graph over a fully layered chain."""
    if len(layering.phi) < len(chain):
        raise MissingLayering("layering does not cover all events")
    engine = RootGraphEngine(n)
    return engine.update(chain, layering, list(layering.phi), exclude)

