"""Root selection, root graph construction, and frame assignment.

A vertex becomes a root when it reaches more than two thirds of the
current active root set (one root per creator); leaves are roots by
definition.  Roots get frame numbers via root-layering.
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

    def edge_pairs(self) -> list[tuple[EventId, EventId]]:
        return [(u, v) for u, targets in self.edges.items() for v in targets]

    def frame_members(self) -> dict[int, list[EventId]]:
        frames: dict[int, list[EventId]] = {}
        for rid in self.order:
            frames.setdefault(self.roots[rid].frame, []).append(rid)
        return frames

    @property
    def max_frame(self) -> int:
        return max((r.frame for r in self.roots.values()), default=0)


class RootGraphEngine:
    """Incremental root-graph builder with per-layer checkpoints.

    Decisions are a pure function of chain content: the engine sweeps the
    layering bottom-up, and when events arrive at a layer it has already
    passed, it rolls back to that layer's checkpoint and replays.  Replays
    are shallow in practice because syncs deliver near-top events.
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
        if reached:
            self.graph.edges[vid] = reached
        idx = chain.index_of(vid)
        self._bit[vid] = idx
        self._frame_masks[frame] = self._frame_masks.get(frame, 0) | (1 << idx)

    # -- sweep ---------------------------------------------------------

    def _rollback_to(self, layer: int) -> None:
        """Drop all decisions at layers > ``layer``."""
        self.generation += 1
        if layer <= 0:
            self.graph = RootGraph()
            self._frame_masks = {}
            self._bit = {}
            self._processed_through = 0
            self._checkpoints.clear()
            return
        active, count = self._checkpoints[layer]
        dropped = self.graph.order[count:]
        for rid in dropped:
            rec = self.graph.roots.pop(rid)
            self.graph.edges.pop(rid, None)
            self._frame_masks[rec.frame] &= ~(1 << self._bit[rid])
            if not self._frame_masks[rec.frame]:
                del self._frame_masks[rec.frame]
        del self.graph.order[count:]
        self.graph.active = dict(active)
        self._checkpoints = {
            l: cp for l, cp in self._checkpoints.items() if l <= layer
        }
        self._processed_through = layer

    def _process_layer(
        self, chain: Chain, layer: int, members: list[EventId], exclude: frozenset
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
        exclude: frozenset = frozenset(),
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
    exclude: frozenset = frozenset(),
) -> RootGraph:
    """Batch root graph over a fully layered chain."""
    if len(layering.phi) < len(chain):
        raise MissingLayering("layering does not cover all events")
    engine = RootGraphEngine(n)
    return engine.update(chain, layering, list(layering.phi), exclude)

