"""DAG layering: longest-path and Coffman-Graham, batch and online.

Layers are numbered from 1.  Edges point child -> parent, so a valid
layering satisfies phi(child) >= phi(parent) + 1 on every reference edge;
leaves sit on layer 1.  The consensus pipeline uses only the online
longest-path variant: a vertex's longest-path layer is a function of its
own past, so every replica gives it the same layer.  A Coffman-Graham
layer also depends on how full a layer already is on the replica, so
replicas that layer a forked DAG in different orders disagree once the
width binds.  The Coffman-Graham variants exist for the width-bound
equivalence checks and experiments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .chain import Chain
from .errors import (
    CycleDetected,
    InvalidWidth,
    NonReducedInput,
    OverlapWithSettled,
    UnlayeredDependency,
)
from .events import EventId


@dataclass
class Layering:
    """Vertex -> layer map plus the per-layer partition."""

    phi: dict[EventId, int] = field(default_factory=dict)
    layers: dict[int, set[EventId]] = field(default_factory=dict)

    def assign(self, v: EventId, layer: int) -> None:
        self.phi[v] = layer
        self.layers.setdefault(layer, set()).add(v)

    @property
    def height(self) -> int:
        return max(self.layers) if self.layers else 0

    @property
    def width(self) -> int:
        return max((len(s) for s in self.layers.values()), default=0)


@dataclass(frozen=True)
class DiffGraph:
    """New vertices and edges added to a dynamic DAG in one update."""

    new_vertices: tuple[EventId, ...]
    new_edges: tuple[tuple[EventId, EventId], ...]


@dataclass
class LayeringState:
    """Mutable state carried across online layering calls."""

    layering: Layering = field(default_factory=Layering)


def max_width(n: int, w_p: float = 0.0, w_c: int = 0) -> Fraction:
    """Layer-width bound tolerating bounded forking: n + n*w_p*w_c/3."""
    if n < 1:
        raise InvalidWidth(f"node count must be >= 1, got {n}")
    return Fraction(n) + Fraction(n) * Fraction(w_p) * w_c / 3


# ---------------------------------------------------------------------------
# batch algorithms
# ---------------------------------------------------------------------------


def layer_lpl(chain: Chain) -> Layering:
    """Longest-path layering: phi(v) = 1 + longest ref-path to a leaf.

    Linear in vertices + edges; produces the minimum possible height.
    """
    lay = Layering()
    # insertion order is a topological order (refs precede referers)
    for e in chain.in_insertion_order():
        if e.refs:
            try:
                layer = 1 + max(lay.phi[r] for r in e.refs)
            except KeyError:
                raise CycleDetected(
                    f"{e.short()} processed before one of its refs"
                ) from None
        else:
            layer = 1
        lay.assign(e.id, layer)
    return lay


def transitive_reduce(chain: Chain) -> dict[EventId, tuple[EventId, ...]]:
    """Reduced parent lists: drop (u, v) when another path u ~> v exists.

    Reachability is preserved; an edge is redundant exactly when its
    target is an ancestor of one of the child's other parents.
    """
    reduced: dict[EventId, tuple[EventId, ...]] = {}
    for e in chain.in_insertion_order():
        refs = e.refs
        if len(refs) <= 1:
            reduced[e.id] = tuple(refs)
            continue
        keep = []
        for r in refs:
            if not any(chain.happened_before(r, o) for o in refs if o != r):
                keep.append(r)
        reduced[e.id] = tuple(keep)
    return reduced


def _check_reduced(
    chain: Chain, parents: dict[EventId, tuple[EventId, ...]]
) -> None:
    for child, refs in parents.items():
        for r in refs:
            for o in refs:
                if o != r and chain.happened_before(r, o):
                    raise NonReducedInput(
                        f"edge {chain.get(child).short()} -> "
                        f"{chain.get(r).short()} is transitive"
                    )


def cg_order(
    chain: Chain, parents: dict[EventId, tuple[EventId, ...]]
) -> dict[EventId, int]:
    """Phase-1 ranks: vertices ordered by distance from the sources.

    Distance from the sources (the leaves) is the longest-path layer, the
    natural "readiness" order for phase 2.  Ties break by (lamport, id) so
    every node derives the same order.  Higher rank = earlier placement.
    """
    depth: dict[EventId, int] = {}
    order = []
    for e in chain.in_insertion_order():
        if e.id not in parents:
            continue
        refs = parents[e.id]
        depth[e.id] = 1 + max((depth[r] for r in refs), default=0)
        order.append(e)
    order.sort(key=lambda e: (depth[e.id], e.lamport_ts, e.id))
    n = len(order)
    return {e.id: n - i for i, e in enumerate(order)}


def layer_cg(
    chain: Chain,
    width: int,
    parents: dict[EventId, tuple[EventId, ...]] | None = None,
) -> Layering:
    """Coffman-Graham layering with a fixed maximum width.

    Requires the transitively reduced graph (pass ``parents`` from
    :func:`transitive_reduce`, or leave None to have the chain's own
    reference edges validated).  Vertices are placed as close to the
    bottom as possible; when the current top layer is full or a parent
    sits on it, a fresh top layer is opened.
    """
    if width < 1:
        raise InvalidWidth(f"width must be >= 1, got {width}")
    if parents is None:
        parents = {e.id: e.refs for e in chain.in_insertion_order()}
    _check_reduced(chain, parents)
    rank = cg_order(chain, parents)

    children: dict[EventId, list[EventId]] = {v: [] for v in parents}
    pending: dict[EventId, int] = {}
    for child, refs in parents.items():
        pending[child] = len(refs)
        for r in refs:
            children[r].append(child)

    ready = [(-rank[v], v) for v, deg in pending.items() if deg == 0]
    heapq.heapify(ready)

    lay = Layering()
    top = 0
    placed: set[EventId] = set()
    while ready:
        _, v = heapq.heappop(ready)
        parent_layers = [lay.phi[p] for p in parents[v]]
        fits = (
            top >= 1
            and len(lay.layers[top]) < width
            and all(pl < top for pl in parent_layers)
        )
        if top == 0 or not fits:
            top += 1
        lay.assign(v, top)
        placed.add(v)
        for c in children[v]:
            pending[c] -= 1
            if pending[c] == 0:
                heapq.heappush(ready, (-rank[c], c))
    if len(placed) != len(parents):
        raise CycleDetected("not all vertices became ready")
    return lay


# ---------------------------------------------------------------------------
# online algorithms
# ---------------------------------------------------------------------------


def _diff_parents(
    state: LayeringState, diff: DiffGraph, chain: Chain
) -> dict[EventId, list[EventId]]:
    """Each diff vertex's parents, with the vertices in insertion order.

    Insertion order is causal, so every parent comes before its child.
    """
    phi = state.layering.phi
    # layers are never reassigned: every layered vertex is settled
    overlap = {v for v in diff.new_vertices if v in phi}
    if overlap:
        raise OverlapWithSettled(
            ",".join(v.hex()[:12] for v in sorted(overlap))
        )
    index = {v: chain.index_of(v) for v in diff.new_vertices}
    parents: dict[EventId, list[EventId]] = {
        v: [] for v in sorted(index, key=index.__getitem__)
    }
    for child, parent in diff.new_edges:
        if child not in index:
            raise UnlayeredDependency(
                f"diff edge child {child.hex()[:12]} not in new vertices"
            )
        if parent in index:
            if index[parent] >= index[child]:
                raise UnlayeredDependency(
                    f"parent {parent.hex()[:12]} was not inserted before its child"
                )
        elif parent not in phi:
            raise UnlayeredDependency(
                f"parent {parent.hex()[:12]} has no layer"
            )
        parents[child].append(parent)
    return parents


def layer_lpl_online(
    state: LayeringState, diff: DiffGraph, chain: Chain
) -> LayeringState:
    """Online longest-path layering: label only the diff vertices.

    The diff vertices are labelled in insertion order.  Settled labels are
    never touched, so the result after streaming any causal sequence of
    diffs equals the batch layering of the final DAG.
    """
    for v, ps in _diff_parents(state, diff, chain).items():
        layer = 1 + max((state.layering.phi[p] for p in ps), default=0)
        state.layering.assign(v, layer)
    return state


def layer_cg_online(
    state: LayeringState, width: int, diff: DiffGraph, chain: Chain
) -> LayeringState:
    """Online Coffman-Graham: append diff vertices to the lowest feasible layer.

    The diff vertices are placed in insertion order.  A vertex lands on
    max(parent layers) + 1 when that layer still has room, otherwise on a
    fresh top layer, so its layer depends on the order the vertices
    arrive in.  Assumes causal diffs on the reduced view, like the batch
    variant.
    """
    if width < 1:
        raise InvalidWidth(f"width must be >= 1, got {width}")
    for v, ps in _diff_parents(state, diff, chain).items():
        target = 1 + max((state.layering.phi[p] for p in ps), default=0)
        if len(state.layering.layers.get(target, ())) >= width:
            target = max(state.layering.height, target) + 1
        state.layering.assign(v, target)
    return state
