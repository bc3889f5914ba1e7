"""Clotho/Atropos selection and final event ordering.

A root of frame ``a`` becomes Clotho once some root three frames above it
confirms, through its ancestry, a quorum of frame ``a+1`` roots that
themselves reach the candidate.  Each Clotho is then assigned a consensus
position (making it Atropos) and its not-yet-processed past is flushed
into the final order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import Chain
from .errors import ConsensusInvariantError, UnlayeredVertex
from .events import EventId
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


ClothoCache = dict[EventId, tuple[tuple, "ClothoRecord | None"]]


def select_clothos(
    chain: Chain,
    rg: RootGraph,
    n: int,
    cache: ClothoCache | None = None,
    frames: dict[int, list[EventId]] | None = None,
) -> dict[EventId, ClothoRecord]:
    """Return Clotho records for every currently decidable root.

    The result is a pure function of the root graph, so every replica
    with the same graph gets the same records.  ``cache`` memoizes the
    per-root decision keyed by everything it depends on (the root's
    frame and the witness/nominator frame populations), turning repeat
    calls into cheap signature comparisons.  ``frames`` may pass in
    ``rg.frame_members()`` when the caller has already built it.
    """
    out: dict[EventId, ClothoRecord] = {}
    q = quorum(n)
    if frames is None:
        frames = rg.frame_members()
    # fingerprints change whenever a frame's membership changes, including
    # after engine rollbacks that keep the population count the same
    fp = {f: hash(tuple(members)) for f, members in frames.items()}
    for rid, rec in rg.roots.items():
        a = rec.frame
        sig = (a, fp.get(a + 1), fp.get(a + 3))
        if cache is not None and rid in cache and cache[rid][0] == sig:
            hit = cache[rid][1]
            if hit is not None:
                out[rid] = hit
            continue
        found = _decide_clotho(chain, frames, rid, a, q)
        if cache is not None:
            cache[rid] = (sig, found)
        if found:
            out[rid] = found
    return out


def _decide_clotho(
    chain: Chain,
    frames: dict[int, list[EventId]],
    rid: EventId,
    a: int,
    q: int,
) -> ClothoRecord | None:
    witness_pool = frames.get(a + 1, [])
    if not witness_pool:
        return None
    cand_idx = chain.index_of(rid)
    reaching = [w for w in witness_pool if chain.ancestor_mask(w) >> cand_idx & 1]
    if len(reaching) < q:
        return None
    positions = {chain.index_of(w): w for w in reaching}
    reaching_mask = 0
    for i in positions:
        reaching_mask |= 1 << i
    for nom in sorted(frames.get(a + 3, ()), key=lambda x: chain.get(x).sort_key()):
        seen = chain.ancestor_mask(nom) & reaching_mask
        if seen.bit_count() >= q:
            return ClothoRecord(
                rid,
                a,
                nom,
                frozenset(positions[i] for i in positions if seen >> i & 1),
            )
    return None


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
    """Assign consensus positions to Clothos not yet on the main chain.

    Clothos are consumed in the canonical vertex order; positions continue
    from where the main chain left off, so repeated calls are idempotent.
    """
    done = set(order.main_chain)
    fresh = sorted(
        (c for c in clothos if c not in done),
        key=lambda c: sort_vertex_key(chain, layering, c),
    )
    new_records = []
    pos = len(order.atropos)
    for c in fresh:
        rec = AtroposRecord(clothos[c], pos)
        order.atropos.append(rec)
        new_records.append(rec)
        pos += 1
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
