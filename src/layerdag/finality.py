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
from .roots import RootChanges, RootGraph, quorum


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


@dataclass
class ClothoDecisions:
    """Per-root Clotho decisions kept across ``select_clothos`` calls.

    ``clothos`` holds the record of every root decided as Clotho.
    ``reach`` holds, for every root of frame ``a``, how many frame
    ``a+1`` roots reach it.  ``redecided`` holds the roots the latest call
    decided again; every other root's decision is unchanged.
    """

    clothos: dict[EventId, ClothoRecord] = field(default_factory=dict)
    reach: dict[EventId, int] = field(default_factory=dict)
    redecided: list[EventId] = field(default_factory=list)


def _roots_to_redecide(rg: RootGraph, changes: RootChanges) -> set[EventId]:
    """Roots whose Clotho decision may differ after ``changes``.

    A root of frame ``a`` is decided from the members of frames ``a+1``
    (witnesses) and ``a+3`` (nominators) alone, so only new roots and the
    roots of frames ``f-1`` and ``f-3`` of a changed frame ``f`` qualify.
    """
    out = set(changes.added)
    for f in changes.frames:
        out.update(rg.frames.get(f - 1, ()))
        out.update(rg.frames.get(f - 3, ()))
    return out


def select_clothos(
    chain: Chain,
    rg: RootGraph,
    n: int,
    kept: ClothoDecisions | None = None,
    changes: RootChanges | None = None,
) -> dict[EventId, ClothoRecord]:
    """Return Clotho records for every currently decidable root.

    The result is a pure function of the root graph, so every replica
    with the same graph gets the same records.  Given the decisions
    ``kept`` from the previous call and the root graph's ``changes``
    since then, only the roots those changes can affect are decided
    again (see :func:`_roots_to_redecide`) and the records of dropped
    roots are discarded; ``kept`` is updated in place and its
    ``clothos`` returned.  Without ``changes`` every root is decided.
    """
    q = quorum(n)
    if kept is None:
        kept = ClothoDecisions()
    if changes is None:
        kept.clothos.clear()
        kept.reach.clear()
        kept.redecided = list(rg.order)
    else:
        for rec in changes.dropped:
            kept.clothos.pop(rec.event, None)
            kept.reach.pop(rec.event, None)
        kept.redecided = sorted(_roots_to_redecide(rg, changes), key=chain.index_of)
    for rid in kept.redecided:
        found, kept.reach[rid] = _decide_clotho(
            chain, rg.frames, rid, rg.roots[rid].frame, q
        )
        if found:
            kept.clothos[rid] = found
        else:
            kept.clothos.pop(rid, None)
    return kept.clothos


def _decide_clotho(
    chain: Chain,
    frames: dict[int, list[EventId]],
    rid: EventId,
    a: int,
    q: int,
) -> tuple[ClothoRecord | None, int]:
    """The root's Clotho record (or None) and how many witnesses reach it."""
    witness_pool = frames.get(a + 1, [])
    cand_idx = chain.index_of(rid)
    reaching = [w for w in witness_pool if chain.ancestor_mask(w) >> cand_idx & 1]
    if len(reaching) < q:
        return None, len(reaching)
    positions = {chain.index_of(w): w for w in reaching}
    reaching_mask = 0
    for i in positions:
        reaching_mask |= 1 << i
    for nom in sorted(frames.get(a + 3, ()), key=lambda x: chain.get(x).sort_key()):
        seen = chain.ancestor_mask(nom) & reaching_mask
        if seen.bit_count() >= q:
            record = ClothoRecord(
                rid,
                a,
                nom,
                frozenset(positions[i] for i in positions if seen >> i & 1),
            )
            return record, len(reaching)
    return None, len(reaching)


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
    """Assign consensus positions to Clothos sorting after the main chain.

    Clothos are consumed in the canonical vertex order; positions continue
    from where the main chain left off.  A Clotho sorting at or before the
    main chain's last Atropos is taken as already placed (the pipeline
    checks that with ``check_prefix`` first), so repeated calls are
    idempotent.
    """

    def key(c: EventId):
        return sort_vertex_key(chain, layering, c)

    fresh = sorted(clothos, key=key)
    if order.atropos:
        last = key(order.atropos[-1].clotho.root)
        fresh = [c for c in fresh if key(c) > last]
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
