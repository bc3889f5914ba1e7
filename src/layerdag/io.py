"""Text serialization: chain files, dumps, DOT export, snapshots.

All writers emit deterministic, line-oriented output so artifacts from
two runs can be compared byte for byte.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .chain import Chain
from .errors import ConfigError
from .events import EventBlock, EventId, compute_event_id, new_event
from .layering import Layering
from .node import NodeState
from .roots import RootGraph

# -- chain files ------------------------------------------------------------


def event_line(e: EventBlock) -> str:
    refs = ",".join(r.hex() for r in e.other_refs)
    self_ref = e.self_ref.hex() if e.self_ref is not None else "-"
    return (
        f"event {e.id.hex()} creator={e.creator} self={self_ref} "
        f"refs={refs} lamport={e.lamport_ts} seq={e.creation_seq} "
        f"payload={e.payload.hex()}"
    )


def parse_event_line(line: str) -> EventBlock:
    parts = line.split()
    if len(parts) != 8 or parts[0] != "event":
        raise ConfigError(f"malformed event line: {line!r}")
    fields = {}
    for p in parts[2:]:
        key, _, val = p.partition("=")
        fields[key] = val
    try:
        eid = bytes.fromhex(parts[1])
        creator = int(fields["creator"])
        self_ref = None if fields["self"] == "-" else bytes.fromhex(fields["self"])
        refs = tuple(
            bytes.fromhex(r) for r in fields["refs"].split(",") if r
        )
        lamport = int(fields["lamport"])
        seq = int(fields["seq"])
        payload = bytes.fromhex(fields["payload"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed event line: {line!r}") from exc
    expected = compute_event_id(creator, self_ref, refs, lamport, payload, seq)
    if expected != eid:
        raise ConfigError(f"event id mismatch on line: {line!r}")
    return new_event(creator, self_ref, refs, lamport, payload, seq)


def write_chain(chain: Chain, fh: TextIO) -> None:
    for e in chain.in_insertion_order():
        fh.write(event_line(e) + "\n")


def read_chain(fh: TextIO) -> Chain:
    chain = Chain()
    buffered: list[EventBlock] = []
    for raw in fh:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        buffered.append(parse_event_line(line))
    # insert in dependency order regardless of file order
    progress = True
    while buffered and progress:
        progress = False
        rest = []
        for e in buffered:
            if all(r in chain for r in e.refs):
                chain.insert(e)
                progress = True
            else:
                rest.append(e)
        buffered = rest
    if buffered:
        raise ConfigError(
            f"chain file has {len(buffered)} events with unresolved references"
        )
    return chain


# -- dumps --------------------------------------------------------------------


def layering_lines(chain: Chain, layering: Layering) -> list[str]:
    lines = []
    for layer in range(1, layering.height + 1):
        members = sorted(
            layering.layers.get(layer, ()),
            key=lambda v: chain.get(v).sort_key(),
        )
        lines.append(f"layer {layer}: " + ",".join(v.hex() for v in members))
    return lines


def roots_lines(chain: Chain, rg: RootGraph) -> list[str]:
    lines = []
    frames = rg.frames
    for frame in sorted(frames):
        members = sorted(frames[frame], key=lambda v: chain.get(v).sort_key())
        lines.append(
            f"frame {frame}: " + ",".join(chain.get(v).short() for v in members)
        )
    return lines


def finality_lines(node: NodeState) -> list[str]:
    chain = node.chain
    phi = node.lstate.layering.phi
    phi_f = {rid: rec.frame for rid, rec in node.engine.graph.roots.items()}
    atropos = set(node.order.main_chain)
    clothos = set(node.clothos)
    lines = []
    for pos, eid in enumerate(node.order.ordered_events):
        e = chain.get(eid)
        frame = phi_f.get(eid, 0)
        tag = ""
        if eid in atropos:
            tag = " ATROPOS"
        elif eid in clothos:
            tag = " CLOTHO"
        lines.append(
            f"pos={pos} event={e.short()} layer={phi[eid]} "
            f"lamport={e.lamport_ts} frame={frame}{tag}"
        )
    return lines


# -- DOT ------------------------------------------------------------------------


def export_dot(chain: Chain, layering: Layering, fh: TextIO) -> None:
    fh.write("digraph chain {\n")
    fh.write("  rankdir=BT;\n")
    names = {}
    for e in chain.in_insertion_order():
        names[e.id] = f"n{chain.index_of(e.id)}"
        label = f"{e.short()}@{layering.phi.get(e.id, 0)}"
        fh.write(f'  {names[e.id]} [label="{label}"];\n')
    for layer in range(1, layering.height + 1):
        members = sorted(
            layering.layers.get(layer, ()), key=lambda v: chain.get(v).sort_key()
        )
        if members:
            row = "; ".join(names[v] for v in members)
            fh.write(f"  {{ rank=same; {row}; }}\n")
    for child, parent in chain.edges():
        fh.write(f"  {names[child]} -> {names[parent]};\n")
    fh.write("}\n")


# -- snapshots / manifests -----------------------------------------------------


def write_snapshot(node: NodeState, fh: TextIO) -> None:
    """Chain content plus per-section consensus state for one replica."""
    fh.write(f"# node {node.id}\n")
    fh.write("[chain]\n")
    write_chain(node.chain, fh)
    fh.write("[layering]\n")
    for line in layering_lines(node.chain, node.lstate.layering):
        fh.write(line + "\n")
    fh.write("[roots]\n")
    for line in roots_lines(node.chain, node.engine.graph):
        fh.write(line + "\n")
    fh.write("[finality]\n")
    for line in finality_lines(node):
        fh.write(line + "\n")
    fh.write("[stages]\n")
    for payload in sorted(node.stages):
        stage = node.stages[payload]
        extra = ""
        if payload in node.final_positions:
            extra = f" pos={node.final_positions[payload]}"
        fh.write(f"tx={payload.hex()} stage={stage.name}{extra}\n")


def write_manifest(pairs: Iterable[tuple[str, object]], fh: TextIO) -> None:
    for key, value in pairs:
        fh.write(f"{key}={value}\n")


def write_trace(entries, fh: TextIO) -> None:
    for t in entries:
        fh.write(t.line() + "\n")
