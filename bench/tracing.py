"""Spans around the public functions of each layerdag module.

``Tracer.installed()`` wraps each function where its caller looks it up
(``node.py`` imports ``select_clothos`` by name, so the wrapper goes into
``layerdag.node``; ``Chain.insert`` is a method, so it goes on the class)
and restores the originals on exit.  A span is (name, start, end, parent)
kept in flat arrays; a span's self time is its duration minus that of its
child spans.  Counts taken from arguments and results are added outside
the timed interval.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import layerdag.chain as chain_mod
import layerdag.events as events_mod
import layerdag.io as io_mod
import layerdag.node as node_mod
import layerdag.roots as roots_mod
import layerdag.simnet as simnet_mod

class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._height: dict[int, int] = {}  # id(engine) -> layering height after its last update

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, before=None, after=None):
        """Span wrapper; ``name`` is a string or a function of the call's arguments."""
        fixed = None if callable(name) else self._name_id(name)
        stack, perf = self._stack, time.perf_counter
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(*args, **kwargs))
            note = before(*args, **kwargs) if before is not None else None
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(res, note, *args, **kwargs)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken from arguments and results ----------------------

    def _count(self, key: str, size=lambda res, *args, **kwargs: len(res)):
        """An ``after`` hook adding ``size`` (by default the result's length) to ``key``."""

        def after(res, _note, *args, **kwargs):
            self.counts[key] += size(res, *args, **kwargs)

        return after

    def _engine_before(self, engine, chain, layering, new_events, exclude=frozenset()):
        if not new_events:
            return None
        return min(layering.phi[e] for e in new_events)

    def _engine_after(self, res, lowest, engine, chain, layering, new_events, exclude=frozenset()):
        prev = self._height.get(id(engine), 0)
        if lowest is not None and prev - lowest + 1 > 0:
            self.counts["roots.layers_replayed"] += prev - lowest + 1
        self._height[id(engine)] = layering.height

    def _ingest_after(self, report, _note, node, events):
        self.counts["node.ingest_events.offered"] += len(events)
        self.counts["node.ingest_events.accepted"] += len(report.accepted)

    def patches(self):
        """(owner, attribute, wrapper) for every traced function."""
        Chain, Engine, Node = chain_mod.Chain, roots_mod.RootGraphEngine, node_mod.NodeState
        w = self._wrap
        new_event = w(events_mod.new_event, "events.new_event")
        return [
            # make_event/make_leaf look new_event up in events; simnet imports it by name
            (events_mod, "new_event", new_event),
            (simnet_mod, "new_event", new_event),
            (Chain, "insert", w(Chain.insert, "chain.insert", after=self._count("chain.insert.fork_pairs"))),
            (Chain, "diff_events", w(Chain.diff_events, "chain.diff_events",
                                     after=self._count("chain.diff_events.events"))),
            (Chain, "closure_of_limited", w(Chain.closure_of_limited, "chain.closure_of_limited",
                                            after=self._count("chain.closure_of_limited.events"))),
            (Chain, "closure_of", w(Chain.closure_of, "chain.closure_of")),
            (node_mod, "layer_lpl_online", w(node_mod.layer_lpl_online, "layering.online",
                                             after=self._count("layering.online.vertices",
                                                               lambda r, state, diff, chain: len(diff.new_vertices)))),
            (Engine, "update", w(Engine.update, "roots.update",
                                 before=self._engine_before, after=self._engine_after)),
            (node_mod, "select_clothos", w(node_mod.select_clothos, "finality.select_clothos")),
            (node_mod, "select_atropos", w(node_mod.select_atropos, "finality.select_atropos")),
            (node_mod, "topo_sort_finalize", w(node_mod.topo_sort_finalize, "finality.topo_sort_finalize")),
            (node_mod, "check_prefix", w(node_mod.check_prefix, "finality.check_prefix")),
            (Node, "run_pipeline", w(Node.run_pipeline, "node.run_pipeline")),
            (Node, "handle_message", w(Node.handle_message,
                                       lambda node, env: "node.handle_message." + type(env.payload).__name__)),
            (Node, "ingest_events", w(Node.ingest_events, "node.ingest_events", after=self._ingest_after)),
            (Node, "create_event", w(Node.create_event, "node.create_event")),
            (io_mod, "write_snapshot", w(io_mod.write_snapshot, "io.write_snapshot")),
            (io_mod, "write_trace", w(io_mod.write_trace, "io.write_trace")),
        ]

    @contextmanager
    def installed(self):
        patches = self.patches()
        saved = []
        try:
            for owner, attr, wrapper in patches:
                original = owner.__dict__[attr]
                if original is not wrapper.__wrapped__:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function it wraps")
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[Counter, defaultdict]:
        """Calls and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """One span per line: id, name, start and end (microseconds from the first span), parent id."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_of[i]]}\t{(self.start[i] - t0) * 1e6:.1f}"
                    f"\t{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n"
                )
