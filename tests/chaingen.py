"""Random valid chain generator shared by the test modules."""

from __future__ import annotations

import random

from layerdag.chain import Chain
from layerdag.events import EventBlock, make_event, make_leaf


def random_chain(
    rng: random.Random,
    n: int,
    events: int,
    k: int = 3,
) -> Chain:
    """Build a fork-free chain with ``events`` blocks over ``n`` creators.

    Every creator starts with a leaf, and each later event extends its
    creator's tip with up to k-1 references to other creators' tips, so
    the result always satisfies the reference-shape rules.
    """
    chain = Chain()
    tips: dict[int, EventBlock] = {}
    for c in range(n):
        leaf = make_leaf(c, payload=b"leaf:%d" % c)
        chain.insert(leaf)
        tips[c] = leaf
    for i in range(max(0, events - n)):
        c = rng.randrange(n)
        others = [tips[p] for p in sorted(tips) if p != c]
        rng.shuffle(others)
        others = others[: rng.randint(0, k - 1)]
        e = make_event(c, tips[c], tuple(others), payload=b"p:%d" % i)
        chain.insert(e)
        tips[c] = e
    return chain


def chain_blocks(chain: Chain) -> list[EventBlock]:
    """The chain's blocks in their (causal) insertion order."""
    return list(chain.in_insertion_order())


def causal_shuffle(
    chain: Chain, rng: random.Random, window: int | None = None
) -> list[EventBlock]:
    """The chain's blocks in a random order that keeps refs first.

    Streaming a chain this way makes late events land below layers an
    online consumer has already passed, as delayed messages do.  With a
    ``window``, each pick is among the first ``window`` blocks left in
    insertion order, which bounds how late a block can arrive.
    """
    remaining = list(chain.in_insertion_order())
    done: set = set()
    out = []
    while remaining:
        ready = [e for e in remaining[:window] if all(r in done for r in e.refs)]
        e = rng.choice(ready)
        remaining.remove(e)
        done.add(e.id)
        out.append(e)
    return out
