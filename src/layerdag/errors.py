"""Exception hierarchy for the layerdag package."""


class LayerDagError(Exception):
    """Base class for all layerdag errors."""


# --- event / chain errors -------------------------------------------------

class MissingRef(LayerDagError):
    """An event references a block that is not present in the chain."""

    def __init__(self, event_id, missing):
        self.event_id = event_id
        self.missing = tuple(missing)
        super().__init__(
            f"event {event_id.hex()} references missing blocks: "
            + ",".join(m.hex() for m in self.missing)
        )


class DuplicateEvent(LayerDagError):
    pass


class InvalidLamport(LayerDagError):
    """Claimed Lamport timestamp differs from the recomputed value."""


class RefShapeViolation(LayerDagError):
    """Reference list breaks the one-ref-per-peer-creator / self-ref rules."""


class UnknownEvent(LayerDagError):
    pass


class CycleDetected(LayerDagError):
    pass


# --- layering errors ------------------------------------------------------

class NonReducedInput(LayerDagError):
    """A transitive edge was found where a reduced graph is required."""


class InvalidWidth(LayerDagError):
    pass


class UnlayeredDependency(LayerDagError):
    """A diff vertex references a vertex that has no layer yet."""


class OverlapWithSettled(LayerDagError):
    """A diff re-introduces a vertex that is already layered."""


class UnlayeredVertex(LayerDagError):
    pass


# --- root / frame errors --------------------------------------------------

class MissingLayering(LayerDagError):
    pass


# --- node / harness errors ------------------------------------------------

class UnknownTransaction(LayerDagError):
    pass


class IncompleteCoverage(LayerDagError):
    """Some creator has no event yet; a global estimate is undefined."""


class InvalidCut(LayerDagError):
    pass


class ConfigError(LayerDagError):
    pass


class ConsensusInvariantError(LayerDagError):
    """A decision that must be final was contradicted by a recomputation."""
