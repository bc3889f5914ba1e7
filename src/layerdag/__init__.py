"""Layered DAG consensus library and simulation harness."""

from .chain import Chain
from .errors import LayerDagError
from .events import EventBlock, EventId, NodeId, make_event, make_leaf
from .finality import AtroposRecord, ClothoRecord, FinalOrder
from .layering import Layering, layer_cg, layer_lpl, max_width, transitive_reduce
from .node import ConfirmationStage, NodeState
from .roots import RootGraph, build_root_graph, quorum
from .simnet import RunResult, SimConfig, run

__all__ = [
    "AtroposRecord",
    "Chain",
    "ClothoRecord",
    "ConfirmationStage",
    "EventBlock",
    "EventId",
    "FinalOrder",
    "LayerDagError",
    "Layering",
    "NodeId",
    "NodeState",
    "RootGraph",
    "RunResult",
    "SimConfig",
    "build_root_graph",
    "layer_cg",
    "layer_lpl",
    "make_event",
    "make_leaf",
    "max_width",
    "quorum",
    "run",
    "transitive_reduce",
]

__version__ = "0.1.0"
