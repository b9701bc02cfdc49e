"""Max-flow substrate of the forest-polytope separation oracle."""

from .maxflow import FlowNetwork, INFINITY

__all__ = ["FlowNetwork", "INFINITY"]
