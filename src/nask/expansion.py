"""Neighborhood expansion depth and the depth-summed graph kernel.

Expanding a star by one step adds every edge of the parent graph with at
least one endpoint in the current ball, together with the nodes those
edges reach. Repeating this grows the ball to the h-hop neighborhood of
the center. The depth-H kernel sums the star-pair kernel over the depth-h
families for h = 1..H, capped per pair by both graph orders, and reduces
to the plain star kernel at H = 1. Both engines grow all stars of a graph
at once as indicator matrices (see stars.py); the literal one-star-at-a-
time growth lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, is_integer
from .graph import AttributedGraph
from .stars import KernelContext


@dataclass(frozen=True)
class ExpansionPlan:
    """Depth budget for kernel evaluation."""

    max_depth: int = 4

    def __post_init__(self):
        if not is_integer(self.max_depth) or self.max_depth < 1:
            raise ConfigError(f"max_depth must be an integer >= 1, got {self.max_depth!r}")
        object.__setattr__(self, "max_depth", int(self.max_depth))


def nask_kernel(
    g: AttributedGraph,
    h: AttributedGraph,
    plan: ExpansionPlan,
    ctx: KernelContext,
) -> float:
    """Kernel value summed over expansion depths 1..min(H, |Vg|, |Vh|)."""
    return ctx.pair_value(g, h, plan.max_depth)[-1]
