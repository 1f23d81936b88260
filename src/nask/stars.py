"""The star kernel engine: per-graph indicator matrices and pair contraction.

A depth-1 star is a node together with its neighbors and the center-leaf
edges; the depth-h star grows that ball to the h-hop neighborhood. The
kernel between two stars is the similarity of their centers times the sum
of all element-pair similarities, where node elements pair only with node
elements and edge elements only with edge elements. The graph-level kernel
sums this over all star pairs.

KernelContext holds everything shared across pair evaluations for one
schema: similarity parameters, the edge-element mode, the pruning
threshold, and per-graph packed arrays with cached per-depth ball and
edge-incidence indicators. Row v of a depth-h indicator is the depth-h
star at v, so one pair of matrix products sums every star pair at once,
in a fixed evaluation order that keeps results identical across worker
counts. The literal star-by-star semantics, with set-grown neighborhoods
and scalar similarities, live in tests/oracles.py as the reference that
this engine is checked against.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SchemaError
from .graph import AttributedGraph, AttributeSchema
from .similarity import PackedAttrs, SimilarityParams, similarity_matrix

EDGE_MODES = ("auto", "on", "off")


class _GraphPack:
    """Packed attributes and per-depth family indicators for one graph.

    The pack keeps no adjacency or incidence matrix, only indicators:
    balls[h-1][v, u] == 1 iff u lies within h hops of v; edge_inc[h-1][v, e]
    == 1 iff edge e belongs to the depth-h star at v. Depth 1 is the plain
    star (I + A and the incidence matrix); each deeper level multiplies the
    previous ball by the depth-1 indicators, adding the edges incident to it
    and the nodes they reach. Levels grow lazily and stop once saturated.
    """

    __slots__ = ("graph", "n", "nodes", "edge_pack", "_balls", "_eincs", "_saturated")

    def __init__(self, g: AttributedGraph, schema: AttributeSchema, use_edges: bool):
        self.graph = g
        self.n = g.num_nodes
        self.nodes = PackedAttrs(schema.node_dims, g.node_attrs, f"graph {g.graph_id} node")
        m = g.num_edges
        self.edge_pack = None
        if use_edges:
            if g.edge_attrs is None and m > 0:
                raise SchemaError(
                    f"graph {g.graph_id} lacks edge attributes required by edge elements"
                )
            vectors = [vec for _, vec in (g.edge_attrs or ())]
            self.edge_pack = PackedAttrs(schema.edge_dims, vectors, f"graph {g.graph_id} edge")
        ends = np.array(g.edges, dtype=np.intp).reshape(m, 2)
        ball = np.eye(self.n)
        ball[ends, ends[:, ::-1]] = 1.0
        einc = np.zeros((self.n, m))
        einc[ends.T, np.arange(m)] = 1.0
        self._balls = [ball]
        self._eincs = [einc]
        self._saturated = False

    def family(self, depth: int):
        """Indicator matrices (ball, edge membership) for the given depth."""
        if depth < 1:
            raise ConfigError(f"family depth must be >= 1, got {depth}")
        while len(self._balls) < depth and not self._saturated:
            last = self._balls[-1]
            nxt = ((last @ self._balls[0]) > 0).astype(np.float64)
            enxt = ((last @ self._eincs[0]) > 0).astype(np.float64)
            if np.array_equal(nxt, last) and np.array_equal(enxt, self._eincs[-1]):
                self._saturated = True
                break
            self._balls.append(nxt)
            self._eincs.append(enxt)
        idx = min(depth, len(self._balls)) - 1
        return self._balls[idx], self._eincs[idx]


class KernelContext:
    """Shared state for kernel evaluations between graphs of one schema."""

    def __init__(
        self,
        schema: AttributeSchema,
        params: SimilarityParams | None = None,
        tau: float = 0.0,
        edge_elements: str = "auto",
    ):
        if edge_elements not in EDGE_MODES:
            raise ConfigError(f"edge_elements must be one of {EDGE_MODES}, got {edge_elements!r}")
        if edge_elements == "on" and not schema.has_edge_attrs:
            raise SchemaError("edge elements requested but the schema has no edge dimensions")
        if not 0.0 <= tau < 1.0:
            raise ConfigError(f"tau must lie in [0, 1), got {tau}")
        self.schema = schema
        self.params = params if params is not None else SimilarityParams()
        self.tau = float(tau)
        self.edge_elements = edge_elements
        self.use_edges = edge_elements == "on" or (
            edge_elements == "auto" and schema.has_edge_attrs
        )
        self._packs: dict[int, _GraphPack] = {}

    def register(self, g: AttributedGraph) -> _GraphPack:
        """Pack a graph for kernel evaluation; idempotent per graph_id."""
        pack = self._packs.get(g.graph_id)
        if pack is not None:
            if pack.graph is not g and pack.graph != g:
                raise ConfigError(
                    f"a different graph with id {g.graph_id} is already registered"
                )
            return pack
        pack = _GraphPack(g, self.schema, self.use_edges)
        self._packs[g.graph_id] = pack
        return pack

    def pair_value(self, ga: AttributedGraph, gb: AttributedGraph, max_depth: int) -> list[float]:
        """Running totals of star-pair kernel values after each depth 1..H.

        Entry h-1 sums depths 1..min(h, |Va|, |Vb|), so past the per-pair
        cap the total repeats, and the last entry is the depth-H kernel.
        """
        if max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
        pa, pb = self.register(ga), self.register(gb)
        p_nodes = similarity_matrix(pa.nodes, pb.nodes, self.params)
        p_edges = None
        if self.use_edges:
            p_edges = similarity_matrix(pa.edge_pack, pb.edge_pack, self.params)
        weights = np.where(p_nodes >= self.tau, p_nodes, 0.0)
        cap = min(max_depth, pa.n, pb.n)
        totals = []
        total = 0.0
        for h in range(1, cap + 1):
            ball_a, einc_a = pa.family(h)
            ball_b, einc_b = pb.family(h)
            m = ball_a @ p_nodes @ ball_b.T
            if p_edges is not None:
                m = m + einc_a @ p_edges @ einc_b.T
            total += float((weights * m).sum())
            totals.append(total)
        return totals + [total] * (max_depth - cap)


def graph_kernel_KS(g: AttributedGraph, h: AttributedGraph, ctx: KernelContext) -> float:
    """Sum of star-pair kernel values over all |Vg| x |Vh| depth-1 pairs."""
    return ctx.pair_value(g, h, max_depth=1)[0]
