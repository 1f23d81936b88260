"""The star kernel engines: per-graph indicator matrices and feature maps.

A depth-1 star is a node together with its neighbors and the center-leaf
edges; the depth-h star grows that ball to the h-hop neighborhood. The
kernel between two stars is the similarity of their centers times the sum
of all element-pair similarities, where node elements pair only with node
elements and edge elements only with edge elements. The graph-level kernel
sums this over all star pairs.

KernelContext holds everything shared across pair evaluations for one
schema: similarity parameters, the edge-element mode, the pruning
threshold, and per-graph packs with cached per-depth balls and edge rows.
Row v of a depth-h matrix is the depth-h star at v. The context picks
one of two engines from the schema, with no setting to choose:

- The feature map, when tau == 0, every node dimension (and every edge
  dimension, when edge elements are on) is categorical with a categories
  table, and the feature width r_n * (r_n + r_e) is at most
  MAX_FEATURES. Here r = 1 + the summed category counts. Similarity then
  factors exactly: with O the one-hot rows of a graph's elements behind a
  constant column, P = O diag(q) O'^T with q = (e^-gamma, (1 - e^-gamma)/d,
  ...). So each depth-h term of the kernel is a weighted inner product
  sum_k w_k phi_k phi'_k of per-graph count vectors phi = (O^T B_h O,
  O^T E_h Oe): integer counts read off the depth-h ball B_h and star
  edges E_h, and zero for h > |V|, which makes the per-pair cap
  min(H, |V|, |V'|) exact. The weights w = q (x) (q, qe) carry gamma.
- The indicator engine otherwise (tau > 0, numerical dimensions, or a
  wider schema): one pair of matrix products over the two graphs' ball
  indicators and their node similarity matrix sums every star pair at
  once. Edge elements add a second term. When every edge dimension is
  categorical with a categories table, that term is C_a diag(qe) C_b^T
  over the per-star edge-label counts C_h = E_h Oe (n x r_e exact
  integers), by the same factorization, so no edge similarity matrix is
  formed. Otherwise (a numerical edge dimension) it is E_a P_e E_b^T over
  the edge indicators and the edge similarity matrix.

Each pair is evaluated in a fixed order that does not depend on the worker
count. The feature and label counts are exact integers, but OpenBLAS may
sum the indicator engine's dense node products in an order that follows
its thread count, which shows on graphs of a few hundred nodes. The
literal star-by-star semantics, with set-grown neighborhoods and scalar
similarities, live in tests/oracles.py as the reference that both engines
are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, SchemaError, is_real
from .graph import CATEGORICAL, AttributedGraph, AttributeSchema
from .similarity import PackedAttrs, SimilarityParams, similarity_matrix

EDGE_MODES = ("auto", "on", "off")
# Widest feature vector the feature map takes, r_n * (r_n + r_e); schemas
# with more symbols stay on the indicator engine, whose memory does not
# grow with the symbol count.
MAX_FEATURES = 1024


def check_tau(tau) -> float:
    """The center-similarity pruning threshold, a real number in [0, 1)."""
    if not is_real(tau) or not 0.0 <= tau < 1.0:
        raise ConfigError(f"tau must lie in [0, 1), got {tau}")
    return float(tau)


def _category_counts(dims) -> tuple[int, ...] | None:
    """Symbol counts of an all-categorical dimension list, else None."""
    if not dims or any(d.kind != CATEGORICAL or not d.categories for d in dims):
        return None
    return tuple(len(d.categories) for d in dims)


def _one_hot(pack: PackedAttrs, counts: tuple[int, ...]) -> np.ndarray:
    """0/1 rows: a constant column, then each dimension's symbol columns."""
    out = np.zeros((pack.count, 1 + sum(counts)))
    out[:, 0] = 1.0
    offset = 1
    for k, count in enumerate(counts):
        out[np.arange(pack.count), offset + pack.cat[:, k]] = 1.0
        offset += count
    return out


def _column_weights(counts: tuple[int, ...], floor: float) -> np.ndarray:
    """q of P = O diag(q) O^T: the mismatch floor, then (1 - floor) / d."""
    return np.array([floor] + [(1.0 - floor) / len(counts)] * sum(counts))


class _GraphPack:
    """Packed attributes, per-depth balls and edge rows for one graph.

    balls[h-1][v, u] == 1 iff u lies within h hops of v; depth 1 is I + A
    and each deeper ball is the previous one times it. No incidence matrix
    is kept, only the edge endpoints (u, w) as a 2 x m index array: the
    depth-h star at v holds edge e iff an endpoint of e lies in the
    depth-(h-1) ball at v, so E_h = max(B_{h-1}[:, u], B_{h-1}[:, w]) with
    B_0 = I. With edge elements on, _eincs holds the per-depth edge rows
    the engine contracts: E_h, or C_h = E_h Oe (n x r_e exact integers)
    given edge category counts, Oe being the edges' one-hot rows; with
    them off it stays empty. Levels grow lazily and stop once saturated.
    Given node category counts too (the feature map), the pack also keeps
    the nodes' one-hot rows and the feature vectors built so far, and only
    the depth-1 levels once those are built.
    """

    __slots__ = (
        "graph", "n", "nodes", "edge_pack", "_ends", "_balls", "_eincs", "_saturated",
        "_node_hot", "_edge_hot", "_features",
    )

    def __init__(self, g: AttributedGraph, schema: AttributeSchema, use_edges: bool,
                 node_counts: tuple | None = None, edge_counts: tuple | None = None):
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
        self._ends = np.array(g.edges, dtype=np.intp).reshape(m, 2).T
        u, w = self._ends
        ball = np.eye(self.n)
        ball[u, w] = ball[w, u] = 1.0
        self._balls = [ball]
        self._eincs = []  # built with the levels, not here
        self._saturated = False
        self._node_hot = None if node_counts is None else _one_hot(self.nodes, node_counts)
        self._edge_hot = None if edge_counts is None else _one_hot(self.edge_pack, edge_counts)
        self._features = None

    def _incidence(self, ball: np.ndarray) -> np.ndarray:
        """max(ball[:, u], ball[:, w]), the edges meeting each row of ball,
        written C-ordered: a column gather is F-ordered, and the layout
        sets the bits of the edge products."""
        u, w = self._ends
        return np.maximum(ball[:, u], ball[:, w], out=np.empty((self.n, u.size)))

    def _edge_rows_after(self, ball: np.ndarray) -> np.ndarray:
        """The next level's edge rows: E, or E Oe given edge category counts."""
        rows = self._incidence(ball)
        return rows if self._edge_hot is None else rows @ self._edge_hot

    def _level(self, depth: int) -> int:
        """Grow the levels up to depth, or to saturation; depth's index."""
        if depth < 1:
            raise ConfigError(f"family depth must be >= 1, got {depth}")
        edged = self.edge_pack is not None
        if edged and not self._eincs:
            self._eincs.append(self._edge_rows_after(np.eye(self.n)))
        while len(self._balls) < depth and not self._saturated:
            last = self._balls[-1]
            ball = ((last @ self._balls[0]) > 0).astype(np.float64)
            # edge sets only grow with depth and Oe's first column counts every
            # edge, so equal rows mean equal sets, and so an equal ball, as
            # B_{h+1} = B_h | ends(E_{h+1}); a pack without edge rows compares balls
            rows = self._edge_rows_after(last) if edged else ball
            if np.array_equal(rows, (self._eincs if edged else self._balls)[-1]):
                self._saturated = True
                break
            self._balls.append(ball)
            if edged:
                self._eincs.append(rows)
        return min(depth, len(self._balls)) - 1

    def ball(self, depth: int) -> np.ndarray:
        """The depth-h ball indicator."""
        return self._balls[self._level(depth)]

    def edge_rows(self, depth: int) -> np.ndarray:
        """The depth-h edge rows, E_h or C_h; only with edge elements on."""
        return self._eincs[self._level(depth)]

    def family(self, depth: int):
        """Indicator matrices (B_h, E_h) for the given depth."""
        ball = self.ball(depth)
        return ball, self._incidence(np.eye(self.n) if depth == 1 else self.ball(depth - 1))

    def features(self, depth: int) -> np.ndarray:
        """Feature count vectors of depths 1..depth, one row each.

        Row h-1 is (O^T B_h O, O^T C_h) flattened, where O is the node
        one-hot rows and C_h the edge-label counts; products of 0/1 and
        integer matrices, so every entry is an exact integer whatever the
        BLAS. Rows past |V| are zero. The deeper levels are dropped
        afterwards: the counts hold all this engine needs of them.
        """
        if self._features is None or len(self._features) < depth:
            nodes, edges = self._node_hot, self._edge_hot
            width = nodes.shape[1] * (nodes.shape[1] + (0 if edges is None else edges.shape[1]))
            self._features = np.zeros((depth, width))
            for h in range(1, min(depth, self.n) + 1):
                parts = [(nodes.T @ self.ball(h) @ nodes).ravel()]
                if edges is not None:
                    parts.append((nodes.T @ self.edge_rows(h)).ravel())
                self._features[h - 1] = np.concatenate(parts)
            del self._balls[1:], self._eincs[1:]
            self._saturated = False
        return self._features[:depth]


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
        self.schema = schema
        self.params = params if params is not None else SimilarityParams()
        self.tau = check_tau(tau)
        self.use_edges = edge_elements == "on" or (
            edge_elements == "auto" and schema.has_edge_attrs
        )
        self._packs: dict[int, _GraphPack] = {}
        # the (node, edge) category counts the packs one-hot encode: both on
        # the feature map, the edge ones alone when the indicator engine
        # takes edge-label counts
        self._counts = (None, None)
        self.feature_weights = None  # set when the feature map applies
        self.edge_weights = None  # qe, set when edge labels enter as counts
        floor = math.exp(-self.params.gamma)
        node_counts = _category_counts(schema.node_dims)
        edge_counts = _category_counts(schema.edge_dims) if self.use_edges else ()
        q_edges = _column_weights(edge_counts, floor) if edge_counts else np.empty(0)
        if self.tau == 0.0 and node_counts is not None and edge_counts is not None:
            q_nodes = _column_weights(node_counts, floor)
            if q_nodes.size * (q_nodes.size + q_edges.size) <= MAX_FEATURES:
                self._counts = (node_counts, edge_counts or None)
                self.feature_weights = np.concatenate(
                    [np.outer(q_nodes, q_nodes).ravel(), np.outer(q_nodes, q_edges).ravel()]
                )
        if self.feature_weights is None and edge_counts:
            self._counts = (None, edge_counts)
            self.edge_weights = q_edges

    def register(self, g: AttributedGraph) -> _GraphPack:
        """Pack a graph for kernel evaluation; idempotent per graph_id."""
        pack = self._packs.get(g.graph_id)
        if pack is not None:
            if pack.graph is not g and pack.graph != g:
                raise ConfigError(
                    f"a different graph with id {g.graph_id} is already registered"
                )
            return pack
        pack = _GraphPack(g, self.schema, self.use_edges, *self._counts)
        self._packs[g.graph_id] = pack
        return pack

    def feature_totals(self, row: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Running totals over depths of the weighted inner products of one
        graph's feature vectors with each column graph's, on the feature
        map: (H, f) x (H, b, f) -> (H, b). Elementwise products and one sum
        over the contiguous last axis, no BLAS: numpy sums each output's f
        terms in the same pairwise order whatever b is, so a Gram entry has
        the bits of its single-pair value."""
        out = np.empty(cols.shape[:2])
        total = np.zeros(cols.shape[1])
        for h in range(cols.shape[0]):
            prod = row[h] * cols[h]
            prod *= self.feature_weights
            total = total + prod.sum(axis=1)
            out[h] = total
        return out

    def pair_value(self, ga: AttributedGraph, gb: AttributedGraph, max_depth: int) -> list[float]:
        """Running totals of star-pair kernel values after each depth 1..H.

        Entry h-1 sums depths 1..min(h, |Va|, |Vb|), so past the per-pair
        cap the total repeats, and the last entry is the depth-H kernel.
        """
        if max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
        pa, pb = self.register(ga), self.register(gb)
        if self.feature_weights is not None:
            totals = self.feature_totals(pa.features(max_depth), pb.features(max_depth)[:, None])
            return totals[:, 0].tolist()
        p_nodes = similarity_matrix(pa.nodes, pb.nodes, self.params)
        p_edges = None
        if self.use_edges and self.edge_weights is None:
            p_edges = similarity_matrix(pa.edge_pack, pb.edge_pack, self.params)
        weights = np.where(p_nodes >= self.tau, p_nodes, 0.0)
        cap = min(max_depth, pa.n, pb.n)
        totals = []
        total = 0.0
        for h in range(1, cap + 1):
            m = pa.ball(h) @ p_nodes @ pb.ball(h).T
            if self.edge_weights is not None:
                # P_e = Oe_a diag(qe) Oe_b^T, so E_a P_e E_b^T = C_a diag(qe) C_b^T
                m = m + (pa.edge_rows(h) * self.edge_weights) @ pb.edge_rows(h).T
            elif p_edges is not None:
                m = m + pa.edge_rows(h) @ p_edges @ pb.edge_rows(h).T
            total += float((weights * m).sum())
            totals.append(total)
        return totals + [total] * (max_depth - cap)


def graph_kernel_KS(g: AttributedGraph, h: AttributedGraph, ctx: KernelContext) -> float:
    """Sum of star-pair kernel values over all |Vg| x |Vh| depth-1 pairs."""
    return ctx.pair_value(g, h, max_depth=1)[0]
