"""The star kernel engines: per-graph indicator matrices and feature maps.

A depth-1 star is a node together with its neighbors and the center-leaf
edges; the depth-h star grows that ball to the h-hop neighborhood. The
kernel between two stars is the similarity of their centers times the sum
of all element-pair similarities, where node elements pair only with node
elements and edge elements only with edge elements. The graph-level kernel
sums this over all star pairs.

KernelContext holds everything shared across pair evaluations for one
schema: similarity parameters, the edge-element mode, the pruning
threshold, and per-graph packs with cached per-depth ball and
edge-incidence indicators. Row v of a depth-h indicator is the depth-h
star at v. The context picks one of two engines from the schema, with no
setting to choose:

- The feature map, when tau == 0, every node dimension (and every edge
  dimension, when edge elements are on) is categorical with a categories
  table, and the feature width r_n * (r_n + r_e) is at most
  MAX_FEATURES. Here r = 1 + the summed category counts. Similarity then
  factors exactly: with O the one-hot rows of a graph's elements behind a
  constant column, P = O diag(q) O'^T with q = (e^-gamma, (1 - e^-gamma)/d,
  ...). So each depth-h term of the kernel is a weighted inner product
  sum_k w_k phi_k phi'_k of per-graph count vectors phi = (O^T B_h O,
  O^T E_h Oe): integer counts read off the depth-h ball B_h and edge
  incidence E_h, and zero for h > |V|, which makes the per-pair cap
  min(H, |V|, |V'|) exact. The weights w = q (x) (q, qe) carry gamma.
- The indicator engine otherwise (tau > 0, numerical dimensions, or a
  wider schema): one pair of matrix products over the two graphs'
  indicators and their similarity matrices sums every star pair at once.

Both evaluate each pair in a fixed order that does not depend on worker or
BLAS thread counts (the feature counts are exact integers). The literal
star-by-star semantics, with set-grown neighborhoods and scalar
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
    """Packed attributes and per-depth family indicators for one graph.

    The pack keeps no adjacency or incidence matrix, only indicators:
    balls[h-1][v, u] == 1 iff u lies within h hops of v; edge_inc[h-1][v, e]
    == 1 iff edge e belongs to the depth-h star at v. Depth 1 is the plain
    star (I + A and the incidence matrix); each deeper level multiplies the
    previous ball by the depth-1 indicators, adding the edges incident to it
    and the nodes they reach. Levels grow lazily and stop once saturated.
    Given the category counts of the feature map, it also keeps the
    elements' one-hot rows and the feature vectors built so far, and only
    the depth-1 indicators once those are built.
    """

    __slots__ = (
        "graph", "n", "nodes", "edge_pack", "_balls", "_eincs", "_saturated",
        "_onehots", "_features",
    )

    def __init__(self, g: AttributedGraph, schema: AttributeSchema, use_edges: bool,
                 counts: tuple | None = None):
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
        self._onehots = None
        self._features = None
        if counts is not None:
            node_counts, edge_counts = counts
            edge_hot = _one_hot(self.edge_pack, edge_counts) if use_edges else None
            self._onehots = (_one_hot(self.nodes, node_counts), edge_hot)

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

    def features(self, depth: int) -> np.ndarray:
        """Feature count vectors of depths 1..depth, one row each.

        Row h-1 is (O^T B_h O, O^T E_h Oe) flattened, where O and Oe are the
        node and edge one-hot rows; products of 0/1 matrices, so every entry
        is an exact integer whatever the BLAS. Rows past |V| are zero. The
        deeper indicator levels are dropped afterwards: the counts hold all
        this engine needs of them.
        """
        if self._features is None or len(self._features) < depth:
            nodes, edges = self._onehots
            width = nodes.shape[1] * (nodes.shape[1] + (0 if edges is None else edges.shape[1]))
            self._features = np.zeros((depth, width))
            for h in range(1, min(depth, self.n) + 1):
                ball, einc = self.family(h)
                parts = [(nodes.T @ ball @ nodes).ravel()]
                if edges is not None:
                    parts.append((nodes.T @ einc @ edges).ravel())
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
        self.edge_elements = edge_elements
        self.use_edges = edge_elements == "on" or (
            edge_elements == "auto" and schema.has_edge_attrs
        )
        self._packs: dict[int, _GraphPack] = {}
        # (node, edge) category counts and the feature weights when the
        # feature map applies; None selects the indicator engine
        self._counts = None
        self.feature_weights = None
        node_counts = _category_counts(schema.node_dims)
        edge_counts = _category_counts(schema.edge_dims) if self.use_edges else ()
        if self.tau == 0.0 and node_counts is not None and edge_counts is not None:
            floor = math.exp(-self.params.gamma)
            q_nodes = _column_weights(node_counts, floor)
            q_edges = _column_weights(edge_counts, floor) if self.use_edges else np.empty(0)
            if q_nodes.size * (q_nodes.size + q_edges.size) <= MAX_FEATURES:
                self._counts = (node_counts, edge_counts)
                self.feature_weights = np.concatenate(
                    [np.outer(q_nodes, q_nodes).ravel(), np.outer(q_nodes, q_edges).ravel()]
                )

    def register(self, g: AttributedGraph) -> _GraphPack:
        """Pack a graph for kernel evaluation; idempotent per graph_id."""
        pack = self._packs.get(g.graph_id)
        if pack is not None:
            if pack.graph is not g and pack.graph != g:
                raise ConfigError(
                    f"a different graph with id {g.graph_id} is already registered"
                )
            return pack
        pack = _GraphPack(g, self.schema, self.use_edges, self._counts)
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
