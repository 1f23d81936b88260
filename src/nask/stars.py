"""The star kernel engines: per-graph indicator matrices and feature maps.

A depth-1 star is a node together with its neighbors and the center-leaf
edges; the depth-h star grows that ball to the h-hop neighborhood. The
kernel between two stars is the similarity of their centers times the sum
of all element-pair similarities, where node elements pair only with node
elements and edge elements only with edge elements. The graph-level kernel
sums this over all star pairs.

KernelContext holds everything shared across pair evaluations for one
schema: similarity parameters, the edge-element mode, the pruning
threshold, and per-graph packs whose levels() list the cached per-depth
balls and edge rows. Row v of a depth-h matrix is the depth-h star at v.
The context picks one of two engines from the schema, with no setting to
choose:

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
  The engine contracts a block of depths per product rather than one
  depth at a time: it slices the block's levels out of each graph's level
  stack as one k x n x w float64 array (a widened copy of bool levels, a
  view of the label counts), forms every depth's star-pair table with one
  batched matmul chain, sums each table with one reduction and takes the
  running totals left to right in Python over the sums' one list. A block is bounded by
  bytes, not by a depth count: BLOCK_BYTES over the most a depth's
  widened operands and products take, 8 (n_a + n_b) (n_a + n_b + w_a +
  w_b) bytes with w_a, w_b the widths of the edge rows (E_h or C_h, 0
  with edge elements off). Graphs of a few dozen nodes take every depth
  in one block, graphs of a few hundred nodes one depth a block, so large
  graphs make no larger temporaries than a depth loop would. Each depth's
  table is the same BLAS products and the same pairwise sum whatever the
  block, so the bound moves no bit.

Packs cache every 0/1 indicator (the balls B_h, and E_h on numerical-edge
schemas) as bool, one byte an entry, and widen it to float64 explicitly at
each product: a bool x float64 matmul does not take the float64 BLAS path,
and its sums would round differently. The label counts C_h stay float64.

Each pair is evaluated in a fixed order that does not depend on the worker
count. The feature and label counts are exact integers, but OpenBLAS may
sum the indicator engine's dense node products in an order that follows
its thread count, which shows on graphs of a few hundred nodes. The
literal star-by-star semantics, with set-grown neighborhoods and scalar
similarities, live in tests/oracles.py as the reference that both engines
are checked against.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from .errors import ConfigError, GramComputeError, SchemaError, is_integer, is_real
from .graph import CATEGORICAL, AttributedGraph, AttributeSchema
from .similarity import PackedAttrs, SimilarityParams, similarity_matrix

EDGE_MODES = ("auto", "on", "off")
# Widest feature vector the feature map takes, r_n * (r_n + r_e); schemas
# with more symbols stay on the indicator engine, whose memory does not
# grow with the symbol count.
MAX_FEATURES = 1024
# Most bytes the indicator engine's products over one block of depths may
# take: on graphs of a few dozen nodes every depth fits in one block, and
# graphs of a few hundred nodes take one depth a block.
BLOCK_BYTES = 256 * 1024


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
        out[np.arange(pack.count), offset + pack.match[k]] = 1.0  # categorical rows first
        offset += count
    return out


def _column_weights(counts: tuple[int, ...], floor: float) -> np.ndarray:
    """q of P = O diag(q) O^T: the mismatch floor, then (1 - floor) / d."""
    return np.array([floor] + [(1.0 - floor) / len(counts)] * sum(counts))


def _stack(levels: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Levels lo..hi-1 of a level stack as one C-contiguous k x n x w
    float64 array: bool levels (B_h, E_h) are widened into a copy, float64
    ones (C_h) are a view of the stack."""
    return levels[lo:hi].astype(np.float64, copy=False)


class _GraphPack:
    """Packed attributes, per-depth balls and edge rows for one graph.

    balls[h-1][v, u] is True iff u lies within h hops of v; depth 1 is
    I + A and each deeper ball is the previous one times it. Balls and E_h
    are stored as bool, 1 byte an entry where float64 takes 8, and widened
    to float64 explicitly at each product: the pinned Gram
    digests hold the float64 BLAS sums, which a bool operand would not
    take. E_h is kept C-ordered, since the widened copy keeps its layout
    and the layout sets the bits of the edge products. No incidence matrix
    is kept, only the edge endpoints (u, w) as a 2 x m index array: the
    depth-h star at v holds edge e iff an endpoint of e lies in the
    depth-(h-1) ball at v, so E_h = max(B_{h-1}[:, u], B_{h-1}[:, w]) with
    B_0 = I. With edge elements on, _eincs holds the per-depth edge rows
    the engine contracts: E_h, or C_h = E_h Oe (n x r_e exact integers)
    given edge category counts, Oe being the edges' one-hot rows; with
    them off it stays empty. Each kind is one level stack, a C-contiguous
    k x n x w array whose entry h-1 is depth h, so a block of depths is
    one slice of it; iterating a stack gives the per-depth n x w levels.
    levels(depth) grows both stacks on first use, to at most n levels,
    into a new array that the old levels are copied into once, and is
    where the engines read them.
    Given node category counts too (the feature map), the pack also keeps
    the nodes' one-hot rows and the feature vectors built so far, and only
    the depth-1 ball once those are built.
    """

    __slots__ = (
        "graph", "n", "nodes", "edge_pack", "_ends", "_balls", "_eincs",
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
        ball = np.eye(self.n, dtype=bool)
        ball[u, w] = ball[w, u] = True
        self._balls = ball[None]
        self._node_hot = None if node_counts is None else _one_hot(self.nodes, node_counts)
        self._edge_hot = None if edge_counts is None else _one_hot(self.edge_pack, edge_counts)
        self._eincs = self._no_edge_rows()  # built with the levels, not here
        self._features = None

    def _no_edge_rows(self) -> np.ndarray:
        """An empty edge-row stack: 0 x n x r_e float64 for the label
        counts C_h, 0 x n x m bool for E_h, 0 x n x 0 with edges off."""
        if self._edge_hot is not None:
            return np.empty((0, self.n, self._edge_hot.shape[1]))
        width = 0 if self.edge_pack is None else self._ends.shape[1]
        return np.empty((0, self.n, width), dtype=bool)

    def _incidence(self, ball: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """max(ball[:, u], ball[:, w]), the edges meeting each row of a bool
        ball, written C-ordered: a column gather is F-ordered."""
        u, w = self._ends
        if out is None:
            out = np.empty((self.n, u.size), dtype=bool)
        return np.maximum(ball[:, u], ball[:, w], out=out)

    def levels(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """The ball stack and, with edge elements on, the edge-row stack of
        depths 1..min(depth, n), grown on first use; a graph's diameter is
        below n, so the levels past it repeat the last one bit for bit."""
        count = min(depth, self.n)
        if len(self._balls) < count:
            balls = np.empty((count, self.n, self.n), dtype=bool)
            balls[:len(self._balls)] = self._balls
            one = balls[0].astype(np.float64)
            for h in range(len(self._balls), count):
                np.greater(balls[h - 1].astype(np.float64) @ one, 0, out=balls[h])
            self._balls = balls
        have = len(self._eincs)
        if self.edge_pack is not None and have < count:
            rows = np.empty((count,) + self._eincs.shape[1:], dtype=self._eincs.dtype)
            rows[:have] = self._eincs
            for h in range(have, count):  # E_{h+1} is read off B_h, and B_0 = I
                ball = self._balls[h - 1] if h else np.eye(self.n, dtype=bool)
                if self._edge_hot is None:
                    self._incidence(ball, out=rows[h])
                else:
                    rows[h] = self._incidence(ball).astype(np.float64) @ self._edge_hot
            self._eincs = rows
        return self._balls[:count], self._eincs[:count]

    def family(self, depth: int):
        """Indicator matrices (B_h, E_h) for the given depth."""
        if depth < 1:
            raise ConfigError(f"family depth must be >= 1, got {depth}")
        balls = [np.eye(self.n, dtype=bool), *self.levels(depth)[0]]  # B_0 = I, then B_1..
        edges = self._incidence(balls[max(len(balls) - 2, 0)])
        return balls[-1].astype(np.float64), edges.astype(np.float64)

    def features(self, depth: int) -> np.ndarray:
        """Feature count vectors of depths 1..depth, one row each.

        Row h-1 is (O^T B_h O, O^T C_h) flattened, where O is the node
        one-hot rows and C_h the edge-label counts; products of 0/1 and
        integer matrices, so every entry is an exact integer whatever the
        BLAS. Rows past |V| are zero. All levels but the depth-1 ball are
        dropped afterwards, into fresh arrays that hold no view of the old
        stacks: the counts hold all this engine needs of them.
        """
        if self._features is None or len(self._features) < depth:
            nodes, edges = self._node_hot, self._edge_hot
            width = nodes.shape[1] * (nodes.shape[1] + (0 if edges is None else edges.shape[1]))
            self._features = np.zeros((depth, width))
            balls, rows = self.levels(depth)
            for h, ball in enumerate(balls):
                parts = [(nodes.T @ ball.astype(np.float64) @ nodes).ravel()]
                if edges is not None:
                    parts.append((nodes.T @ rows[h]).ravel())
                self._features[h] = np.concatenate(parts)
            self._balls, self._eincs = self._balls[:1].copy(), self._no_edge_rows()
        return self._features[:depth]

    def warm(self, depth: int) -> None:
        """Build what the pack's engine reads up to `depth`: the feature
        vectors on the feature map, else every level."""
        if self._node_hot is not None:
            self.features(depth)
        else:
            self.levels(depth)


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
        if not is_integer(max_depth) or max_depth < 1:
            raise ConfigError(f"max_depth must be an integer >= 1, got {max_depth!r}")
        pa, pb = self.register(ga), self.register(gb)
        if self.feature_weights is not None:
            totals = self.feature_totals(pa.features(max_depth), pb.features(max_depth)[:, None])
            return totals[:, 0].tolist()
        p_nodes = similarity_matrix(pa.nodes, pb.nodes, self.params)
        p_edges = None
        if self.use_edges and self.edge_weights is None:
            p_edges = similarity_matrix(pa.edge_pack, pb.edge_pack, self.params)
        # every similarity is >= 0, so tau == 0 prunes nothing
        weights = p_nodes if self.tau == 0.0 else np.where(p_nodes >= self.tau, p_nodes, 0.0)
        (balls_a, rows_a), (balls_b, rows_b) = pa.levels(max_depth), pb.levels(max_depth)
        count = min(len(balls_a), len(balls_b))  # min(H, |Va|, |Vb|)
        # a depth's operands and products, node and edge, take at most
        # 8 (n_a + n_b) (n_a + n_b + w_a + w_b) bytes, w being the edge rows' widths
        size = pa.n + pb.n + rows_a.shape[2] + rows_b.shape[2]
        step = max(1, BLOCK_BYTES // max(1, 8 * (pa.n + pb.n) * size))
        sums = []
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            # unnamed operands are freed as soon as a product has read them
            m = _stack(balls_a, lo, hi) @ p_nodes @ _stack(balls_b, lo, hi).transpose(0, 2, 1)
            if self.edge_weights is not None:
                # P_e = Oe_a diag(qe) Oe_b^T, so E_a P_e E_b^T = C_a diag(qe) C_b^T
                m += ((_stack(rows_a, lo, hi) * self.edge_weights)
                      @ _stack(rows_b, lo, hi).transpose(0, 2, 1))
            elif p_edges is not None:
                m += (_stack(rows_a, lo, hi) @ p_edges
                      @ _stack(rows_b, lo, hi).transpose(0, 2, 1))
            m *= weights
            sums += np.add.reduce(m.reshape(hi - lo, -1), axis=1).tolist()
        totals = list(itertools.accumulate(sums))  # left to right, as a running total
        return totals + (totals[-1:] or [0.0]) * (max_depth - count)

    def gram_rows(self, graphs: list, lo: int, hi: int, depth: int) -> Iterator[np.ndarray]:
        """Yield rows lo..hi-1 of the upper triangle of the Gram over `graphs`.

        Row i is a (depth, n - i) array of running totals over depths:
        column k holds pair_value(graphs[i], graphs[i + k], depth). The
        feature map forms a row with one feature_totals call, over feature
        vectors stacked once per call. The indicator engine calls pair_value
        once per entry and names the pair of any failure.
        """
        if self.feature_weights is not None:
            stacked = np.stack([self.register(g).features(depth) for g in graphs], axis=1)
            yield from (self.feature_totals(stacked[:, i], stacked[:, i:]) for i in range(lo, hi))
            return
        for i in range(lo, hi):
            values = []
            for j in range(i, len(graphs)):
                try:
                    values.append(self.pair_value(graphs[i], graphs[j], depth))
                except (MemoryError, FloatingPointError) as exc:
                    numeric = isinstance(exc, FloatingPointError)
                    cause = "numeric failure" if numeric else "resource exhaustion"
                    raise GramComputeError(f"{cause} while computing pair ({i}, {j})") from exc
            row = np.array(values).T
            # a running total that turns non-finite stays so at every deeper depth
            bad = np.flatnonzero(~np.isfinite(row[-1]))
            if bad.size:
                raise GramComputeError(f"non-finite kernel value at pair ({i}, {i + bad[0]})")
            yield row


def graph_kernel_KS(g: AttributedGraph, h: AttributedGraph, ctx: KernelContext) -> float:
    """Sum of star-pair kernel values over all |Vg| x |Vh| depth-1 pairs."""
    return ctx.pair_value(g, h, max_depth=1)[0]
