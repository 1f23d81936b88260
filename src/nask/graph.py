"""Immutable attributed-graph model with canonical ordering guarantees.

Graphs are undirected, loop-free, and carry one attribute vector per node
and optionally one per canonical edge. All containers are tuples so that
graphs are hashable, comparable by value, and safe to share across worker
processes without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import SchemaError

NUMERICAL = "numerical"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class DimensionSpec:
    """One attribute dimension: its kind plus dataset-wide statistics.

    Numerical dimensions carry the observed [range_min, range_max] used to
    scale distances; categorical dimensions carry the interning table that
    maps dense symbol ids back to the original values.
    """

    name: str
    kind: str
    range_min: float | None = None
    range_max: float | None = None
    categories: tuple = ()

    def __post_init__(self):
        if self.kind not in (NUMERICAL, CATEGORICAL):
            raise SchemaError(f"unknown dimension kind {self.kind!r}")
        if self.kind == CATEGORICAL and (
            self.range_min is not None or self.range_max is not None
        ):
            raise SchemaError(f"categorical dimension {self.name!r} cannot carry a range")
        if self.kind == NUMERICAL and self.categories:
            raise SchemaError(f"numerical dimension {self.name!r} cannot carry categories")
        if self.range_min is not None and self.range_max is not None:
            if not (math.isfinite(self.range_min) and math.isfinite(self.range_max)):
                raise SchemaError(f"non-finite range on dimension {self.name!r}")
            if self.range_max < self.range_min:
                raise SchemaError(f"range_max < range_min on dimension {self.name!r}")

    @property
    def range(self) -> float | None:
        """Width of the observed value range, or None if not yet computed."""
        if self.range_min is None or self.range_max is None:
            return None
        return self.range_max - self.range_min


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered node and edge dimension descriptors shared by a dataset."""

    node_dims: tuple[DimensionSpec, ...]
    edge_dims: tuple[DimensionSpec, ...] = ()

    @property
    def has_edge_attrs(self) -> bool:
        return len(self.edge_dims) > 0


@dataclass(frozen=True, slots=True)
class AttributeVector:
    """Attribute values for one node or edge, ordered like the schema dims.

    Numerical entries are finite reals; categorical entries are dense
    integer symbol ids assigned at ingestion.
    """

    values: tuple

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def validate_vector(vec: AttributeVector, dims: tuple[DimensionSpec, ...], where: str = "") -> None:
    """Check one attribute vector against a dimension list; raise SchemaError."""
    tag = f" ({where})" if where else ""
    if len(vec.values) != len(dims):
        raise SchemaError(
            f"attribute vector has {len(vec.values)} values, schema declares {len(dims)}{tag}"
        )
    for value, dim in zip(vec.values, dims):
        if dim.kind == CATEGORICAL:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"categorical dimension {dim.name!r} needs a symbol id{tag}")
            if dim.categories and not 0 <= value < len(dim.categories):
                raise SchemaError(f"symbol id {value} out of range for {dim.name!r}{tag}")
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"numerical dimension {dim.name!r} needs a real value{tag}")
            if not math.isfinite(value):
                raise SchemaError(f"non-finite value in dimension {dim.name!r}{tag}")


def vector_columns(vectors, dims: tuple[DimensionSpec, ...], where: str, keys=None) -> list[tuple]:
    """The values of a sequence of attribute vectors as one tuple per
    dimension, each whole column checked against its dimension at once.

    A categorical column passes when every value's type is exactly `int`
    (so bools fail) and, given a categories table, its symbol ids lie in
    it; a numerical column when every type is `int` or `float` and every
    value is finite. Only when a length or a column fails does
    validate_vector run on the vectors in turn, raising for the first bad
    one named `{where} {key}`, keys defaulting to the indices; what it
    accepts then (a float subclass, say) is accepted.
    """
    rows = [vec.values for vec in vectors]
    columns = list(zip(*rows)) if rows else [()] * len(dims)
    if not (set(map(len, rows)) <= {len(dims)} and all(map(_column_ok, columns, dims))):
        for key, vec in zip(range(len(rows)) if keys is None else keys, vectors):
            validate_vector(vec, dims, f"{where} {key}")
    return columns


def _column_ok(column: tuple, dim: DimensionSpec) -> bool:
    types = set(map(type, column))
    if dim.kind == CATEGORICAL:
        if not types <= {int}:
            return False
        return not (column and dim.categories) or (
            min(column) >= 0 and max(column) < len(dim.categories)
        )
    try:
        return types <= {int, float} and all(map(math.isfinite, column))
    except OverflowError:  # an int beyond float; validate_vector raises it in order
        return False


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Order an undirected edge as (min, max); self-loops are rejected."""
    if u == v:
        raise SchemaError(f"self-loop on node {u} has no canonical edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class AttributedGraph:
    """Undirected graph with per-node and optional per-edge attributes.

    adjacency[v] is the sorted, duplicate-free tuple of neighbors of v.
    edge_attrs, when present, is sorted by canonical edge key and covers
    exactly the edge set implied by the adjacency. Instances are validated
    on construction, which also sets `edges`, the sorted canonical edge
    list, and are never mutated afterwards.
    """

    graph_id: int
    adjacency: tuple[tuple[int, ...], ...]
    node_attrs: tuple[AttributeVector, ...]
    edge_attrs: tuple[tuple[tuple[int, int], AttributeVector], ...] | None = None
    label: int | None = None

    def __post_init__(self):
        n = len(self.adjacency)
        if len(self.node_attrs) != n:
            raise SchemaError(
                f"graph {self.graph_id}: {len(self.node_attrs)} attribute vectors for {n} nodes"
            )
        lower, upper = [], []  # each pair (v, u), v < u, as listed from v and from u
        for v, nbrs in enumerate(self.adjacency):
            prev = -1
            for u in nbrs:
                if not 0 <= u < n:
                    raise SchemaError(f"graph {self.graph_id}: neighbor {u} out of range")
                if u == v:
                    raise SchemaError(f"graph {self.graph_id}: self-loop on node {v}")
                if u <= prev:
                    raise SchemaError(
                        f"graph {self.graph_id}: adjacency[{v}] not sorted or has duplicates"
                    )
                prev = u
                if v < u:
                    lower.append((v, u))
                else:
                    upper.append((u, v))
        upper.sort()  # lower is sorted already
        if lower != upper:
            listed = set(lower)
            v, u = min(listed.symmetric_difference(upper))  # the first in edge order
            node, neighbor = (u, v) if (v, u) in listed else (v, u)
            raise SchemaError(
                f"graph {self.graph_id}: asymmetric adjacency, {node} missing neighbor {neighbor}"
            )
        object.__setattr__(self, "edges", tuple(lower))
        if self.edge_attrs is not None:
            keys = tuple(k for k, _ in self.edge_attrs)
            if keys != self.edges:
                raise SchemaError(
                    f"graph {self.graph_id}: edge attributes do not cover the edge set exactly"
                )

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_attr_map(self) -> dict:
        """Canonical edge key -> AttributeVector lookup (empty if absent)."""
        return dict(self.edge_attrs) if self.edge_attrs is not None else {}


def neighbors(g: AttributedGraph, v: int) -> tuple[int, ...]:
    """Sorted neighbor ids of v."""
    if not 0 <= v < g.num_nodes:
        raise SchemaError(f"node {v} out of range for graph {g.graph_id}")
    return g.adjacency[v]


def build_adjacency(num_nodes: int, edges) -> tuple[tuple[int, ...], ...]:
    """Build a symmetric sorted adjacency from an iterable of edge pairs."""
    nbrs = [set() for _ in range(num_nodes)]
    for u, v in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise SchemaError(f"edge ({u},{v}) out of range for {num_nodes} nodes")
        if u == v:
            raise SchemaError(f"self-loop on node {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs)


def make_edge_attrs(mapping) -> tuple[tuple[tuple[int, int], AttributeVector], ...]:
    """Normalize an edge->vector mapping into the canonical sorted tuple form."""
    items = {}
    for (u, v), vec in mapping.items():
        items[canonical_edge(u, v)] = vec
    return tuple(sorted(items.items()))


def permute_graph(g: AttributedGraph, perm) -> AttributedGraph:
    """Relabel nodes so that old id v becomes perm[v]; attributes follow."""
    n = g.num_nodes
    if sorted(perm) != list(range(n)):
        raise SchemaError("perm must be a permutation of the node ids")
    inverse = [0] * n
    for old, new in enumerate(perm):
        inverse[new] = old
    adjacency = tuple(
        tuple(sorted(perm[u] for u in g.adjacency[inverse[new]])) for new in range(n)
    )
    node_attrs = tuple(g.node_attrs[inverse[new]] for new in range(n))
    edge_attrs = None
    if g.edge_attrs is not None:
        edge_attrs = make_edge_attrs(
            {canonical_edge(perm[u], perm[v]): vec for (u, v), vec in g.edge_attrs}
        )
    return AttributedGraph(
        graph_id=g.graph_id,
        adjacency=adjacency,
        node_attrs=node_attrs,
        edge_attrs=edge_attrs,
        label=g.label,
    )
