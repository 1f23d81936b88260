"""TU-format dataset ingestion, validation, serialization, and digests.

The on-disk layout is the TU Dortmund graph-classification format: a
directory holding `{name}_A.txt`, `{name}_graph_indicator.txt`,
`{name}_graph_labels.txt`, and optional node/edge label and attribute
files. Node and edge ids in files are 1-based; everything in memory is
0-based. Node/edge label columns become categorical dimensions (listed
first in the schema), attribute columns become numerical dimensions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DatasetError, SchemaError
from .graph import (
    CATEGORICAL,
    NUMERICAL,
    AttributedGraph,
    AttributeSchema,
    AttributeVector,
    DimensionSpec,
    build_adjacency,
    canonical_edge,
    make_edge_attrs,
    validate_vector,
)

_FILE_SUFFIXES = (
    "A",
    "graph_indicator",
    "graph_labels",
    "node_labels",
    "node_attributes",
    "edge_labels",
    "edge_attributes",
)
_MANDATORY_SUFFIXES = _FILE_SUFFIXES[:3]


@dataclass(frozen=True)
class Dataset:
    """An ordered graph collection with shared schema and per-graph labels.

    labels are contiguous 0-based class ids; class_values maps them back to
    the original label values in sorted order. The digest hashes the
    canonical serialized form, so it is stable under reload round trips and
    under range computation.
    """

    name: str
    schema: AttributeSchema
    graphs: tuple[AttributedGraph, ...]
    labels: tuple[int, ...]
    class_values: tuple = ()

    def __post_init__(self):
        if len(self.labels) != len(self.graphs):
            raise DatasetError(
                f"{len(self.labels)} labels for {len(self.graphs)} graphs"
            )
        k = len(self.class_values)
        for i, (g, label) in enumerate(zip(self.graphs, self.labels)):
            if g.label != label:
                raise DatasetError(f"graph {i} label disagrees with dataset labels")
            if not 0 <= label < k:
                raise DatasetError(f"graph {i} label {label} outside 0..{k - 1}")
        if list(self.class_values) != sorted(set(self.class_values)):
            raise DatasetError("class_values must be sorted and duplicate-free")

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    @property
    def num_classes(self) -> int:
        return len(self.class_values)

    @cached_property
    def digest(self) -> str:
        return canonical_digest(self)


def _read_lines(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def _parse_rows(path: Path, convert, width: int | None = None) -> list[list]:
    """Parse a TU column file with `convert` (int or float) on every field.

    Every row must have `width` fields, or as many as the first row; float
    values must be finite.
    """
    rows = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        # TU files separate fields with commas, sometimes with stray spaces
        fields = line.replace(",", " ").split()
        if not fields:
            raise DatasetError(f"{path.name}:{lineno}: blank line")
        try:
            row = list(map(convert, fields))
        except ValueError as exc:
            kind = "integer" if convert is int else "numeric"
            raise DatasetError(f"{path.name}:{lineno}: non-{kind} token") from exc
        if convert is float and not all(map(math.isfinite, row)):
            raise DatasetError(f"{path.name}:{lineno}: non-finite attribute value")
        if width is None:
            width = len(row)
        if len(row) != width:
            raise DatasetError(
                f"{path.name}:{lineno}: expected {width} fields, got {len(row)}"
            )
        rows.append(row)
    return rows


def _intern_columns(rows: list[list[int]], prefix: str) -> tuple[list[DimensionSpec], list[list[int]]]:
    """Intern raw categorical columns to dense symbol ids, keeping originals."""
    if not rows:
        return [], []
    width = len(rows[0])
    dims, id_rows = [], [[None] * width for _ in rows]
    for col in range(width):
        table: dict[int, int] = {}
        for r, row in enumerate(rows):
            value = row[col]
            if value not in table:
                table[value] = len(table)
            id_rows[r][col] = table[value]
        originals = tuple(sorted(table, key=table.get))
        dims.append(DimensionSpec(f"{prefix}{col}", CATEGORICAL, categories=originals))
    return dims, id_rows


def _read_side(path_for, side: str, count: int, unit: str):
    """Read the optional `{side}_labels` and `{side}_attributes` files.

    Label columns become interned categorical dimensions, listed first;
    attribute columns become numerical ones. Returns the side's dimensions
    and one AttributeVector per row (none when neither file exists).
    """
    dims, parts = [], []
    for suffix, convert in (("labels", int), ("attributes", float)):
        path = path_for(f"{side}_{suffix}")
        if not path.is_file():
            continue
        rows = _parse_rows(path, convert)
        if len(rows) != count:
            raise DatasetError(f"{path.name}: {len(rows)} rows for {count} {unit}")
        if convert is int:
            new_dims, rows = _intern_columns(rows, f"{side}_label_")
        else:
            width = len(rows[0]) if rows else 0
            new_dims = [DimensionSpec(f"{side}_attr_{c}", NUMERICAL) for c in range(width)]
        dims += new_dims
        parts.append(rows)
    vectors = [AttributeVector(tuple(sum(row, []))) for row in zip(*parts)]
    return tuple(dims), vectors


def load_tu_dataset(directory, name: str | None = None) -> Dataset:
    """Parse one TU-format dataset directory into a Dataset.

    Rows may come in any order and graph ids may interleave: a node's local
    id is its rank among its graph's nodes in file order. Undirected edges
    must appear in both directions in `_A.txt`; mirrored edge attribute
    rows must agree exactly. Class labels are remapped to contiguous
    0-based ids preserving their sorted original order.
    """
    directory = Path(directory)
    if name is None:
        name = directory.name
    if not directory.is_dir():
        raise DatasetError(f"dataset directory not found: {directory}")

    def path_for(suffix: str) -> Path:
        return directory / f"{name}_{suffix}.txt"

    for suffix in _MANDATORY_SUFFIXES:
        if not path_for(suffix).is_file():
            raise DatasetError(f"missing mandatory file {path_for(suffix).name}")

    indicator = [row[0] for row in _parse_rows(path_for("graph_indicator"), int, 1)]
    if not indicator:
        raise DatasetError("graph indicator file declares no nodes")
    # graph ids must run 1..G without a gap; checked on the distinct ids, so
    # a stray large id costs nothing before it is rejected
    gids = sorted(set(indicator))
    if gids[0] < 1:
        raise DatasetError("graph indicator ids must be >= 1")
    for expected, gid in enumerate(gids, start=1):
        if gid != expected:
            raise DatasetError(f"graph {expected} has no nodes")

    raw_labels = [row[0] for row in _parse_rows(path_for("graph_labels"), int, 1)]
    if len(raw_labels) != len(gids):
        raise DatasetError(
            f"{len(raw_labels)} graph labels for {len(gids)} graphs"
        )
    class_values = tuple(sorted(set(raw_labels)))
    remap = {value: i for i, value in enumerate(class_values)}
    labels = tuple(remap[value] for value in raw_labels)

    node_dims, node_vectors = _read_side(path_for, "node", len(indicator), "nodes")
    if not node_dims:
        raise DatasetError(
            f"dataset {name!r} has neither node labels nor node attributes; "
            "kernels need at least one node dimension"
        )
    # one pass over the indicator: each graph's node vectors in file order,
    # and each node's local id, its rank among them
    node_attrs: list[list[AttributeVector]] = [[] for _ in gids]
    local = []
    for gid, vec in zip(indicator, node_vectors):
        local.append(len(node_attrs[gid - 1]))
        node_attrs[gid - 1].append(vec)

    edge_rows = _parse_rows(path_for("A"), int, 2)
    edge_dims, edge_vectors = _read_side(path_for, "edge", len(edge_rows), "edge rows")
    schema = AttributeSchema(node_dims=node_dims, edge_dims=edge_dims)

    def row_error(row: int, what: str) -> DatasetError:
        return DatasetError(f"{name}_A.txt:{row + 1}: {what}")

    # one table of directed rows keyed by 1-based global node ids
    num_nodes = len(node_vectors)
    directed: dict[tuple[int, int], int] = {}
    for row, (u, v) in enumerate(edge_rows):
        if not (0 < u <= num_nodes and 0 < v <= num_nodes):
            raise row_error(row, f"node id {v if 0 < u <= num_nodes else u} out of range")
        if u == v:
            raise row_error(row, f"self-loop on node {u}")
        if indicator[u - 1] != indicator[v - 1]:
            raise row_error(
                row, f"edge joins nodes of graphs {indicator[u - 1]} and {indicator[v - 1]}"
            )
        if directed.setdefault((u, v), row) != row:  # the key holds an earlier row
            raise row_error(row, "duplicate edge row")

    # every row needs its mirror; an undirected edge is kept at its first
    # row and its second row must carry the same attributes
    has_edge_dims = schema.has_edge_attrs
    edges: list[dict] = [{} for _ in gids]  # per graph: local edge -> vector
    for (u, v), row in directed.items():
        mirror = directed.get((v, u))
        if mirror is not None and mirror < row:  # an edge's second row
            if not has_edge_dims or edge_vectors[row].values == edge_vectors[mirror].values:
                continue
        gid = indicator[u - 1]
        key = (local[u - 1], local[v - 1])
        if mirror is None:
            raise DatasetError(f"graph {gid}: edge {key} lacks its mirrored row")
        if mirror < row:
            raise DatasetError(
                f"graph {gid}: mirrored rows of edge {canonical_edge(*key)} "
                "disagree on attributes"
            )
        edges[gid - 1][key] = edge_vectors[row] if has_edge_dims else None

    graphs = tuple(
        AttributedGraph(
            graph_id=gidx,
            adjacency=build_adjacency(len(attrs), edges[gidx]),
            node_attrs=tuple(attrs),
            edge_attrs=make_edge_attrs(edges[gidx]) if has_edge_dims else None,
            label=labels[gidx],
        )
        for gidx, attrs in enumerate(node_attrs)
    )
    return Dataset(
        name=name,
        schema=schema,
        graphs=graphs,
        labels=labels,
        class_values=class_values,
    )


def compute_ranges(ds: Dataset, graph_indices=None) -> Dataset:
    """Return a dataset whose numerical dimensions carry observed min/max.

    Statistics pool over all nodes (resp. edges) of the selected graphs;
    by default over the whole dataset. Dimensions with no observations are
    left without a range and error if a similarity later needs them.
    """
    graphs = ds.graphs if graph_indices is None else [ds.graphs[i] for i in graph_indices]

    def ranged(dims: tuple[DimensionSpec, ...], vectors_of) -> tuple[DimensionSpec, ...]:
        out = []
        for k, dim in enumerate(dims):
            if dim.kind == CATEGORICAL:
                out.append(dim)
                continue
            low = high = None
            for g in graphs:
                for vec in vectors_of(g):
                    value = vec.values[k]
                    if low is None or value < low:
                        low = value
                    if high is None or value > high:
                        high = value
            if low is None:
                out.append(DimensionSpec(dim.name, NUMERICAL))
            else:
                out.append(DimensionSpec(dim.name, NUMERICAL, range_min=low, range_max=high))
        return tuple(out)

    schema = AttributeSchema(
        node_dims=ranged(ds.schema.node_dims, lambda g: g.node_attrs),
        edge_dims=ranged(
            ds.schema.edge_dims,
            lambda g: (vec for _, vec in (g.edge_attrs or ())),
        ),
    )
    ranged_ds = Dataset(
        name=ds.name,
        schema=schema,
        graphs=ds.graphs,
        labels=ds.labels,
        class_values=ds.class_values,
    )
    if "digest" in vars(ds):  # the digest ignores ranges; keep one, never compute one
        ranged_ds.__dict__["digest"] = ds.digest
    return ranged_ds


def validate_dataset(ds: Dataset) -> dict:
    """Check every graph against the schema and summarize the dataset.

    Returns a report dict with counts, class histogram, degree statistics,
    and the schema summary. Raises DatasetError on any violation.
    """
    if ds.num_graphs == 0:
        raise DatasetError("no graphs")
    degrees = []
    total_edges = 0
    total_nodes = 0
    for i, g in enumerate(ds.graphs):
        if g.num_nodes == 0:
            raise DatasetError(f"graph {i} has no nodes")
        total_nodes += g.num_nodes
        total_edges += g.num_edges
        degrees.extend(len(nbrs) for nbrs in g.adjacency)
        sides = [("node", ds.schema.node_dims, enumerate(g.node_attrs))]
        if ds.schema.has_edge_attrs:
            sides.append(("edge", ds.schema.edge_dims, g.edge_attrs))
        for what, dims, keyed_vectors in sides:
            if keyed_vectors is None:
                raise DatasetError(f"graph {i} lacks edge attributes required by the schema")
            for key, vec in keyed_vectors:
                try:
                    validate_vector(vec, dims, f"graph {i} {what} {key}")
                except SchemaError as exc:
                    raise DatasetError(str(exc)) from exc
    histogram = {}
    for label in ds.labels:
        original = ds.class_values[label]
        histogram[original] = histogram.get(original, 0) + 1

    def dim_summary(dim: DimensionSpec) -> dict:
        info = {"name": dim.name, "kind": dim.kind}
        if dim.kind == NUMERICAL:
            info["range_min"] = dim.range_min
            info["range_max"] = dim.range_max
        else:
            info["cardinality"] = len(dim.categories)
        return info

    return {
        "name": ds.name,
        "graphs": ds.num_graphs,
        "classes": ds.num_classes,
        "class_histogram": histogram,
        "nodes": total_nodes,
        "edges": total_edges,
        "degree_min": min(degrees),
        "degree_max": max(degrees),
        "degree_mean": sum(degrees) / len(degrees),
        "node_dims": [dim_summary(d) for d in ds.schema.node_dims],
        "edge_dims": [dim_summary(d) for d in ds.schema.edge_dims],
        "digest": ds.digest,
    }


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _side_lines(dims, rows, what: str) -> tuple[list[str], list[str]]:
    """Label and attribute lines for one side's value rows, in row order.

    Categorical symbol ids map back to their original values; floats print
    in shortest round-trip form.
    """
    split = sum(1 for d in dims if d.kind == CATEGORICAL)
    if any(d.kind == CATEGORICAL for d in dims[split:]):
        raise DatasetError(
            f"{what} dimensions must list categorical before numerical to serialize"
        )
    cat_dims = dims[:split]
    label_lines, attr_lines = [], []
    for values in rows:
        if cat_dims:
            label_lines.append(
                ", ".join(
                    str(dim.categories[values[k]] if dim.categories else values[k])
                    for k, dim in enumerate(cat_dims)
                )
            )
        if split < len(dims):
            attr_lines.append(", ".join(_format_value(v) for v in values[split:len(dims)]))
    return label_lines, attr_lines


def canonical_files(ds: Dataset) -> dict[str, str]:
    """Serialize the dataset to canonical TU-format file contents.

    Nodes are renumbered 1..N in dataset order, directed edge rows are
    sorted ascending (each graph's sorted adjacency, read row by row,
    yields them in that order), categorical symbol ids map back to their
    original values, and floats print in shortest round-trip form. This is
    both the writer's payload and the basis of the content digest.
    """
    indicator_lines = [str(gidx + 1) for gidx, g in enumerate(ds.graphs) for _ in g.node_attrs]
    node_lines = _side_lines(
        ds.schema.node_dims, (vec.values for g in ds.graphs for vec in g.node_attrs), "node"
    )

    a_lines, edge_values = [], []
    base = 1  # file id of the current graph's node 0
    for g in ds.graphs:
        for v, nbrs in enumerate(g.adjacency):
            a_lines += [f"{base + v}, {base + u}" for u in nbrs]
            if ds.schema.has_edge_attrs:
                edge_values += [g.edge_attr_map[canonical_edge(v, u)].values for u in nbrs]
        base += g.num_nodes
    edge_lines = _side_lines(ds.schema.edge_dims, edge_values, "edge")

    label_lines = [str(ds.class_values[label]) for label in ds.labels]

    columns = (a_lines, indicator_lines, label_lines, *node_lines, *edge_lines)
    return {
        suffix: "\n".join(lines) + "\n" if lines else ""
        for suffix, lines in zip(_FILE_SUFFIXES, columns)
        if lines or suffix in _MANDATORY_SUFFIXES
    }


def canonical_digest(ds: Dataset) -> str:
    """Content hash of the canonical serialized form (name-independent)."""
    h = hashlib.sha256()
    files = canonical_files(ds)
    for suffix in _FILE_SUFFIXES:
        if suffix in files:
            h.update(suffix.encode())
            h.update(b"\x00")
            h.update(files[suffix].encode())
            h.update(b"\x00")
    return h.hexdigest()


def save_tu_dataset(ds: Dataset, directory, name: str | None = None) -> list[Path]:
    """Write the dataset in TU format; returns the written file paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if name is None:
        name = ds.name
    written = []
    for suffix, content in canonical_files(ds).items():
        path = directory / f"{name}_{suffix}.txt"
        path.write_text(content)
        written.append(path)
    return written
