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
import io
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DatasetError, SchemaError
from .graph import (
    CATEGORICAL,
    NUMERICAL,
    AttributedGraph,
    AttributeSchema,
    AttributeVector,
    DimensionSpec,
    canonical_edge,
    vector_columns,
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

# line breaks that str.splitlines honours besides the "\n", "\r\n" and
# "\r" that reading text already folds into "\n"; np.loadtxt would take
# them for field separators
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_INT_TOKEN = re.compile("([+-]?)0*([0-9]{1,19})")  # sign, significant digits


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


def _read_table(path: Path, dtype, width: int | None = None) -> np.ndarray:
    """Parse a TU column file into one (rows, fields) int64 or float64 array.

    Commas and whitespace both separate fields. Every row must have
    `width` fields, or as many as the first row; float values must be
    finite; trailing blank lines are dropped, others are errors. The
    lines are scanned one by one only once the array parse has failed,
    to name the first bad one.
    """
    data = _file_bytes(path)
    if not data:
        return np.empty((0, width or 0), dtype)
    try:
        with warnings.catch_warnings():
            # a warning is a failure too: numpy 1.x reads "1.0" in an
            # integer column through a float and only warns, and a file of
            # bare commas reads as no data with a warning
            warnings.simplefilter("error")
            table = np.loadtxt(
                io.BytesIO(data), dtype=dtype, comments=None, ndmin=2, encoding="utf-8"
            )
    except (ValueError, OverflowError, Warning) as exc:
        raise _first_bad_line(path, data.decode(), dtype, width) from exc
    # np.loadtxt skips blank lines, so a short table means a blank line
    if (
        len(table) != data.count(b"\n") + 1
        or table.shape[1] != (width or table.shape[1])
        or not (dtype is np.int64 or np.isfinite(table).all())
    ):
        raise _first_bad_line(path, data.decode(), dtype, width)
    return table


def _file_bytes(path: Path) -> bytes:
    """A file's text with every line break as "\n", trailing blank lines
    dropped and commas turned into spaces, UTF-8 encoded: the one copy
    that np.loadtxt reads and, after a failure, the line scan."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if any(c in text for c in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    return text.rstrip().replace(",", " ").encode()


def _first_bad_line(path: Path, text: str, dtype, width: int | None) -> DatasetError:
    """The error for the first line of `text`, from _file_bytes, that
    _read_table rejects.

    Checked in order on each line: blank, a token outside the grammar
    (integers are ASCII digits with an optional sign within int64; floats
    what `float` reads, without underscores or non-ASCII digits), a
    non-finite float, and the field count.
    """
    integer = dtype is np.int64
    kind = "integer" if integer else "numeric"
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields:
            what = "blank line"
        elif not all(map(_is_int if integer else _is_float, fields)):
            what = f"non-{kind} token"
        elif not (integer or all(math.isfinite(float(f)) for f in fields)):
            what = "non-finite attribute value"
        else:
            width = width or len(fields)
            if len(fields) == width:
                continue
            what = f"expected {width} fields, got {len(fields)}"
        return DatasetError(f"{path.name}:{lineno}: {what}")
    return DatasetError(f"{path.name}: cannot parse as a table of {kind} fields")


def _is_int(token: str) -> bool:
    match = _INT_TOKEN.fullmatch(token)
    return match is not None and -(2**63) <= int(match[1] + match[2]) < 2**63


def _is_float(token: str) -> bool:
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _intern_columns(table: np.ndarray, prefix: str) -> tuple[list[DimensionSpec], np.ndarray]:
    """Intern raw categorical columns to dense symbol ids in order of first
    appearance, keeping the originals as each dimension's categories."""
    dims, ids = [], np.empty_like(table)
    for col in range(table.shape[1]):
        values, first, inverse = np.unique(table[:, col], return_index=True, return_inverse=True)
        order = np.argsort(first)  # symbol id -> index into values
        symbol = np.empty_like(order)
        symbol[order] = np.arange(order.size)
        ids[:, col] = symbol[inverse.reshape(-1)]
        dims.append(
            DimensionSpec(f"{prefix}{col}", CATEGORICAL, categories=tuple(values[order].tolist()))
        )
    return dims, ids


def _read_side(path_for, side: str, count: int, unit: str):
    """Read the optional `{side}_labels` and `{side}_attributes` files.

    Label columns become interned categorical dimensions, listed first;
    attribute columns become numerical ones. Returns the side's dimensions
    and one (count, fields) table per file read: symbol ids, then values.
    """
    dims, tables = [], []
    for suffix, dtype in (("labels", np.int64), ("attributes", np.float64)):
        path = path_for(f"{side}_{suffix}")
        if not path.is_file():
            continue
        table = _read_table(path, dtype)
        if len(table) != count:
            raise DatasetError(f"{path.name}: {len(table)} rows for {count} {unit}")
        if dtype is np.int64:
            new_dims, table = _intern_columns(table, f"{side}_label_")
        else:
            new_dims = [DimensionSpec(f"{side}_attr_{c}", NUMERICAL) for c in range(table.shape[1])]
        dims += new_dims
        tables.append(table)
    return tuple(dims), tables


def _vectors(tables: list[np.ndarray], rows: np.ndarray) -> list[AttributeVector]:
    """One AttributeVector per selected row: the ids of the label table,
    then the values of the attribute table, as Python ints and floats."""
    columns = [table[rows, k].tolist() for table in tables for k in range(table.shape[1])]
    return list(map(AttributeVector, zip(*columns)))


def _first_true(mask: np.ndarray) -> int | None:
    return int(np.argmax(mask)) if mask.any() else None


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

    indicator = _read_table(path_for("graph_indicator"), np.int64, 1)[:, 0]
    if not indicator.size:
        raise DatasetError("graph indicator file declares no nodes")
    # graph ids must run 1..G without a gap; checked on the distinct ids, so
    # a stray large id costs nothing before it is rejected
    gids, sizes = np.unique(indicator, return_counts=True)
    if gids[0] < 1:
        raise DatasetError("graph indicator ids must be >= 1")
    gaps = np.flatnonzero(gids != np.arange(1, gids.size + 1))
    if gaps.size:
        raise DatasetError(f"graph {gaps[0] + 1} has no nodes")
    num_graphs, num_nodes = gids.size, indicator.size

    raw_labels = _read_table(path_for("graph_labels"), np.int64, 1)[:, 0]
    if raw_labels.size != num_graphs:
        raise DatasetError(f"{raw_labels.size} graph labels for {num_graphs} graphs")
    class_values, labels = np.unique(raw_labels, return_inverse=True)
    class_values, labels = tuple(class_values.tolist()), tuple(labels.reshape(-1).tolist())

    node_dims, node_tables = _read_side(path_for, "node", num_nodes, "nodes")
    if not node_dims:
        raise DatasetError(
            f"dataset {name!r} has neither node labels nor node attributes; "
            "kernels need at least one node dimension"
        )
    # nodes graph by graph, in file order within each graph; a node's local
    # id is its rank there, and graph g's nodes start at first_node[g]
    order = np.argsort(indicator, kind="stable")
    graph_of = indicator - 1
    first_node = np.zeros(num_graphs + 1, np.int64)
    np.cumsum(sizes, out=first_node[1:])
    local = np.empty(num_nodes, np.int64)
    local[order] = np.arange(num_nodes) - first_node[graph_of[order]]

    edge_rows = _read_table(path_for("A"), np.int64, 2)
    edge_dims, edge_tables = _read_side(path_for, "edge", len(edge_rows), "edge rows")
    schema = AttributeSchema(node_dims=node_dims, edge_dims=edge_dims)

    # row checks on 1-based ids u, v; later checks read clamped 0-based ids
    # a, b, which are exact on every row before the first faulty one
    u, v = edge_rows.T
    in_range = (u > 0) & (u <= num_nodes) & (v > 0) & (v <= num_nodes)
    a, b = np.where(in_range, u - 1, 0), np.where(in_range, v - 1, 0)
    keys, first_row = np.unique(a * num_nodes + b, return_index=True)
    repeated = np.ones(len(edge_rows), bool)
    repeated[first_row] = False
    row = _first_true(~in_range | (u == v) | (graph_of[a] != graph_of[b]) | repeated)
    if row is not None:
        ru, rv = int(u[row]), int(v[row])
        if not in_range[row]:
            what = f"node id {rv if 0 < ru <= num_nodes else ru} out of range"
        elif ru == rv:
            what = f"self-loop on node {ru}"
        elif graph_of[a[row]] != graph_of[b[row]]:
            what = f"edge joins nodes of graphs {indicator[a[row]]} and {indicator[b[row]]}"
        else:
            what = "duplicate edge row"
        raise DatasetError(f"{name}_A.txt:{row + 1}: {what}")

    # every row needs its mirror; an undirected edge is kept at its first
    # row and its second row must carry the same attributes
    mirror_keys = b * num_nodes + a
    at = np.minimum(np.searchsorted(keys, mirror_keys), keys.size - 1)
    has_mirror = keys[at] == mirror_keys
    mirror = first_row[at]
    second = has_mirror & (mirror < np.arange(len(edge_rows)))
    disagree = np.zeros(len(edge_rows), bool)
    rows = np.flatnonzero(second)
    for table in edge_tables:
        disagree[rows] |= (table[rows] != table[mirror[rows]]).any(axis=1)
    row = _first_true(~has_mirror | disagree)
    if row is not None:
        gid = int(indicator[a[row]])
        key = (int(local[a[row]]), int(local[b[row]]))
        if not has_mirror[row]:
            raise DatasetError(f"graph {gid}: edge {key} lacks its mirrored row")
        raise DatasetError(
            f"graph {gid}: mirrored rows of edge {canonical_edge(*key)} "
            "disagree on attributes"
        )

    # kept rows as canonical local edges, sorted by graph, then by edge
    kept = np.flatnonzero(~second)
    lo = np.minimum(local[a[kept]], local[b[kept]])
    hi = np.maximum(local[a[kept]], local[b[kept]])
    edge_graph = graph_of[a[kept]]
    by_edge = np.lexsort((hi, lo, edge_graph))
    kept, lo, hi, edge_graph = kept[by_edge], lo[by_edge], hi[by_edge], edge_graph[by_edge]
    first_edge = np.zeros(num_graphs + 1, np.int64)
    np.cumsum(np.bincount(edge_graph, minlength=num_graphs), out=first_edge[1:])

    # both directions of every edge, sorted by node, give each node's
    # sorted neighbors
    tail = np.concatenate((first_node[edge_graph] + lo, first_node[edge_graph] + hi))
    head = np.concatenate((hi, lo))
    heads = head[np.lexsort((head, tail))].tolist()
    ends = np.cumsum(np.bincount(tail, minlength=num_nodes)).tolist()
    adjacency = [tuple(heads[start:end]) for start, end in zip([0] + ends, ends)]

    node_vectors = _vectors(node_tables, order)
    edge_attrs = None
    if schema.has_edge_attrs:
        edge_attrs = list(zip(zip(lo.tolist(), hi.tolist()), _vectors(edge_tables, kept)))
    nodes_at, edges_at = first_node.tolist(), first_edge.tolist()
    graphs = tuple(
        AttributedGraph(
            graph_id=g,
            adjacency=tuple(adjacency[nodes_at[g]:nodes_at[g + 1]]),
            node_attrs=tuple(node_vectors[nodes_at[g]:nodes_at[g + 1]]),
            edge_attrs=(
                None if edge_attrs is None else tuple(edge_attrs[edges_at[g]:edges_at[g + 1]])
            ),
            label=labels[g],
        )
        for g in range(num_graphs)
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
        numerical = [k for k, dim in enumerate(dims) if dim.kind != CATEGORICAL]
        rows = [vec.values for g in graphs for vec in vectors_of(g)] if numerical else []
        out = list(dims)
        for k, (low, high) in zip(numerical, _column_ends(rows, len(dims), numerical)):
            if low is None:
                out[k] = DimensionSpec(dims[k].name, NUMERICAL)
            else:
                out[k] = DimensionSpec(dims[k].name, NUMERICAL, range_min=low, range_max=high)
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


def _column_ends(rows: list, width: int, columns: list[int]) -> list[tuple]:
    """The builtin min and max of each listed column of `rows`, or
    (None, None) for each when there are no rows.

    One numpy reduction per end finds it as a float64 over rows of
    `width` real values. Rounding to float keeps order, so the end is among
    the values that round to it, and the builtins compare only those, in
    row order: the first of equal values, as its Python object. Ragged
    rows, a value float() refuses, or a NaN send the builtins over the
    whole column instead.
    """
    if not rows:
        return [(None, None)] * len(columns)
    table = None
    if set(map(len, rows)) == {width}:
        try:
            table = np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * width)
        except (TypeError, ValueError, OverflowError):
            pass
    if table is not None:
        table = table.reshape(len(rows), width)[:, columns]
        lows, highs = table.min(axis=0), table.max(axis=0)
    ends = []
    for j, k in enumerate(columns):
        if table is not None and not math.isnan(lows[j]):  # a NaN makes both ends NaN
            ends.append((min(rows[i][k] for i in np.flatnonzero(table[:, j] == lows[j])),
                         max(rows[i][k] for i in np.flatnonzero(table[:, j] == highs[j]))))
        else:
            column = [row[k] for row in rows]
            ends.append((min(column), max(column)))
    return ends


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
        sides = [("node", ds.schema.node_dims, list(enumerate(g.node_attrs)))]
        if ds.schema.has_edge_attrs:
            sides.append(("edge", ds.schema.edge_dims, g.edge_attrs))
        for what, dims, keyed_vectors in sides:
            if keyed_vectors is None:
                raise DatasetError(f"graph {i} lacks edge attributes required by the schema")
            vectors = [vec for _, vec in keyed_vectors]
            keys = [key for key, _ in keyed_vectors]
            try:
                vector_columns(vectors, dims, f"graph {i} {what}", keys)
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
