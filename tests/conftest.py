"""Shared fixtures: tiny hand-built graphs and seeded synthetic datasets."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from nask.graph import (
    AttributedGraph,
    AttributeSchema,
    AttributeVector,
    build_adjacency,
    make_edge_attrs,
)

import synth

# acceptance tests append (status, note) pairs per criterion number; the
# terminal summary prints one line per criterion
ACCEPTANCE_RESULTS: dict[int, list] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        parts = ACCEPTANCE_RESULTS[number]
        statuses = {status for status, _ in parts}
        if "FAIL" in statuses:
            overall = "FAIL"
        elif statuses == {"SKIP"}:
            overall = "SKIP"
        elif "SKIP" in statuses:
            overall = "PASS*"  # synthetic evidence only, see notes
        else:
            overall = "PASS"
        notes = "; ".join(note for _, note in parts)
        terminalreporter.write_line(f"criterion {number:>2}: {overall} - {notes}")


def find_real_dataset(name: str) -> Path | None:
    """Locate a real TU-format dataset under $NASK_DATA or ./data, if any."""
    roots = []
    env = os.environ.get("NASK_DATA")
    if env:
        roots.append(Path(env))
    roots.append(Path("data"))
    for root in roots:
        candidate = root / name
        if (candidate / f"{name}_A.txt").is_file():
            return candidate
    return None


def graph_with(graph_id, n, edges, node_values, edge_values=None, label=0):
    """Assemble a graph from plain tuples of attribute values."""
    edge_attrs = None
    if edge_values is not None:
        edge_attrs = make_edge_attrs(
            {key: AttributeVector(tuple(vals)) for key, vals in edge_values.items()}
        )
    return AttributedGraph(
        graph_id=graph_id,
        adjacency=build_adjacency(n, edges),
        node_attrs=tuple(AttributeVector(tuple(vals)) for vals in node_values),
        edge_attrs=edge_attrs,
        label=label,
    )


def star_rows(pack, depth, v):
    """(ball nodes, edge keys) of the depth-h star at v, read off the row v
    of a registered pack's family indicators."""
    ball, einc = pack.family(depth)
    edges = pack.graph.edges
    return (
        tuple(np.flatnonzero(ball[v]).tolist()),
        tuple(edges[e] for e in np.flatnonzero(einc[v])),
    )


@pytest.fixture
def cat_schema():
    """One categorical node dimension, four symbols."""
    return AttributeSchema(node_dims=(synth.categorical_dim("nc0", 4),))


@pytest.fixture
def mixed_node_schema():
    """One categorical plus one numerical node dimension with [0,1] range."""
    return synth.mixed_schema(n_cat=1, n_num=1)


@pytest.fixture
def full_schema():
    """Categorical and numerical dimensions on both nodes and edges."""
    return synth.mixed_schema(n_cat=1, n_num=1, edge_cat=1, edge_num=1)


@pytest.fixture
def single_edge_pair(cat_schema):
    """Two identical single-edge graphs with equal categorical attributes."""
    g0 = graph_with(0, 2, [(0, 1)], [(0,), (0,)])
    g1 = graph_with(1, 2, [(0, 1)], [(0,), (0,)])
    return cat_schema, g0, g1


@pytest.fixture
def triangle(cat_schema):
    return cat_schema, graph_with(0, 3, [(0, 1), (1, 2), (0, 2)], [(0,), (1,), (2,)])


@pytest.fixture
def star_k13(cat_schema):
    return cat_schema, graph_with(0, 4, [(0, 1), (0, 2), (0, 3)], [(0,), (1,), (1,), (2,)])


@pytest.fixture(scope="session")
def bench_ds():
    return synth.benchmark_dataset()


@pytest.fixture(scope="session")
def wide_ds():
    return synth.wide_attribute_dataset()
