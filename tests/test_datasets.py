"""TU-format parsing, validation, canonical serialization, and digests."""

import hashlib

import numpy as np
import pytest

from nask.datasets import (
    Dataset,
    canonical_digest,
    canonical_files,
    compute_ranges,
    load_tu_dataset,
    save_tu_dataset,
    validate_dataset,
)
from nask.errors import DatasetError
from nask.graph import (
    CATEGORICAL,
    AttributedGraph,
    AttributeSchema,
    AttributeVector,
    DimensionSpec,
    permute_graph,
)

import synth


def write_tu(tmp_path, name, **files):
    directory = tmp_path / name
    directory.mkdir(exist_ok=True)
    for suffix, lines in files.items():
        (directory / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n")
    return directory


BASIC = dict(
    A=["1, 2", "2, 1", "2, 3", "3, 2", "4, 5", "5, 4"],
    graph_indicator=["1", "1", "1", "2", "2"],
    graph_labels=["1", "-1"],
    node_labels=["7", "8", "7", "8", "7"],
    node_attributes=["0.5", "1.5", "2.5", "3.5", "4.5"],
    edge_labels=["10", "10", "20", "20", "30", "30"],
)


# BASIC plus edge attributes, so that all four node/edge column files exist
FULL = dict(BASIC, edge_attributes=["0.25", "0.25", "0.5", "0.5", "1.0", "1.0"])
SIDE_FILES = ("node_labels", "node_attributes", "edge_labels", "edge_attributes")

# non-canonical input: graph ids interleave in the indicator and the
# directed edge rows come shuffled, carrying labels and attributes. Graph 1
# is the triangle on file nodes 1, 3, 6; graph 2 joins 2 and 5; graph 3
# joins 4 and 7. Labels first appear in the same order here as in the
# canonical files, so both interning orders agree.
SHUFFLED = dict(
    A=["6, 3", "2, 5", "1, 3", "7, 4", "3, 6", "6, 1", "5, 2", "3, 1", "4, 7", "1, 6"],
    graph_indicator=["1", "2", "1", "3", "2", "1", "3"],
    graph_labels=["2", "-1", "2"],
    node_labels=["5", "5", "6", "6", "6", "9", "9"],
    node_attributes=["0.5", "1.5", "2.5", "3.5", "4.5", "5.5", "6.5"],
    edge_labels=["4", "4", "4", "6", "4", "6", "4", "4", "6", "6"],
    edge_attributes=["1.25", "0.75", "0.5", "3.5", "1.25", "-2.0", "0.75", "0.5", "3.5", "-2.0"],
)


@pytest.fixture
def basic_dir(tmp_path):
    return write_tu(tmp_path, "basic", **BASIC)


class TestLoading:
    def test_basic_parse(self, basic_dir):
        ds = load_tu_dataset(basic_dir)
        assert ds.name == "basic"
        assert ds.num_graphs == 2
        assert ds.class_values == (-1, 1)
        assert ds.labels == (1, 0)  # original labels 1, -1 remap by sorted order
        node_dims = ds.schema.node_dims
        assert [d.kind for d in node_dims] == ["categorical", "numerical"]
        assert node_dims[0].categories == (7, 8)  # first-appearance interning
        assert ds.schema.edge_dims[0].categories == (10, 20, 30)
        g0, g1 = ds.graphs
        assert g0.adjacency == ((1,), (0, 2), (1,))
        assert [v.values for v in g0.node_attrs] == [(0, 0.5), (1, 1.5), (0, 2.5)]
        assert g0.edge_attr_map[(0, 1)].values == (0,)
        assert g0.edge_attr_map[(1, 2)].values == (1,)
        assert g1.adjacency == ((1,), (0,))
        assert g1.edge_attr_map[(0, 1)].values == (2,)
        assert g0.label == 1 and g1.label == 0

    def test_explicit_name(self, basic_dir):
        ds = load_tu_dataset(basic_dir.parent / "basic", name="basic")
        assert ds.num_graphs == 2

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_tu_dataset(tmp_path / "nope")

    def test_missing_mandatory_file(self, tmp_path):
        files = {k: v for k, v in BASIC.items() if k != "graph_labels"}
        directory = write_tu(tmp_path, "broken", **files)
        with pytest.raises(DatasetError, match="graph_labels"):
            load_tu_dataset(directory)

    def test_no_node_information(self, tmp_path):
        files = {k: v for k, v in BASIC.items() if k not in ("node_labels", "node_attributes")}
        directory = write_tu(tmp_path, "bare", **files)
        with pytest.raises(DatasetError, match="neither node labels nor node attributes"):
            load_tu_dataset(directory)

    def test_self_loop_rejected(self, tmp_path):
        files = dict(BASIC, A=["1, 1", "2, 1", "2, 3", "3, 2", "4, 5", "5, 4"])
        directory = write_tu(tmp_path, "loop", **files)
        with pytest.raises(DatasetError, match="self-loop"):
            load_tu_dataset(directory)

    def test_cross_graph_edge_rejected(self, tmp_path):
        files = dict(BASIC, A=["1, 2", "2, 1", "3, 4", "4, 3", "4, 5", "5, 4"])
        directory = write_tu(tmp_path, "cross", **files)
        with pytest.raises(DatasetError, match="joins nodes of graphs"):
            load_tu_dataset(directory)

    def test_duplicate_edge_row_rejected(self, tmp_path):
        files = dict(
            BASIC,
            A=["1, 2", "2, 1", "1, 2", "2, 1", "4, 5", "5, 4"],
        )
        directory = write_tu(tmp_path, "dup", **files)
        with pytest.raises(DatasetError, match="duplicate edge row"):
            load_tu_dataset(directory)

    def test_missing_mirror_rejected(self, tmp_path):
        files = dict(
            BASIC,
            A=["1, 2", "2, 1", "2, 3", "4, 5", "5, 4"],
            edge_labels=["10", "10", "20", "30", "30"],
        )
        directory = write_tu(tmp_path, "onesided", **files)
        with pytest.raises(DatasetError, match="mirrored row"):
            load_tu_dataset(directory)

    def test_mirror_attribute_disagreement_rejected(self, tmp_path):
        files = dict(BASIC, edge_labels=["10", "99", "20", "20", "30", "30"])
        directory = write_tu(tmp_path, "disagree", **files)
        with pytest.raises(DatasetError, match="disagree"):
            load_tu_dataset(directory)

    def test_node_id_out_of_range(self, tmp_path):
        files = dict(BASIC, A=["1, 9", "9, 1", "2, 3", "3, 2", "4, 5", "5, 4"])
        directory = write_tu(tmp_path, "range", **files)
        with pytest.raises(DatasetError, match="out of range"):
            load_tu_dataset(directory)

    @pytest.mark.parametrize("suffix", SIDE_FILES)
    def test_row_count_mismatch(self, tmp_path, suffix):
        files = dict(FULL, **{suffix: FULL[suffix][:2]})
        directory = write_tu(tmp_path, "short", **files)
        with pytest.raises(DatasetError, match="rows") as info:
            load_tu_dataset(directory)
        unit = "5 nodes" if suffix.startswith("node") else "6 edge rows"
        assert str(info.value) == f"short_{suffix}.txt: 2 rows for {unit}"

    @pytest.mark.parametrize("suffix", ("graph_indicator",) + SIDE_FILES)
    def test_non_integer_token_names_line(self, tmp_path, suffix):
        lines = list(FULL[suffix])
        lines[1] = "x"
        directory = write_tu(tmp_path, "token", **dict(FULL, **{suffix: lines}))
        with pytest.raises(DatasetError, match=rf"{suffix}\.txt:2") as info:
            load_tu_dataset(directory)
        kind = "numeric" if suffix.endswith("attributes") else "integer"
        assert str(info.value).endswith(f": non-{kind} token")

    @pytest.mark.parametrize("suffix", ("node_attributes", "edge_attributes"))
    def test_non_finite_attribute_rejected(self, tmp_path, suffix):
        lines = list(FULL[suffix])
        lines[1] = "inf"
        directory = write_tu(tmp_path, "inf", **dict(FULL, **{suffix: lines}))
        with pytest.raises(DatasetError, match="non-finite") as info:
            load_tu_dataset(directory)
        assert str(info.value).startswith(f"inf_{suffix}.txt:2:")

    def test_empty_graph_rejected(self, tmp_path):
        files = dict(BASIC, graph_indicator=["1", "1", "1", "3", "3"], graph_labels=["1", "-1", "1"])
        directory = write_tu(tmp_path, "gap", **files)
        with pytest.raises(DatasetError, match="has no nodes"):
            load_tu_dataset(directory)

    def test_interleaved_ids_and_shuffled_rows(self, tmp_path):
        ds = load_tu_dataset(write_tu(tmp_path, "shuffled", **SHUFFLED))
        g0, g1, g2 = ds.graphs
        # local ids follow file order within each graph
        assert g0.adjacency == ((1, 2), (0, 2), (0, 1))
        assert [v.values for v in g0.node_attrs] == [(0, 0.5), (1, 2.5), (2, 5.5)]
        assert [(key, vec.values) for key, vec in g0.edge_attrs] == [
            ((0, 1), (0, 0.5)), ((0, 2), (1, -2.0)), ((1, 2), (0, 1.25))
        ]
        assert [v.values for v in g1.node_attrs] == [(0, 1.5), (1, 4.5)]
        assert g1.edge_attr_map[(0, 1)].values == (0, 0.75)
        assert [v.values for v in g2.node_attrs] == [(1, 3.5), (2, 6.5)]
        assert g2.edge_attr_map[(0, 1)].values == (1, 3.5)
        assert ds.labels == (1, 0, 1)
        save_tu_dataset(ds, tmp_path / "canonical", name="shuffled")
        back = load_tu_dataset(tmp_path / "canonical", name="shuffled")
        assert back.graphs == ds.graphs
        assert back.schema == ds.schema
        assert (back.labels, back.class_values) == (ds.labels, ds.class_values)
        assert canonical_digest(back) == canonical_digest(ds) == SHUFFLED_DIGEST

    def test_scrambled_files_load_as_relabelled_graphs(self, tmp_path):
        # node rows permuted across graphs and edge rows shuffled: each
        # graph must come back relabelled by the file order of its nodes
        schema = synth.mixed_schema(n_cat=1, n_num=1, edge_cat=1, edge_num=1)
        ds = synth.dataset_from_graphs(synth.random_graph_set(3, 12, schema), "s", schema)
        files = {path.name[2:-4]: path.read_text().splitlines()
                 for path in save_tu_dataset(ds, tmp_path / "canonical", name="s")}
        rng = np.random.default_rng(4)
        position = rng.permutation(len(files["graph_indicator"]))  # old node -> new row
        rows = rng.permutation(len(files["A"]))
        scrambled = {}
        for suffix, lines in files.items():
            if suffix in ("graph_indicator", "node_labels", "node_attributes"):
                lines = [lines[old] for old in np.argsort(position)]
            elif suffix == "A":
                ends = [map(int, line.split(",")) for line in lines]
                lines = [", ".join(str(position[e - 1] + 1) for e in ends[r]) for r in rows]
            elif suffix != "graph_labels":
                lines = [lines[r] for r in rows]
            scrambled[suffix] = lines
        loaded = load_tu_dataset(write_tu(tmp_path, "s", **scrambled))
        expected, first = [], 0
        for g in ds.graphs:
            rank = np.argsort(np.argsort(position[first:first + g.num_nodes]))
            expected.append(permute_graph(g, [int(r) for r in rank]))
            first += g.num_nodes
        relabelled = Dataset(name="s", schema=ds.schema, graphs=tuple(expected),
                             labels=ds.labels, class_values=ds.class_values)
        assert canonical_files(loaded) == canonical_files(relabelled)
        assert [g.adjacency for g in loaded.graphs] == [g.adjacency for g in expected]

    def test_stray_large_graph_id_rejected_without_allocating(self, tmp_path):
        # a table per graph id up to 10**12 would not fit in memory
        files = dict(BASIC, graph_indicator=["1", "1", "1", "1000000000000", "1000000000000"])
        directory = write_tu(tmp_path, "stray", **files)
        with pytest.raises(DatasetError, match="graph 2 has no nodes"):
            load_tu_dataset(directory)

    def test_label_count_mismatch(self, tmp_path):
        files = dict(BASIC, graph_labels=["1"])
        directory = write_tu(tmp_path, "labels", **files)
        with pytest.raises(DatasetError, match="graph labels"):
            load_tu_dataset(directory)


def load_error(tmp_path, name, **files) -> str:
    with pytest.raises(DatasetError) as info:
        load_tu_dataset(write_tu(tmp_path, name, **files))
    return str(info.value)


class TestTokenGrammar:
    """Fields are runs of non-separator characters between commas and
    whitespace; integers are ASCII decimal with an optional sign within
    int64, floats what `float` reads bar underscores and non-ASCII digits."""

    def test_loose_separators_crlf_and_plus_signs_are_accepted(self, tmp_path, basic_dir):
        files = dict(
            BASIC,
            A=["1,2", "2 1", " 2 ,3 ", "3\t2", "+4, +5", "5,,4"],
            graph_labels=["+1", "-1"],
            node_attributes=["0.5", "+1.5", "2.5e0", " 3.5", "4.50"],
        )
        directory = tmp_path / "loose"
        directory.mkdir()
        for suffix, lines in files.items():
            # CRLF line ends, and trailing blank lines, which are dropped
            text = "\r\n".join(lines + ["", "  "]) + "\r\n"
            (directory / f"loose_{suffix}.txt").write_bytes(text.encode())
        loose, basic = load_tu_dataset(directory), load_tu_dataset(basic_dir)
        assert loose.graphs == basic.graphs
        assert loose.digest == basic.digest

    @pytest.mark.parametrize("suffix", ("A", "graph_indicator", "node_attributes", "edge_labels"))
    @pytest.mark.parametrize("blank", ("", "  ", ", ,"))
    def test_blank_line_mid_file_is_rejected(self, tmp_path, suffix, blank):
        # np.loadtxt skips blank lines; the row count gives them away
        lines = list(FULL[suffix])
        lines.insert(2, blank)
        message = load_error(tmp_path, "blank", **dict(FULL, **{suffix: lines}))
        assert message == f"blank_{suffix}.txt:3: blank line"

    @pytest.mark.parametrize("token", ("1.0", "1e3", "1_000", "0x1", "٣", "- 1",
                                       str(2**63), str(-(2**63) - 1)))
    @pytest.mark.parametrize("suffix", ("A", "node_labels"))
    def test_integer_file_rejects_other_tokens(self, tmp_path, suffix, token):
        lines = list(BASIC[suffix])
        lines[2] = f"2, {token}" if suffix == "A" else token
        message = load_error(tmp_path, "int", **dict(BASIC, **{suffix: lines}))
        assert message == f"int_{suffix}.txt:3: non-integer token"

    def test_integer_labels_span_int64(self, tmp_path):
        labels = ["7", str(2**63 - 1), "7", str(-(2**63)), "-0"]
        ds = load_tu_dataset(write_tu(tmp_path, "wide", **dict(BASIC, node_labels=labels)))
        assert ds.schema.node_dims[0].categories == (7, 2**63 - 1, -(2**63), 0)

    @pytest.mark.parametrize("token", ("1_000.5", "0x1p3", "1.5e", "٣.5", "1d5"))
    def test_attribute_file_rejects_other_tokens(self, tmp_path, token):
        lines = list(BASIC["node_attributes"])
        lines[3] = token
        message = load_error(tmp_path, "num", **dict(BASIC, node_attributes=lines))
        assert message == "num_node_attributes.txt:4: non-numeric token"

    @pytest.mark.parametrize("token", ("nan", "-inf", "Infinity", "1e400"))
    @pytest.mark.parametrize("suffix", ("node_attributes", "edge_attributes"))
    def test_attribute_file_rejects_non_finite_values(self, tmp_path, suffix, token):
        lines = list(FULL[suffix])
        lines[2] = token
        message = load_error(tmp_path, "nonfinite", **dict(FULL, **{suffix: lines}))
        assert message == f"nonfinite_{suffix}.txt:3: non-finite attribute value"

    def test_first_bad_line_wins_across_kinds_of_fault(self, tmp_path):
        # line 2 has the wrong width, line 4 a bad token and line 5 is blank
        lines = ["0.5", "1.5, 2.5", "2.5", "x", "", "4.5"]
        message = load_error(tmp_path, "order", **dict(BASIC, node_attributes=lines))
        assert message == "order_node_attributes.txt:2: expected 1 fields, got 2"


class TestEdgeRowPrecedence:
    """The first faulty `_A.txt` row is reported, and a row with several
    faults reports the first of: range, self-loop, graph, duplicate. All
    row checks come before the mirror checks."""

    # BASIC without edge labels: graph 1 holds nodes 1-3, graph 2 nodes 4-5
    FILES = {k: v for k, v in BASIC.items() if k != "edge_labels"}

    def test_earliest_faulty_row_is_named(self, tmp_path):
        edges = ["1, 2", "2, 1", "3, 3", "2, 3", "9, 1", "3, 2"]
        message = load_error(tmp_path, "rows", **dict(self.FILES, A=edges))
        assert message == "rows_A.txt:3: self-loop on node 3"

    @pytest.mark.parametrize("row, what", [
        ("9, 9", "node id 9 out of range"),  # also a self-loop
        ("0, 9", "node id 0 out of range"),
        ("2, 9", "node id 9 out of range"),
        ("9, 2", "node id 9 out of range"),
        ("3, 3", "self-loop on node 3"),
        ("3, 4", "edge joins nodes of graphs 1 and 2"),
        ("2, 1", "duplicate edge row"),
    ])
    def test_row_with_several_faults_reports_the_first_check(self, tmp_path, row, what):
        edges = ["1, 2", "2, 1", row, "2, 3", "3, 2", "4, 5", "5, 4", "3, 4"]
        message = load_error(tmp_path, "row", **dict(self.FILES, A=edges))
        assert message == f"row_A.txt:3: {what}"

    def test_row_checks_come_before_mirror_checks(self, tmp_path):
        # row 1 lacks its mirror, but the self-loop on row 4 is reported
        edges = ["1, 2", "2, 3", "3, 2", "3, 3"]
        message = load_error(tmp_path, "loop", **dict(self.FILES, A=edges))
        assert message == "loop_A.txt:4: self-loop on node 3"

    def test_earliest_mirror_fault_is_named(self, tmp_path):
        missing_first = dict(
            BASIC, A=["1, 2", "2, 1", "2, 3", "4, 5", "5, 4"],
            edge_labels=["10", "10", "20", "30", "31"],
        )
        message = load_error(tmp_path, "missing", **missing_first)
        assert message == "graph 1: edge (1, 2) lacks its mirrored row"
        disagree_first = dict(
            BASIC, A=["1, 2", "2, 1", "4, 5", "5, 4", "3, 2"],
            edge_labels=["10", "11", "30", "30", "20"],
        )
        message = load_error(tmp_path, "disagree", **disagree_first)
        assert message == "graph 1: mirrored rows of edge (0, 1) disagree on attributes"


class TestRanges:
    def test_pooled_ranges(self, basic_dir):
        ds = compute_ranges(load_tu_dataset(basic_dir))
        num = ds.schema.node_dims[1]
        assert (num.range_min, num.range_max) == (0.5, 4.5)

    def test_subset_ranges(self, basic_dir):
        ds = load_tu_dataset(basic_dir)
        sub = compute_ranges(ds, graph_indices=[0])
        num = sub.schema.node_dims[1]
        assert (num.range_min, num.range_max) == (0.5, 2.5)

    def test_digest_stable_under_ranges(self, basic_dir):
        ds = load_tu_dataset(basic_dir)
        assert compute_ranges(ds).digest == ds.digest

    def test_ranges_keep_the_first_of_equal_ends_and_skip_empty_dimensions(self):
        schema = synth.mixed_schema(n_cat=0, n_num=2, edge_num=1, with_ranges=False)
        values = [(2, 5.0), (1.0, 5), (1, 2.5)]
        graph = AttributedGraph(
            graph_id=0, adjacency=((), (), ()),
            node_attrs=tuple(AttributeVector(v) for v in values), edge_attrs=(),
        )
        ds = synth.dataset_from_graphs([graph], "ends", schema, labels=[0])
        schema = compute_ranges(ds).schema
        (first, second), (edge,) = schema.node_dims, schema.edge_dims
        assert (first.range_min, first.range_max) == (1.0, 2)
        assert type(first.range_min) is float and type(second.range_max) is float
        assert (second.range_min, second.range_max) == (2.5, 5.0)
        assert edge.range is None

    @staticmethod
    def loop_ranges(ds, graph_indices=None):
        """Each numerical dimension's (min, max) by one comparison a value,
        the first of equal values kept; None where nothing was observed."""
        graphs = ds.graphs if graph_indices is None else [ds.graphs[i] for i in graph_indices]
        sides = [(ds.schema.node_dims, [g.node_attrs for g in graphs]),
                 (ds.schema.edge_dims, [[v for _, v in g.edge_attrs or ()] for g in graphs])]
        out = []
        for dims, vectors in sides:
            for k, dim in enumerate(dims):
                if dim.kind == CATEGORICAL:
                    continue
                low = high = None
                for vec in (v for vs in vectors for v in vs):
                    value = vec.values[k]
                    if low is None or value < low:
                        low = value
                    if high is None or value > high:
                        high = value
                out.append((low, high))
        return out

    @staticmethod
    def ends(ds):
        dims = ds.schema.node_dims + ds.schema.edge_dims
        return [(d.range_min, d.range_max) for d in dims if d.kind != CATEGORICAL]

    @pytest.mark.parametrize("graph_indices", [None, list(range(3, 120, 7))])
    def test_column_reductions_equal_a_loop_over_every_vector(self, graph_indices):
        ds = synth.wide_attribute_dataset(seed=11, count=120)
        ends = self.ends(compute_ranges(ds, graph_indices))
        expected = self.loop_ranges(ds, graph_indices)
        assert len(ends) == 18 and ends == expected
        assert [tuple(map(type, e)) for e in ends] == [tuple(map(type, e)) for e in expected]

    @pytest.mark.parametrize("column", [
        (2**53 + 1, 2.0**53, 2**53),  # ints beyond 2^53 round to the same float
        (0.0, -0.0, 3, 3.0),
        (1.5, float("nan"), -2.0),  # a NaN: the builtins over the whole column
        (True, 1, 0.5, False),
    ])
    def test_column_ends_are_the_loops_python_objects(self, column):
        schema = synth.mixed_schema(n_cat=1, n_num=1, with_ranges=False)
        graph = AttributedGraph(
            graph_id=0, adjacency=((),) * len(column),
            node_attrs=tuple(AttributeVector((0, v)) for v in column),
        )
        ds = synth.dataset_from_graphs([graph], "ends", schema, labels=[0])
        (low, high), = self.loop_ranges(ds)
        dim = compute_ranges(ds).schema.node_dims[1]
        assert (dim.range_min, dim.range_max) == (low, high)
        assert (type(dim.range_min), type(dim.range_max)) == (type(low), type(high))


class TestValidationReport:
    def test_report_contents(self, basic_dir):
        report = validate_dataset(compute_ranges(load_tu_dataset(basic_dir)))
        assert report["graphs"] == 2
        assert report["classes"] == 2
        assert report["class_histogram"] == {1: 1, -1: 1}
        assert report["nodes"] == 5
        assert report["edges"] == 3
        assert report["degree_min"] == 1
        assert report["degree_max"] == 2
        assert report["node_dims"][0]["cardinality"] == 2
        assert report["node_dims"][1]["range_min"] == 0.5
        assert len(report["digest"]) == 64

    def test_first_bad_vector_is_named(self):
        schema = AttributeSchema(
            node_dims=(DimensionSpec("c", "categorical", categories=(0, 1)),
                       DimensionSpec("x", "numerical", range_min=0.0, range_max=1.0)),
            edge_dims=(DimensionSpec("e", "categorical", categories=(0, 1)),),
        )

        def dataset(nodes, edges):
            graph = AttributedGraph(
                graph_id=0, adjacency=((1,), (0, 2), (1,)),
                node_attrs=tuple(map(AttributeVector, nodes)),
                edge_attrs=tuple(zip(((0, 1), (1, 2)), map(AttributeVector, edges))),
                label=0,
            )
            return Dataset(name="bad", schema=schema, graphs=(graph,), labels=(0,),
                           class_values=(0,))

        good_edges = ((0,), (1,))
        nodes = ((0, 0.5), (True, 0.5), (1, float("inf")))
        with pytest.raises(DatasetError, match=r"'c' needs a symbol id \(graph 0 node 1\)"):
            validate_dataset(dataset(nodes, good_edges))
        nodes = ((0, 0.5), (1, False), (2, 0.5))
        with pytest.raises(DatasetError, match=r"'x' needs a real value \(graph 0 node 1\)"):
            validate_dataset(dataset(nodes, good_edges))
        good_nodes = ((0, 0.5), (1, 0.5), (0, 0.25))
        bad_edge = r"symbol id 2 out of range for 'e' \(graph 0 edge \(0, 1\)\)"
        with pytest.raises(DatasetError, match=bad_edge):
            validate_dataset(dataset(good_nodes, ((2,), (True,))))
        assert validate_dataset(dataset(good_nodes, good_edges))["nodes"] == 3


class TestRoundTrip:
    def test_save_reload_preserves_everything(self, basic_dir, tmp_path):
        ds = load_tu_dataset(basic_dir)
        out = tmp_path / "copy"
        save_tu_dataset(ds, out)
        back = load_tu_dataset(out, name="basic")
        assert back.digest == ds.digest
        assert back.graphs == ds.graphs
        assert back.labels == ds.labels
        assert back.class_values == ds.class_values
        assert back.schema == ds.schema

    def test_digest_is_name_independent(self, basic_dir, tmp_path):
        ds = load_tu_dataset(basic_dir)
        out = tmp_path / "renamed"
        save_tu_dataset(ds, out, name="other")
        back = load_tu_dataset(out, name="other")
        assert back.digest == ds.digest

    def test_synthetic_benchmark_round_trip(self, tmp_path, bench_ds):
        out = tmp_path / "bench"
        save_tu_dataset(bench_ds, out)
        back = load_tu_dataset(out, name=bench_ds.name)
        assert back.digest == bench_ds.digest
        assert back.num_graphs == bench_ds.num_graphs
        assert back.labels == bench_ds.labels

    def test_wide_dataset_round_trip(self, tmp_path, wide_ds):
        out = tmp_path / "wide"
        save_tu_dataset(wide_ds, out)
        back = load_tu_dataset(out, name=wide_ds.name)
        assert back.digest == wide_ds.digest
        # reload interns categories by first appearance; the symbol set and
        # dimension kinds survive even if the interning order differs
        assert [d.kind for d in back.schema.node_dims] == [
            d.kind for d in wide_ds.schema.node_dims
        ]
        assert set(back.schema.node_dims[0].categories) == set(
            wide_ds.schema.node_dims[0].categories
        )

    def test_interleaved_dims_cannot_serialize(self):
        schema = AttributeSchema(
            node_dims=(
                DimensionSpec("x", "numerical"),
                DimensionSpec("c", "categorical", categories=(0, 1)),
            )
        )
        graph = synth.random_graph(
            np.random.default_rng(0),
            AttributeSchema(
                node_dims=(
                    synth.numerical_dim("x"),
                    synth.categorical_dim("c", 2),
                )
            ),
            graph_id=0,
        )
        ds = Dataset(
            name="bad", schema=schema, graphs=(graph,), labels=(0,), class_values=(0,)
        )
        with pytest.raises(DatasetError, match="categorical before numerical"):
            canonical_digest(ds)


# canonical digests and saved-file SHA-256s, frozen from the serializer as
# first written; Gram files carry the digest as their dataset provenance
PINNED = {
    "basic": (
        "d396bded664f730199ea4eba469eebba67189a989b365e3a3e0871bd7cb35575",
        {
            "A": "8cf30643380867666f1ec25c9e63b287d42b70b424a296f1a4d056be4413cd87",
            "graph_indicator": "d3586b4f79f08a4b88f1eebcf6529306414d24d6baf37af1593555f92bf37a7c",
            "graph_labels": "cf1f2f9e36e5c80e0d1b261dae4179a249ec8c1262224489288d266ea39aa6a4",
            "node_labels": "06f8394c6f15f08dae34f533c16d11466e7cc96d5e83ea430005a0f83d2463f8",
            "node_attributes": "9a1a977d8e24a0d10a561cd01dd778bbe4705ba437c60ec0d3c77c4ccae5c96f",
            "edge_labels": "34df060f138617cbaaaf43d90d4b642ee80b32d6802485cbdc49f201f3f7956f",
        },
    ),
    "bench2": (
        "8184bf665342b3948773f63b9394f1b79a074054caf20c96532241adfd894216",
        {
            "A": "729e9b1392b492287f1f482abf2911204c51c3970e833cc5dd32b904bb5e6f15",
            "graph_indicator": "bf5978fed2afd6b0afca06fbce1f52eae0be9e70af5668111ab40b2af2a56481",
            "graph_labels": "0e095c2d5ecea29a3d93c4fa12d552460a59060a1da2049317ddf3bf0746c27e",
            "node_labels": "aebbcc1b1b0c7889139004af733050fb81f88026d62c79a0b9203ffc2ab1d56f",
            "edge_labels": "234337697fde2d7c8be06857cad6c1fff09f7cb6a74cfefecc333d65618fa89f",
        },
    ),
    "wide6": (
        "b777463e317378f643bbcc30fcd530ca813a151b30774e7559ad599372d8e7a0",
        {
            "A": "6d5fe9870b3ae5b25a9a5b883f329769e3aa66bdbbe91bb31a14a3088e0ea5fa",
            "graph_indicator": "fd4faf3e099ffb0753059279134c13a3de894204019a3539063c8cd67f9be400",
            "graph_labels": "d751c041ccb5545a66f46ad6d59eabdabfc2c8b053ca189eb35c8409e28f36ed",
            "node_labels": "8b7e4ec681bcf4a1679d1e85565942108240b355abff72375c8219ba36ede44c",
            "node_attributes": "ece129948315ee589ca4541bae6520dcb5bc2f14e9867afcb11551b6e531f77d",
        },
    ),
}


# canonical digest of SHUFFLED, frozen like PINNED above
SHUFFLED_DIGEST = "69c30e0e67c87f4f01bf7f6bf80aa9ef75bac7d3516f45456489b8b6e37d7157"


class TestPinnedBytes:
    def test_digest_and_saved_files_are_frozen(self, tmp_path, basic_dir, bench_ds):
        datasets = {
            "basic": load_tu_dataset(basic_dir),
            "bench2": bench_ds,
            "wide6": synth.wide_attribute_dataset(seed=11, count=400),
        }
        for which, ds in datasets.items():
            digest, files = PINNED[which]
            assert canonical_digest(ds) == digest, which
            written = save_tu_dataset(ds, tmp_path / which, name="x")
            assert {
                path.name[2:-4]: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in written
            } == files, which


class TestDatasetInvariants:
    def test_label_and_graph_count_must_agree(self, cat_schema):
        g = synth.random_graph(np.random.default_rng(1),
                               AttributeSchema(node_dims=(synth.categorical_dim("nc0", 4),)),
                               graph_id=0)
        with pytest.raises(DatasetError):
            Dataset(name="x", schema=cat_schema, graphs=(g,), labels=(0, 1), class_values=(0, 1))

    def test_graph_label_must_match_dataset_labels(self, cat_schema):
        g = synth.random_graph(np.random.default_rng(2),
                               AttributeSchema(node_dims=(synth.categorical_dim("nc0", 4),)),
                               graph_id=0, label=1)
        with pytest.raises(DatasetError, match="disagrees"):
            Dataset(name="x", schema=cat_schema, graphs=(g,), labels=(0,), class_values=(0, 1))

    def test_class_values_must_be_sorted_unique(self, cat_schema):
        g = synth.random_graph(np.random.default_rng(3),
                               AttributeSchema(node_dims=(synth.categorical_dim("nc0", 4),)),
                               graph_id=0, label=0)
        with pytest.raises(DatasetError, match="sorted"):
            Dataset(name="x", schema=cat_schema, graphs=(g,), labels=(0,), class_values=(2, 1))
