"""Graph model construction, validation, and permutation."""

import pickle
import re

import numpy as np
import pytest

from nask.errors import SchemaError
from nask.graph import (
    AttributedGraph,
    AttributeVector,
    DimensionSpec,
    build_adjacency,
    canonical_edge,
    make_edge_attrs,
    neighbors,
    permute_graph,
)

import synth
from conftest import graph_with


class TestDimensionSpec:
    def test_categorical_cannot_carry_range(self):
        with pytest.raises(SchemaError):
            DimensionSpec("d", "categorical", range_min=0.0, range_max=1.0, categories=(0,))

    def test_numerical_cannot_carry_categories(self):
        with pytest.raises(SchemaError):
            DimensionSpec("d", "numerical", categories=(0, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            DimensionSpec("d", "ordinal")

    def test_inverted_range_rejected(self):
        with pytest.raises(SchemaError):
            DimensionSpec("d", "numerical", range_min=2.0, range_max=1.0)

    def test_range_width(self):
        dim = DimensionSpec("d", "numerical", range_min=-1.5, range_max=2.5)
        assert dim.range == 4.0
        assert DimensionSpec("d", "numerical").range is None


class TestConstruction:
    def test_canonical_edge_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)
        with pytest.raises(SchemaError):
            canonical_edge(3, 3)

    def test_build_adjacency_sorted_and_symmetric(self):
        adj = build_adjacency(4, [(2, 0), (1, 2), (3, 2)])
        assert adj == ((2,), (2,), (0, 1, 3), (2,))

    def test_build_adjacency_rejects_self_loop(self):
        with pytest.raises(SchemaError):
            build_adjacency(3, [(1, 1)])

    def test_build_adjacency_rejects_out_of_range(self):
        with pytest.raises(SchemaError):
            build_adjacency(2, [(0, 2)])

    def test_attribute_vector_has_slots_and_pickles(self):
        vec = AttributeVector((2, 0.25))
        assert not hasattr(vec, "__dict__")
        copy = pickle.loads(pickle.dumps(vec))
        assert copy == vec and hash(copy) == hash(vec)
        assert copy.values == (2, 0.25)

    def test_neighbors(self):
        g = graph_with(0, 3, [(0, 1), (1, 2)], [(0,), (0,), (0,)])
        assert neighbors(g, 1) == (0, 2)
        with pytest.raises(SchemaError):
            neighbors(g, 3)

    def test_attr_count_must_match_nodes(self):
        with pytest.raises(SchemaError):
            graph_with(0, 3, [(0, 1)], [(0,), (0,)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(SchemaError):
            AttributedGraph(
                graph_id=0,
                adjacency=((1,), ()),
                node_attrs=(AttributeVector((0,)), AttributeVector((0,))),
            )

    @pytest.mark.parametrize(("adjacency", "message"), [
        (((2, 3), (), (0,), ()), "3 missing neighbor 0"),
        (((), (), (0,), ()), "0 missing neighbor 2"),
        (((3,), (), (1,), ()), "3 missing neighbor 0"),
        (((3,), (2,), (), ()), "3 missing neighbor 0"),
    ])
    def test_asymmetry_names_the_first_missing_mirror(self, adjacency, message):
        with pytest.raises(SchemaError, match=message):
            AttributedGraph(graph_id=0, adjacency=adjacency,
                            node_attrs=tuple(AttributeVector((0,)) for _ in adjacency))

    def test_asymmetry_check_matches_the_pair_set(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            arcs = {(v, u) for v in range(n) for u in range(n) if v != u and rng.random() < 0.4}
            adjacency = tuple(tuple(sorted(u for w, u in arcs if w == v)) for v in range(n))
            attrs = tuple(AttributeVector((0,)) for _ in range(n))
            if all((u, v) in arcs for v, u in arcs):
                AttributedGraph(graph_id=0, adjacency=adjacency, node_attrs=attrs)
                continue
            with pytest.raises(SchemaError) as err:
                AttributedGraph(graph_id=0, adjacency=adjacency, node_attrs=attrs)
            found = re.search(r"(\d+) missing neighbor (\d+)", str(err.value))
            node, neighbor = map(int, found.groups())
            assert (neighbor, node) in arcs and (node, neighbor) not in arcs

    def test_unsorted_adjacency_rejected(self):
        with pytest.raises(SchemaError):
            AttributedGraph(
                graph_id=0,
                adjacency=((2, 1), (0,), (0,)),
                node_attrs=tuple(AttributeVector((0,)) for _ in range(3)),
            )

    def test_edge_attrs_must_cover_edges_exactly(self):
        with pytest.raises(SchemaError):
            graph_with(0, 3, [(0, 1), (1, 2)], [(0,)] * 3, edge_values={(0, 1): (0,)})
        with pytest.raises(SchemaError):
            graph_with(
                0, 3, [(0, 1)], [(0,)] * 3,
                edge_values={(0, 1): (0,), (0, 2): (1,)},  # (0,2) is not an edge
            )

    def test_edges_are_canonical_and_sorted(self):
        g = graph_with(0, 4, [(3, 1), (0, 2), (1, 0)], [(0,)] * 4)
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert g.num_edges == 3

    def test_make_edge_attrs_canonicalizes_keys(self):
        attrs = make_edge_attrs({(2, 0): AttributeVector((1,))})
        assert attrs[0][0] == (0, 2)


class TestPermutation:
    def test_permute_moves_attributes_with_nodes(self):
        g = graph_with(
            0, 3, [(0, 1), (1, 2)],
            [(0, 0.1), (1, 0.5), (2, 0.9)],
            edge_values={(0, 1): (0,), (1, 2): (1,)},
        )
        perm = [2, 0, 1]  # old id v -> perm[v]
        p = permute_graph(g, perm)
        # old node 0 (attrs (0, 0.1)) is now node 2
        assert p.node_attrs[2].values == (0, 0.1)
        assert p.node_attrs[0].values == (1, 0.5)
        # old edge (0,1) becomes (2,0) -> canonical (0,2)
        assert p.edge_attr_map[(0, 2)].values == (0,)
        assert p.edge_attr_map[(0, 1)].values == (1,)
        assert p.edges == ((0, 1), (0, 2))

    def test_permute_rejects_non_permutation(self):
        g = graph_with(0, 2, [(0, 1)], [(0,), (1,)])
        with pytest.raises(SchemaError):
            permute_graph(g, [0, 0])

    def test_inverse_permutation_round_trip(self):
        rng = np.random.default_rng(3)
        schema = synth.mixed_schema(n_cat=1, n_num=2, edge_cat=1)
        g = synth.random_graph(rng, schema, graph_id=0, min_nodes=6, max_nodes=10)
        perm = [int(v) for v in rng.permutation(g.num_nodes)]
        inverse = [0] * g.num_nodes
        for old, new in enumerate(perm):
            inverse[new] = old
        assert permute_graph(permute_graph(g, perm), inverse) == g

    def test_degree_multiset_preserved(self):
        rng = np.random.default_rng(4)
        schema = synth.mixed_schema()
        g = synth.random_graph(rng, schema, graph_id=0, min_nodes=5, max_nodes=12)
        perm = [int(v) for v in rng.permutation(g.num_nodes)]
        p = permute_graph(g, perm)
        assert sorted(len(a) for a in g.adjacency) == sorted(len(a) for a in p.adjacency)
