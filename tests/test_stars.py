"""Depth-1 star indicators and the star kernel against loop oracles."""

import itertools

import numpy as np
import pytest

from nask.errors import ConfigError, SchemaError
from nask.similarity import SimilarityParams
from nask.stars import KernelContext, graph_kernel_KS

import oracles
import synth
from conftest import graph_with, star_rows
from oracles import OracleParams

# one pair of identical single-edge graphs with matching categorical
# attributes: 2x2 star pairs, each star pair = 1 * (2 * 2) = 4, total 16
SINGLE_EDGE_PAIR_KS = 16.0


class TestExtraction:
    """Row v of the depth-1 indicators is the star at v."""

    def test_triangle_star_excludes_leaf_leaf_edge(self, triangle):
        schema, g = triangle
        pack = KernelContext(schema).register(g)
        # edge (1, 2) is not part of the star
        assert star_rows(pack, 1, 0) == ((0, 1, 2), ((0, 1), (0, 2)))

    def test_star_of_leaf(self, star_k13):
        schema, g = star_k13
        pack = KernelContext(schema).register(g)
        assert star_rows(pack, 1, 2) == ((0, 2), ((0, 2),))

    def test_star_of_hub(self, star_k13):
        schema, g = star_k13
        pack = KernelContext(schema).register(g)
        assert star_rows(pack, 1, 0) == ((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))

    def test_isolated_node_star(self, cat_schema):
        g = graph_with(0, 2, [], [(0,), (1,)])
        pack = KernelContext(cat_schema).register(g)
        assert star_rows(pack, 1, 0) == ((0,), ())

    def test_rows_are_the_stars_in_center_order(self, triangle):
        schema, g = triangle
        pack = KernelContext(schema).register(g)
        for v in range(g.num_nodes):
            ball, edges = oracles.ref_star(g, v)
            assert star_rows(pack, 1, v) == (tuple(sorted(ball)), tuple(sorted(edges)))

    def test_edge_elements_follow_the_mode(self, full_schema):
        edges = {(0, 1): (0, 0.5), (0, 2): (1, 0.5), (0, 3): (2, 0.5)}
        g = graph_with(0, 4, list(edges), [(0, 0.5)] * 4, edges)
        assert KernelContext(full_schema, edge_elements="on").register(g).edge_pack.count == 3
        assert KernelContext(full_schema, edge_elements="off").register(g).edge_pack is None


class TestContextValidation:
    def test_edge_mode_on_needs_edge_dims(self, cat_schema):
        with pytest.raises(SchemaError):
            KernelContext(cat_schema, edge_elements="on")

    def test_unknown_edge_mode(self, cat_schema):
        with pytest.raises(ConfigError):
            KernelContext(cat_schema, edge_elements="maybe")

    def test_tau_domain(self, cat_schema):
        with pytest.raises(ConfigError):
            KernelContext(cat_schema, tau=1.0)
        with pytest.raises(ConfigError):
            KernelContext(cat_schema, tau=-0.1)

    def test_pair_value_needs_a_positive_depth(self, single_edge_pair):
        schema, g0, g1 = single_edge_pair
        with pytest.raises(ConfigError, match="max_depth"):
            KernelContext(schema).pair_value(g0, g1, 0)

    @pytest.mark.parametrize("depth", [True, 2.5, 2.0, "2", None])
    @pytest.mark.parametrize("tau", [0.0, 0.5], ids=["feature-map", "indicator"])
    def test_pair_value_needs_an_integer_depth(self, single_edge_pair, depth, tau):
        # as ExpansionPlan does: a bool is not a depth, and no other type is cast
        schema, g0, g1 = single_edge_pair
        with pytest.raises(ConfigError, match="max_depth"):
            KernelContext(schema, tau=tau).pair_value(g0, g1, depth)

    @pytest.mark.parametrize("tau", [0.0, 0.5], ids=["feature-map", "indicator"])
    def test_pair_value_takes_numpy_integers(self, single_edge_pair, tau):
        schema, g0, g1 = single_edge_pair
        ctx = KernelContext(schema, tau=tau)
        want = ctx.pair_value(g0, g1, 3)
        for depth in (np.int64(3), np.int32(3), np.uint8(3)):
            assert ctx.pair_value(g0, g1, depth) == want

    def test_conflicting_graph_ids_rejected(self, cat_schema):
        ctx = KernelContext(cat_schema)
        ctx.register(graph_with(0, 2, [(0, 1)], [(0,), (0,)]))
        with pytest.raises(ConfigError):
            ctx.register(graph_with(0, 2, [(0, 1)], [(0,), (1,)]))

    def test_missing_edge_attrs_with_edges_on(self):
        schema = synth.mixed_schema(n_cat=1, edge_cat=1)
        g = graph_with(0, 2, [(0, 1)], [(0, ), (0, )])  # no edge attributes
        ctx = KernelContext(schema, edge_elements="on")
        with pytest.raises(SchemaError):
            ctx.register(g)


class TestRegisterValidation:
    """Attribute vectors are checked once, when a graph is registered. The
    float-in-categorical and wrong-length cases sit in test_similarity.py,
    beside the similarity semantics they protect."""

    def test_bool_in_numerical_dimension(self, mixed_node_schema):
        g = graph_with(0, 2, [(0, 1)], [(0, True), (0, 0.5)])
        with pytest.raises(SchemaError, match="real value"):
            KernelContext(mixed_node_schema).register(g)

    @pytest.mark.parametrize("bad", [(0,), (0.5, 0.5), (0, "x")])
    def test_malformed_edge_vector_with_edges_on(self, full_schema, bad):
        g = graph_with(0, 3, [(0, 1), (1, 2)], [(0, 0.5)] * 3, {(0, 1): (0, 0.5), (1, 2): bad})
        with pytest.raises(SchemaError, match="edge 1"):
            KernelContext(full_schema, edge_elements="on").register(g)


class TestStarPairKernel:
    def test_single_edge_pair_value(self, single_edge_pair):
        schema, g0, g1 = single_edge_pair
        ctx = KernelContext(schema, SimilarityParams(gamma=1.0))
        assert graph_kernel_KS(g0, g1, ctx) == SINGLE_EDGE_PAIR_KS

    def test_graph_kernel_matches_oracle_without_edge_attrs(self, mixed_node_schema):
        rng = np.random.default_rng(12)
        graphs = [
            synth.random_graph(rng, mixed_node_schema, graph_id=i, min_nodes=2, max_nodes=10)
            for i in range(4)
        ]
        for gamma in (0.1, 1.0, 10.0):
            ctx = KernelContext(mixed_node_schema, SimilarityParams(gamma=gamma))
            params = OracleParams(mixed_node_schema, gamma=gamma)
            for ga, gb in itertools.combinations_with_replacement(graphs, 2):
                assert graph_kernel_KS(ga, gb, ctx) == pytest.approx(
                    oracles.oracle_KS(ga, gb, params), rel=1e-12
                )

    def test_graph_kernel_matches_oracle_with_edge_attrs(self, full_schema):
        rng = np.random.default_rng(13)
        graphs = [
            synth.random_graph(rng, full_schema, graph_id=i, min_nodes=2, max_nodes=9)
            for i in range(4)
        ]
        ctx = KernelContext(full_schema, SimilarityParams(gamma=2.0))
        params = OracleParams(full_schema, gamma=2.0)
        for ga, gb in itertools.combinations_with_replacement(graphs, 2):
            assert graph_kernel_KS(ga, gb, ctx) == pytest.approx(
                oracles.oracle_KS(ga, gb, params), rel=1e-12
            )

    def test_edge_mode_off_ignores_edge_attrs(self, full_schema):
        rng = np.random.default_rng(14)
        ga = synth.random_graph(rng, full_schema, graph_id=0, min_nodes=3, max_nodes=7)
        gb = synth.random_graph(rng, full_schema, graph_id=1, min_nodes=3, max_nodes=7)
        ctx_off = KernelContext(full_schema, edge_elements="off")
        params = OracleParams(full_schema, gamma=1.0, use_edges=False)
        assert graph_kernel_KS(ga, gb, ctx_off) == pytest.approx(
            oracles.oracle_KS(ga, gb, params), rel=1e-12
        )

    def test_tau_prunes_star_pairs(self, mixed_node_schema):
        rng = np.random.default_rng(15)
        ga = synth.random_graph(rng, mixed_node_schema, graph_id=0, min_nodes=4, max_nodes=8)
        gb = synth.random_graph(rng, mixed_node_schema, graph_id=1, min_nodes=4, max_nodes=8)
        for tau in (0.5, 0.8):
            ctx = KernelContext(mixed_node_schema, tau=tau)
            params = OracleParams(mixed_node_schema, gamma=1.0, tau=tau)
            assert graph_kernel_KS(ga, gb, ctx) == pytest.approx(
                oracles.oracle_KS(ga, gb, params), rel=1e-12
            )

    def test_tau_never_increases_the_value(self, mixed_node_schema):
        rng = np.random.default_rng(16)
        ga = synth.random_graph(rng, mixed_node_schema, graph_id=0, min_nodes=4, max_nodes=8)
        gb = synth.random_graph(rng, mixed_node_schema, graph_id=1, min_nodes=4, max_nodes=8)
        base = graph_kernel_KS(ga, gb, KernelContext(mixed_node_schema))
        previous = base
        for tau in (0.3, 0.5, 0.7, 0.9):
            pruned = graph_kernel_KS(ga, gb, KernelContext(mixed_node_schema, tau=tau))
            assert pruned <= previous + 1e-12
            previous = pruned

    def test_symmetry(self, full_schema):
        rng = np.random.default_rng(17)
        ga = synth.random_graph(rng, full_schema, graph_id=0, min_nodes=3, max_nodes=9)
        gb = synth.random_graph(rng, full_schema, graph_id=1, min_nodes=3, max_nodes=9)
        ctx = KernelContext(full_schema)
        assert graph_kernel_KS(ga, gb, ctx) == pytest.approx(
            graph_kernel_KS(gb, ga, ctx), rel=1e-15
        )
