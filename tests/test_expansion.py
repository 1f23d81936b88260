"""Neighborhood growth and the depth-summed kernel against loop oracles."""

import itertools

import numpy as np
import pytest

from nask import stars
from nask.datasets import compute_ranges
from nask.errors import ConfigError
from nask.expansion import ExpansionPlan, nask_kernel
from nask.graph import AttributedGraph, AttributeSchema, build_adjacency
from nask.similarity import SimilarityParams
from nask.stars import KernelContext, graph_kernel_KS

import oracles
import synth
from conftest import graph_with, star_rows
from oracles import OracleParams

# identical 2-node single-edge pair: the depth-2 family equals the depth-1
# family (the ball saturates), so H=2 doubles the depth-1 value of 16
SINGLE_EDGE_PAIR_H2 = 32.0


class TestExpandStar:
    """Row v of the depth-h indicators is the depth-h star at v."""

    def test_path_expansion_step(self, cat_schema):
        g = graph_with(0, 5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(0,)] * 5)
        pack = KernelContext(cat_schema).register(g)
        assert star_rows(pack, 1, 0) == ((0, 1), ((0, 1),))
        assert star_rows(pack, 2, 0) == ((0, 1, 2), ((0, 1), (1, 2)))
        assert star_rows(pack, 3, 0) == ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))

    def test_expansion_adds_leaf_leaf_edges_inside_ball(self, triangle):
        schema, g = triangle
        pack = KernelContext(schema).register(g)
        assert star_rows(pack, 1, 0) == ((0, 1, 2), ((0, 1), (0, 2)))
        # the leaf-leaf edge (1,2) has an endpoint in the old ball
        assert star_rows(pack, 2, 0) == ((0, 1, 2), ((0, 1), (0, 2), (1, 2)))

    def test_expansion_saturates(self, cat_schema):
        g = graph_with(0, 3, [(0, 1), (1, 2)], [(0,)] * 3)
        pack = KernelContext(cat_schema).register(g)
        ball3, einc3 = pack.family(3)
        ball5, einc5 = pack.family(5)
        assert np.array_equal(ball5, ball3)
        assert np.array_equal(einc5, einc3)

    def test_family_depths(self, cat_schema):
        g = graph_with(0, 4, [(0, 1), (1, 2), (2, 3)], [(0,)] * 4)
        pack = KernelContext(cat_schema).register(g)
        for v, ball, edges in oracles.ref_family(g, 3):
            assert star_rows(pack, 3, v) == (tuple(sorted(ball)), tuple(sorted(edges)))
        with pytest.raises(ConfigError):
            pack.family(0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_edgeless_pack_saturates_at_depth_one(self, cat_schema, n):
        pack = KernelContext(cat_schema).register(graph_with(0, n, [], [(0,)] * n))
        ball1, einc1 = pack.family(1)
        for depth in range(1, 5):
            ball, einc = pack.family(depth)
            assert np.array_equal(ball, ball1) and np.array_equal(einc, einc1)
        assert np.array_equal(ball1, np.eye(n)) and einc1.shape == (n, 0)
        assert len(pack._balls) == 1


def oracle_edge_rows(g, schema, family):
    """The edge rows the oracle's stars imply: with every edge dimension
    categorical, each star's edge count and its symbol counts per
    dimension; otherwise each star's 0/1 edge indicator."""
    if all(d.kind == "categorical" for d in schema.edge_dims):
        offsets = np.cumsum([1] + [len(d.categories) for d in schema.edge_dims])
        rows = np.zeros((g.num_nodes, offsets[-1]))
        for v, _, edges in family:
            rows[v, 0] = len(edges)
            for e in edges:
                for k, symbol in enumerate(g.edge_attr_map[e].values):
                    rows[v, offsets[k] + symbol] += 1.0
        return rows
    index = {e: i for i, e in enumerate(g.edges)}
    rows = np.zeros((g.num_nodes, g.num_edges))
    for v, _, edges in family:
        rows[v, [index[e] for e in edges]] = 1.0
    return rows


class TestMatrixFamilyAgreement:
    @pytest.mark.parametrize("edge_num,mode", [(1, "auto"), (0, "auto"), (1, "off")],
                             ids=["numerical-edges", "categorical-edges", "edges-off"])
    def test_indicators_match_object_families(self, edge_num, mode):
        # a numerical edge dimension keeps the edge indicators E_h as edge
        # rows, categorical edges alone the label counts C_h = E_h Oe, and
        # edge elements off keep none; E_h is read off the balls either way
        schema = synth.mixed_schema(n_cat=1, n_num=1, edge_cat=1, edge_num=edge_num)
        ctx = KernelContext(schema, edge_elements=mode)
        # the oracle grows each star as a Python set, one hop at a time
        rng = np.random.default_rng(21)
        graphs = [synth.random_graph(rng, schema, graph_id=trial, min_nodes=2, max_nodes=12)
                  for trial in range(6)]
        # a triangle: every ball is full at depth 1, and the leaf-leaf edge
        # joins each star at depth 2
        labels = {e: synth.random_vector(rng, schema.edge_dims).values
                  for e in ((0, 1), (1, 2), (0, 2))}
        graphs.append(graph_with(6, 3, list(labels), [(0, 0.5)] * 3, labels))
        for g in graphs:
            pack = ctx.register(g)
            for depth in range(1, 6):
                family = oracles.ref_family(g, depth)
                for v, ball, edges in family:
                    rows = (tuple(sorted(ball)), tuple(sorted(edges)))
                    assert star_rows(pack, depth, v) == rows
                if mode == "auto":
                    want = oracle_edge_rows(g, schema, family)
                    assert np.array_equal(pack.edge_rows(depth), want)
            if mode == "off":
                assert pack.edge_pack is None and pack._eincs == []


class TestNaskKernel:
    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            ExpansionPlan(max_depth=0)

    def test_plan_depth_must_be_an_integer_not_a_bool(self):
        for bad in (True, 2.0, np.True_):
            with pytest.raises(ConfigError, match="max_depth"):
                ExpansionPlan(max_depth=bad)
        depth = ExpansionPlan(max_depth=np.int64(3)).max_depth
        assert depth == 3 and type(depth) is int

    def test_single_edge_pair_depth_two(self, single_edge_pair):
        schema, g0, g1 = single_edge_pair
        ctx = KernelContext(schema, SimilarityParams(gamma=1.0))
        assert nask_kernel(g0, g1, ExpansionPlan(max_depth=2), ctx) == SINGLE_EDGE_PAIR_H2
        # the cap min(H, |V|, |V'|) = 2 freezes the value for deeper budgets
        assert nask_kernel(g0, g1, ExpansionPlan(max_depth=4), ctx) == SINGLE_EDGE_PAIR_H2

    def test_depth_one_is_bit_identical_to_star_kernel(self, full_schema):
        rng = np.random.default_rng(23)
        graphs = [
            synth.random_graph(rng, full_schema, graph_id=i, min_nodes=2, max_nodes=15)
            for i in range(12)
        ]
        ctx = KernelContext(full_schema)
        plan = ExpansionPlan(max_depth=1)
        for ga, gb in itertools.combinations_with_replacement(graphs, 2):
            assert nask_kernel(ga, gb, plan, ctx) == graph_kernel_KS(ga, gb, ctx)

    def test_matches_oracle_at_all_depths(self, full_schema):
        rng = np.random.default_rng(24)
        graphs = [
            synth.random_graph(rng, full_schema, graph_id=i, min_nodes=2, max_nodes=10)
            for i in range(4)
        ]
        ctx = KernelContext(full_schema, SimilarityParams(gamma=1.0))
        params = OracleParams(full_schema, gamma=1.0)
        for H in (1, 2, 3, 4):
            plan = ExpansionPlan(max_depth=H)
            for ga, gb in itertools.combinations_with_replacement(graphs, 2):
                assert nask_kernel(ga, gb, plan, ctx) == pytest.approx(
                    oracles.oracle_NASK(ga, gb, H, params), rel=1e-12
                )

    def test_monotone_in_depth_entrywise(self, mixed_node_schema):
        rng = np.random.default_rng(25)
        graphs = [
            synth.random_graph(rng, mixed_node_schema, graph_id=i, min_nodes=2, max_nodes=12)
            for i in range(8)
        ]
        ctx = KernelContext(mixed_node_schema)
        for ga, gb in itertools.combinations_with_replacement(graphs, 2):
            previous = 0.0
            for H in (1, 2, 3, 4, 5):
                value = nask_kernel(ga, gb, ExpansionPlan(max_depth=H), ctx)
                assert value >= previous  # exact: each depth adds a nonnegative term
                previous = value

    def test_depth_cap_uses_smaller_graph(self, cat_schema):
        # one 2-node graph against a long path: depths beyond 2 add nothing
        g0 = graph_with(0, 2, [(0, 1)], [(0,)] * 2)
        g1 = graph_with(1, 6, [(i, i + 1) for i in range(5)], [(0,)] * 6)
        ctx = KernelContext(cat_schema)
        at_two = nask_kernel(g0, g1, ExpansionPlan(max_depth=2), ctx)
        at_five = nask_kernel(g0, g1, ExpansionPlan(max_depth=5), ctx)
        assert at_two == at_five

    def test_pair_value_gives_every_running_total(self, cat_schema):
        g0 = graph_with(0, 2, [(0, 1)], [(0,)] * 2)
        g1 = graph_with(1, 6, [(i, i + 1) for i in range(5)], [(0,)] * 6)
        ctx = KernelContext(cat_schema)
        totals = ctx.pair_value(g0, g1, 5)
        assert totals == [
            nask_kernel(g0, g1, ExpansionPlan(max_depth=h), ctx) for h in range(1, 6)
        ]
        assert totals[2:] == [totals[1]] * 3  # capped at |V0| = 2

    def test_single_node_graph_against_path_matches_oracle(self, cat_schema):
        g0 = graph_with(0, 1, [], [(1,)])
        g1 = graph_with(1, 5, [(i, i + 1) for i in range(4)], [(0,), (1,), (2,), (1,), (3,)])
        ctx = KernelContext(cat_schema, SimilarityParams(gamma=1.0))
        params = OracleParams(cat_schema, gamma=1.0)
        for ga, gb in ((g0, g1), (g1, g0), (g0, g0)):
            assert nask_kernel(ga, gb, ExpansionPlan(max_depth=4), ctx) == pytest.approx(
                oracles.oracle_NASK(ga, gb, 4, params), rel=1e-12
            )

    def test_permutation_invariance(self, full_schema):
        from nask.graph import permute_graph

        rng = np.random.default_rng(27)
        ga = synth.random_graph(rng, full_schema, graph_id=0, min_nodes=4, max_nodes=12)
        gb = synth.random_graph(rng, full_schema, graph_id=1, min_nodes=4, max_nodes=12)
        base = nask_kernel(ga, gb, ExpansionPlan(max_depth=3), KernelContext(full_schema))
        for trial in range(5):
            perm = [int(v) for v in rng.permutation(ga.num_nodes)]
            pa = permute_graph(ga, perm)
            value = nask_kernel(pa, gb, ExpansionPlan(max_depth=3), KernelContext(full_schema))
            assert value == pytest.approx(base, rel=1e-12)


def counted_set(edge_cat: int, seed: int = 51):
    """Numerical node dimensions and edge_cat categorical edge dimensions:
    connected graphs of 1-5 nodes plus edgeless 2- and 3-node graphs."""
    schema = synth.mixed_schema(n_cat=0, n_num=2, edge_cat=edge_cat, cat_card=3)
    rng = np.random.default_rng(seed)
    graphs = [
        synth.random_graph(rng, schema, graph_id=i, min_nodes=n, max_nodes=n)
        for i, n in enumerate((1, 2, 3, 4, 5, 5))
    ]
    for n in (2, 3):
        graphs.append(AttributedGraph(
            graph_id=len(graphs),
            adjacency=build_adjacency(n, []),
            node_attrs=tuple(synth.random_vector(rng, schema.node_dims) for _ in range(n)),
            edge_attrs=(),
            label=0,
        ))
    return compute_ranges(synth.dataset_from_graphs(graphs, f"counted{edge_cat}", schema))


class TestEdgeLabelCounts:
    """All-categorical edge labels enter the indicator engine as per-star
    label counts C_h = E_h Oe, whatever the node dimensions."""

    def test_routing(self):
        counted = synth.mixed_schema(n_cat=0, n_num=2, edge_cat=2)
        assert KernelContext(counted).edge_weights is not None
        assert KernelContext(counted, tau=0.5).edge_weights is not None
        assert KernelContext(counted, edge_elements="off").edge_weights is None
        # a numerical edge dimension stays dense
        numeric_edges = synth.mixed_schema(n_cat=0, n_num=2, edge_cat=1, edge_num=1)
        assert KernelContext(numeric_edges).edge_weights is None
        # the feature map takes its own edge counts
        categorical = synth.mixed_schema(n_cat=1, n_num=0, edge_cat=1)
        assert KernelContext(categorical).edge_weights is None
        assert KernelContext(categorical, tau=0.5).edge_weights is not None

        # r_e = 1 + the edge symbol count, with no bound on the symbol count
        wide = AttributeSchema(node_dims=(synth.numerical_dim("x"),),
                               edge_dims=(synth.categorical_dim("e", 200),))
        assert KernelContext(wide).edge_weights.size == 201

    @pytest.mark.parametrize("mode", ["on", "off"])
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("edge_cat", [1, 2])
    def test_every_depth_matches_the_oracle(self, edge_cat, gamma, tau, mode):
        ds = counted_set(edge_cat)
        ctx = KernelContext(ds.schema, SimilarityParams(gamma=gamma), tau=tau, edge_elements=mode)
        assert (ctx.edge_weights is not None) == (mode == "on")
        params = OracleParams(ds.schema, gamma=gamma, tau=tau, use_edges=mode == "on")
        worst = 0.0
        for a, ga in enumerate(ds.graphs):
            for gb in ds.graphs[a:]:
                totals = ctx.pair_value(ga, gb, 5)
                for h in range(1, 6):
                    want = oracles.oracle_NASK(ga, gb, h, params)
                    worst = max(worst, abs(totals[h - 1] - want) / max(abs(want), 1e-300))
        assert worst <= 1e-12

    @pytest.mark.parametrize("edge_num,edge_calls", [(0, 0), (1, 1)])
    def test_counts_replace_the_edge_similarity(self, monkeypatch, edge_num, edge_calls):
        schema = synth.mixed_schema(n_cat=0, n_num=2, edge_cat=1, edge_num=edge_num)
        rng = np.random.default_rng(52)
        ga, gb = (synth.random_graph(rng, schema, graph_id=i, min_nodes=4, max_nodes=8)
                  for i in range(2))
        ctx = KernelContext(schema)
        packs = [ctx.register(ga), ctx.register(gb)]
        calls = []
        similarity = stars.similarity_matrix

        def spy(a, b, p):
            calls.append(a is packs[0].edge_pack)
            return similarity(a, b, p)

        monkeypatch.setattr(stars, "similarity_matrix", spy)
        ctx.pair_value(ga, gb, 3)
        assert calls == [False] + [True] * edge_calls

    def test_counted_pack_adds_edges_inside_a_saturated_ball(self):
        schema = synth.mixed_schema(n_cat=0, n_num=1, edge_cat=1)
        edges = {(0, 1): (0,), (1, 2): (1,), (0, 2): (1,)}
        g = graph_with(0, 3, list(edges), [(0.1,), (0.5,), (0.9,)], edges)
        pack = KernelContext(schema).register(g)
        # the ball at 0 is full at depth 1; the leaf-leaf edge joins at depth 2
        assert star_rows(pack, 2, 0) == ((0, 1, 2), ((0, 1), (0, 2), (1, 2)))
        assert pack.edge_rows(1)[0].tolist() == [2.0, 1.0, 1.0, 0.0, 0.0]
        assert pack.edge_rows(2)[0].tolist() == [3.0, 1.0, 2.0, 0.0, 0.0]
        assert np.array_equal(pack.edge_rows(5), pack.edge_rows(2))
        assert len(pack._balls) == 2
