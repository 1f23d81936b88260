"""The feature-map engine (all-categorical schemas at tau = 0) against the
loop oracles, and the rule that routes a schema to it."""

import numpy as np
import pytest

from nask.datasets import compute_ranges
from nask.expansion import ExpansionPlan, nask_kernel
from nask.gram import compute_gram
from nask.graph import (
    AttributedGraph,
    AttributeSchema,
    DimensionSpec,
    build_adjacency,
    permute_graph,
)
from nask.similarity import SimilarityParams
from nask.stars import MAX_FEATURES, KernelContext, graph_kernel_KS

import oracles
import synth
from oracles import OracleParams

GAMMAS = (0.1, 1.0, 10.0)
DEEPEST = 5
MODES = ("on", "off")


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def categorical_schema(node_cards=(3, 2), edge_cards=(2, 3)) -> AttributeSchema:
    """Two categorical node and two categorical edge dimensions, so the
    per-dimension 1/d scale of the similarity is exercised on both."""
    return AttributeSchema(
        node_dims=tuple(synth.categorical_dim(f"n{k}", c) for k, c in enumerate(node_cards)),
        edge_dims=tuple(synth.categorical_dim(f"e{k}", c) for k, c in enumerate(edge_cards)),
    )


def graph_set(schema, seed=41):
    """Connected graphs of 1-4 nodes plus edgeless 2- and 3-node graphs."""
    rng = np.random.default_rng(seed)
    graphs = [
        synth.random_graph(rng, schema, graph_id=i, min_nodes=n, max_nodes=n)
        for i, n in enumerate((1, 2, 3, 4, 4, 3, 1))
    ]
    for n in (2, 3):
        graphs.append(AttributedGraph(
            graph_id=len(graphs),
            adjacency=build_adjacency(n, []),
            node_attrs=tuple(synth.random_vector(rng, schema.node_dims) for _ in range(n)),
            edge_attrs=(),
        ))
    labels = [i % 2 for i in range(len(graphs))]
    return compute_ranges(synth.dataset_from_graphs(graphs, "cat9", schema, labels))


@pytest.fixture(scope="module")
def cat9():
    return graph_set(categorical_schema())


class TestRouting:
    def test_feature_map_needs_categorical_tables_and_tau_zero(self):
        schema = categorical_schema()
        assert KernelContext(schema).feature_weights is not None
        assert KernelContext(schema, edge_elements="off").feature_weights is not None
        assert KernelContext(schema, tau=0.3).feature_weights is None
        assert KernelContext(synth.mixed_schema(n_cat=2, n_num=1)).feature_weights is None
        numeric_edges = synth.mixed_schema(n_cat=1, n_num=0, edge_cat=1, edge_num=1)
        assert KernelContext(numeric_edges).feature_weights is None
        assert KernelContext(numeric_edges, edge_elements="off").feature_weights is not None
        untabled = AttributeSchema(node_dims=(DimensionSpec("c", "categorical"),))
        assert KernelContext(untabled).feature_weights is None

    def test_width_bound(self):
        # bench2: 7 node and 4 edge labels, r_n = 8 and r_e = 5
        bench2 = synth.benchmark_dataset(count=4).schema
        assert KernelContext(bench2).feature_weights.size == 8 * (8 + 5)
        widest = int(MAX_FEATURES ** 0.5) - 1  # r_n = widest + 1, r_n**2 <= MAX_FEATURES
        assert KernelContext(categorical_schema((widest,), ())).feature_weights is not None
        assert KernelContext(categorical_schema((widest + 1,), ())).feature_weights is None


class TestAgainstOracles:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_every_depth_matches_the_oracle(self, cat9, gamma, mode):
        ctx = KernelContext(cat9.schema, SimilarityParams(gamma=gamma), edge_elements=mode)
        assert ctx.feature_weights is not None
        params = OracleParams(schema=cat9.schema, gamma=gamma, use_edges=mode == "on")
        worst = 0.0
        for a, ga in enumerate(cat9.graphs):
            for gb in cat9.graphs[a:]:
                totals = ctx.pair_value(ga, gb, DEEPEST)
                worst = max(worst, rel_err(totals[0], oracles.oracle_KS(ga, gb, params)))
                for h in range(1, DEEPEST + 1):
                    want = oracles.oracle_NASK(ga, gb, h, params)
                    worst = max(worst, rel_err(totals[h - 1], want))
        assert worst <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_gram_entries_are_the_single_pair_values(self, cat9, gamma, mode):
        params = SimilarityParams(gamma=gamma)
        depths = tuple(range(1, DEEPEST + 1))
        grams = compute_gram(
            cat9, params, ExpansionPlan(max_depth=DEEPEST), edge_elements=mode, depths=depths
        )
        ctx = KernelContext(cat9.schema, params, edge_elements=mode)
        for i, ga in enumerate(cat9.graphs):
            for j, gb in enumerate(cat9.graphs):
                assert grams[1].values[i, j] == graph_kernel_KS(ga, gb, ctx)
                for h in depths:
                    assert grams[h].values[i, j] == nask_kernel(
                        ga, gb, ExpansionPlan(max_depth=h), ctx
                    )
        for h in depths[1:]:
            assert np.all(grams[h].values >= grams[h - 1].values)
        # the single-node and edgeless graphs gain nothing past their cap
        assert np.array_equal(grams[1].values[0], grams[DEEPEST].values[0])

    def test_packs_drop_their_levels_and_regrow_them(self, cat9):
        ga, gb = cat9.graphs[3], cat9.graphs[4]  # 4 nodes each
        pack = KernelContext(cat9.schema).register(ga)
        pack.features(DEEPEST)
        assert len(pack._balls) == 1 and pack._eincs.size == 0
        # depth 4 after depth 2 regrows levels 2..4 from the depth-1 ball
        ctx = KernelContext(cat9.schema)
        shallow = ctx.pair_value(ga, gb, 2)
        deep = ctx.pair_value(ga, gb, 4)
        assert shallow == deep[:2]
        fresh = KernelContext(cat9.schema).pair_value(ga, gb, 4)
        assert np.array(deep).tobytes() == np.array(fresh).tobytes()

    def test_relabelling_keeps_every_bit(self, cat9):
        rng = np.random.default_rng(5)
        permuted = [
            permute_graph(g, [int(v) for v in rng.permutation(g.num_nodes)])
            for g in cat9.graphs
        ]
        moved = synth.dataset_from_graphs(permuted, "cat9-permuted", cat9.schema, cat9.labels)
        plan = ExpansionPlan(max_depth=DEEPEST)
        for gamma in GAMMAS:
            params = SimilarityParams(gamma=gamma)
            before = compute_gram(cat9, params, plan).values
            assert before.tobytes() == compute_gram(moved, params, plan).values.tobytes()

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_indicator_engine_cases_still_match(self, gamma):
        # tau > 0 on the categorical schema, and a node cardinality too
        # wide for the feature bound
        wide = categorical_schema((MAX_FEATURES,), (2,))
        for schema, tau in ((categorical_schema(), 0.6), (wide, 0.0)):
            ds = graph_set(schema, seed=43)
            ctx = KernelContext(schema, SimilarityParams(gamma=gamma), tau=tau)
            assert ctx.feature_weights is None
            params = OracleParams(schema=schema, gamma=gamma, tau=tau)
            for a, ga in enumerate(ds.graphs):
                for gb in ds.graphs[a:]:
                    totals = ctx.pair_value(ga, gb, DEEPEST)
                    for h in (1, 3, DEEPEST):
                        want = oracles.oracle_NASK(ga, gb, h, params)
                        assert rel_err(totals[h - 1], want) <= 1e-12
