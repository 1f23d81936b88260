"""Gram computation, normalization, PSD verdicts, and the file format."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nask import stars
from nask.datasets import compute_ranges
from nask.errors import (
    ConfigError,
    DatasetError,
    GramComputeError,
    GramFormatError,
    InvalidGramError,
)
from nask.expansion import ExpansionPlan, nask_kernel
from nask.gram import (
    GramMatrix,
    GramMeta,
    check_psd,
    compute_gram,
    export_gram,
    import_gram,
    normalize_gram,
)
from nask.similarity import SimilarityParams
from nask.stars import KernelContext

import oracles
import synth

# eigenvalues of [[1, 1.5], [1.5, 1]] are 1 +/- 1.5
INDEFINITE = np.array([[1.0, 1.5], [1.5, 1.0]])

# run in a fresh interpreter, so the BLAS thread count comes from the environment;
# argv holds the directories to import nask, synth and this module from; one
# bench2 digest per --threads value, then every pinned Gram's digest by name
BLAS_DIGESTS = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
import nask, synth, test_gram
ds = nask.compute_ranges(synth.benchmark_dataset())
for threads in (1, 2, 3):
    gram = nask.compute_gram(ds, plan=nask.ExpansionPlan(max_depth=4), threads=threads)
    print(hashlib.sha256(gram.values.tobytes()).hexdigest())
for name in sorted(test_gram.PINNED_GRAM_SHA256):
    print(test_gram.sha256(test_gram.pinned_gram(name)))
"""

# SHA-256 of compute_gram(...).values.tobytes(), frozen so that an engine
# rewrite must keep every bit. bench2 (all categorical, tau = 0) is on the
# feature map; the others are on the indicator engine, numedge30 the one
# with a numerical edge dimension, with edge elements on and off.
PINNED_GRAM_SHA256 = {
    "bench2-H4": "9c2e17db17df62b06b8b426e02f77ab0ce9f52142d504bb28cec94809b763fbc",
    "wide6-200-H4": "ed9693a1b5140544dcd1d40a581c7475b4fa6c846adc21626ab91420c9e02802",
    "large-H3-tau0.6": "8229e51a8c0b5a41bc06370fceb2a6eb4cf89999e74927896d4033cbc2acaf7d",
    "numedge30-H4": "6cd57921125f58efb357851af6312d4171cb878a70619cb91420240b51706284",
    "numedge30-H4-off": "48e33a76634771c891c6fcac6d990423a19b9256dd2974bceabaa2c2be271e0d",
}


def large_dataset():
    """Twelve graphs of 100-300 nodes with categorical edge labels."""
    schema = synth.mixed_schema(n_cat=1, n_num=2, edge_cat=1, cat_card=5)
    graphs = synth.random_graph_set(9, 12, schema, min_nodes=100, max_nodes=300)
    return compute_ranges(synth.dataset_from_graphs(graphs, "large12", schema))


def tiny_dataset():
    """Six graphs of 1-4 nodes, two of them single-node: at H=5 every pair
    is capped by a graph order, so its running total repeats."""
    schema = synth.mixed_schema(n_cat=1, n_num=1, edge_cat=1)
    rng = np.random.default_rng(13)
    graphs = [
        synth.random_graph(rng, schema, graph_id=i, min_nodes=n, max_nodes=n)
        for i, n in enumerate((1, 2, 1, 3, 4, 4))
    ]
    return compute_ranges(synth.dataset_from_graphs(graphs, "tiny6", schema))


def numedge_dataset():
    """Thirty graphs of 1-14 nodes with a categorical and a numerical
    dimension on both nodes and edges."""
    schema = synth.mixed_schema(n_cat=1, n_num=1, edge_cat=1, edge_num=1)
    rng = np.random.default_rng(61)
    graphs = [synth.random_graph(rng, schema, graph_id=i, min_nodes=1, max_nodes=14)
              for i in range(30)]
    return compute_ranges(synth.dataset_from_graphs(graphs, "numedge30", schema))


def pinned_gram(name):
    """The Gram behind each PINNED_GRAM_SHA256 entry."""
    params = SimilarityParams(gamma=1.0)
    if name.startswith("numedge30"):
        mode = "off" if name.endswith("off") else "auto"
        return compute_gram(numedge_dataset(), params, ExpansionPlan(max_depth=4),
                            edge_elements=mode, threads=2)
    if name == "bench2-H4":
        ds = compute_ranges(synth.benchmark_dataset(seed=7))
        return compute_gram(ds, params, ExpansionPlan(max_depth=4))
    if name == "wide6-200-H4":
        ds = compute_ranges(synth.wide_attribute_dataset(seed=11, count=200))
        return compute_gram(ds, params, ExpansionPlan(max_depth=4), threads=2)
    # pruned center weights
    return compute_gram(large_dataset(), params, ExpansionPlan(max_depth=3), tau=0.6)


def sha256(gram) -> str:
    return hashlib.sha256(gram.values.tobytes()).hexdigest()


# (dataset, deepest depth, tau, worker counts) of the one-pass prefix checks
PREFIX_SETS = {
    "bench2-H4": (lambda: compute_ranges(synth.benchmark_dataset(seed=7)), 4, 0.0, (1, 2)),
    "large-H3-tau0.6": (large_dataset, 3, 0.6, (1,)),
    "tiny6-H5": (tiny_dataset, 5, 0.0, (1, 3)),
}


def small_dataset(seed=31, count=12, name="gramtest"):
    schema = synth.mixed_schema(n_cat=1, n_num=1, edge_cat=1)
    graphs = synth.random_graph_set(seed, count, schema, min_nodes=2, max_nodes=12)
    labels = [i % 2 for i in range(count)]
    return synth.dataset_from_graphs(graphs, name=name, schema=schema, labels=labels)


def meta_for(ds, **overrides) -> GramMeta:
    base = dict(
        dataset_digest=ds.digest, gamma=1.0, depth=1, tau=0.0,
        normalize=False, edge_elements="auto",
    )
    base.update(overrides)
    return GramMeta(**base)


class TestComputeGram:
    def test_entries_match_pairwise_kernel_exactly(self):
        ds = small_dataset()
        params, plan = SimilarityParams(gamma=1.0), ExpansionPlan(max_depth=3)
        gram = compute_gram(ds, params, plan)
        ctx = KernelContext(ds.schema, params)
        for i in range(ds.num_graphs):
            for j in range(i, ds.num_graphs):
                expected = nask_kernel(ds.graphs[i], ds.graphs[j], plan, ctx)
                assert gram.values[i, j] == expected
                assert gram.values[j, i] == expected

    def test_meta_records_parameters(self):
        ds = small_dataset()
        gram = compute_gram(
            ds, SimilarityParams(gamma=0.5), ExpansionPlan(max_depth=2), tau=0.1,
            edge_elements="on",
        )
        assert gram.meta.dataset_digest == ds.digest
        assert gram.meta.gamma == 0.5
        assert gram.meta.depth == 2
        assert gram.meta.tau == 0.1
        assert gram.meta.edge_elements == "on"
        assert not gram.meta.normalize

    def test_values_are_frozen(self):
        ds = small_dataset(count=4)
        gram = compute_gram(ds)
        with pytest.raises(ValueError):
            gram.values[0, 0] = 0.0

    def test_thread_count_does_not_change_bytes(self):
        ds = small_dataset(seed=32, count=14)
        one = compute_gram(ds, threads=1)
        four = compute_gram(ds, threads=4)
        assert one.values.tobytes() == four.values.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_pool_matches_one_thread_on_tiny_sets(self, count):
        # fewer upper-triangle entries than pool chunks leaves some chunks empty
        ds = small_dataset(seed=33, count=count)
        one = compute_gram(ds, threads=1)
        three = compute_gram(ds, threads=3)
        assert one.values.tobytes() == three.values.tobytes()

    def test_blas_thread_count_does_not_change_bytes(self):
        tests = Path(__file__).resolve().parent
        digests = {}
        for count in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count)
            run = subprocess.run(
                [sys.executable, "-c", BLAS_DIGESTS, str(tests.parent / "src"), str(tests)],
                env=env, capture_output=True, text=True, check=True,
            )
            digests[count] = run.stdout.split()
        # the indicator engine's dense node and edge products hold on wide6's
        # and numedge30's graphs of at most 16 nodes and on the 100-300-node
        # graphs at tau = 0.6, but not yet on those graphs at tau = 0
        pinned = [PINNED_GRAM_SHA256["bench2-H4"]] * 3 + [
            PINNED_GRAM_SHA256[name] for name in sorted(PINNED_GRAM_SHA256)]
        assert digests == {"1": pinned, "2": pinned}

    def test_recompute_is_bit_identical(self):
        ds = small_dataset(seed=33, count=8)
        a = compute_gram(ds, SimilarityParams(gamma=2.0), ExpansionPlan(max_depth=4))
        b = compute_gram(ds, SimilarityParams(gamma=2.0), ExpansionPlan(max_depth=4))
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("normalize", ["no", 0, 1.0, None])
    def test_normalize_flag_must_be_a_bool(self, normalize):
        with pytest.raises(ConfigError, match="normalize"):
            compute_gram(small_dataset(count=4), normalize=normalize)

    def test_normalize_flag_equals_post_normalization(self):
        ds = small_dataset(seed=34, count=6)
        direct = compute_gram(ds, normalize=True)
        two_step = normalize_gram(compute_gram(ds))
        assert direct.values.tobytes() == two_step.values.tobytes()
        assert direct.meta.normalize

    def test_tau_only_removes_mass(self):
        ds = small_dataset(seed=35, count=8)
        base = compute_gram(ds)
        pruned = compute_gram(ds, tau=0.5)
        assert np.all(pruned.values <= base.values + 1e-12)

    def test_tau_pruning_can_make_the_gram_indefinite(self):
        # thresholding the center weights is not a PSD-preserving operation
        schema = synth.mixed_schema(n_cat=1, n_num=2)
        graphs = synth.random_graph_set(1, 80, schema)
        ds = compute_ranges(synth.dataset_from_graphs(graphs, schema=schema))
        params, plan = SimilarityParams(gamma=10.0), ExpansionPlan(max_depth=2)
        assert check_psd(compute_gram(ds, params, plan)).psd
        pruned = check_psd(compute_gram(ds, params, plan, tau=0.5))
        assert not pruned.psd
        assert pruned.min_eig < -1e-3 * pruned.max_eig

    def test_small_gram_is_psd(self):
        ds = small_dataset(seed=37, count=10)
        for gamma in (0.1, 1.0, 10.0):
            gram = compute_gram(ds, SimilarityParams(gamma=gamma), ExpansionPlan(max_depth=4))
            verdict = check_psd(gram)
            assert verdict.psd, f"gamma={gamma}: min eig {verdict.min_eig}"
            assert oracles.cholesky_psd(gram.values)

    def test_empty_dataset_rejected(self):
        from nask.datasets import Dataset
        from nask.graph import AttributeSchema

        ds = Dataset(
            name="empty",
            schema=AttributeSchema(node_dims=(synth.categorical_dim("c", 2),)),
            graphs=(), labels=(), class_values=(),
        )
        with pytest.raises(DatasetError):
            compute_gram(ds)

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ConfigError):
            compute_gram(small_dataset(count=4), threads=0)

    @pytest.mark.parametrize("threads", [True, 2.0, "2"])
    def test_thread_count_must_be_an_integer(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            compute_gram(small_dataset(count=4), threads=threads)

    def test_numpy_integers_are_accepted(self, tmp_path):
        ds = small_dataset(count=4)
        gram = compute_gram(
            ds, SimilarityParams(gamma=np.int64(2)), ExpansionPlan(max_depth=np.int64(2)),
            threads=np.int64(2), depths=(np.int64(1), 2), normalize=np.False_,
        )[1]
        assert gram.values.tobytes() == compute_gram(
            ds, SimilarityParams(gamma=2.0), ExpansionPlan(max_depth=1)
        ).values.tobytes()
        # the metadata holds plain numbers, so the file reads back
        assert import_gram(export_gram(gram, tmp_path / "g.gram")).meta == gram.meta

    def test_fork_warning_only_when_a_pool_would_start(self, monkeypatch):
        monkeypatch.setattr("multiprocessing.get_all_start_methods", lambda: ["spawn"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # all-categorical at tau = 0: the feature map, which never forks
            compute_gram(compute_ranges(synth.benchmark_dataset(count=6)), threads=2)
            compute_gram(small_dataset(count=4), threads=1)
        with pytest.warns(UserWarning, match="fork start method unavailable"):
            compute_gram(small_dataset(count=4), threads=2)

    def test_exhaustion_while_packing_names_the_graph(self, monkeypatch):
        def exhausted(pack, depth):
            raise MemoryError

        # every indicator level grows in _level
        monkeypatch.setattr(stars._GraphPack, "_level", exhausted)
        with pytest.raises(GramComputeError, match="packing graph 0"):
            compute_gram(small_dataset(count=4))

    @pytest.mark.parametrize("engine", ["feature map", "indicator"])
    def test_exhaustion_while_forming_tables_names_n(self, monkeypatch, engine):
        def exhausted(*args):
            raise MemoryError

        if engine == "feature map":  # all-categorical at tau = 0
            ds = compute_ranges(synth.benchmark_dataset(count=6))
            monkeypatch.setattr(KernelContext, "feature_totals", exhausted)
        else:
            ds = small_dataset(count=4)
            monkeypatch.setattr(GramMatrix, "__post_init__", exhausted)
        with pytest.raises(GramComputeError, match=f"n={ds.num_graphs} graphs"):
            compute_gram(ds)

    def test_feature_map_forms_each_unordered_pair_once(self, monkeypatch):
        columns = []
        totals = KernelContext.feature_totals

        def spy(ctx, row, cols):
            columns.append(cols.shape[1])
            return totals(ctx, row, cols)

        monkeypatch.setattr(KernelContext, "feature_totals", spy)
        gram = pinned_gram("bench2-H4")
        n = gram.n
        assert sum(columns) == n * (n + 1) // 2 == 17766
        assert sha256(gram) == PINNED_GRAM_SHA256["bench2-H4"]

    @pytest.mark.parametrize("name", sorted(PINNED_GRAM_SHA256))
    def test_values_match_the_pinned_digest(self, name):
        assert sha256(pinned_gram(name)) == PINNED_GRAM_SHA256[name]


class TestDepthPrefixes:
    """One pass at depth H yields the Gram of every depth 1..H."""

    @pytest.mark.parametrize("name", sorted(PREFIX_SETS))
    def test_each_depth_equals_its_own_compute(self, name):
        make, deepest, tau, worker_counts = PREFIX_SETS[name]
        ds = make()
        params = SimilarityParams(gamma=1.0)
        depths = tuple(range(1, deepest + 1))
        # a pinned digest stands for the deepest separate Gram of its set
        separate = {deepest: PINNED_GRAM_SHA256[name]} if name in PINNED_GRAM_SHA256 else {}
        for h in depths:
            if h not in separate:
                separate[h] = sha256(compute_gram(ds, params, ExpansionPlan(max_depth=h), tau=tau))
        for threads in worker_counts:
            grams = compute_gram(
                ds, params, ExpansionPlan(max_depth=deepest), tau=tau, threads=threads,
                depths=depths,
            )
            assert list(grams) == list(depths)
            assert {h: sha256(gram) for h, gram in grams.items()} == separate
            assert [gram.meta.depth for gram in grams.values()] == list(depths)

    def test_single_node_rows_repeat_past_the_cap(self):
        ds = tiny_dataset()
        grams = compute_gram(ds, plan=ExpansionPlan(max_depth=5), depths=(1, 5))
        single = [i for i, g in enumerate(ds.graphs) if g.num_nodes == 1]
        assert len(single) == 2
        assert np.array_equal(grams[1].values[single], grams[5].values[single])
        assert not np.array_equal(grams[1].values, grams[5].values)

    def test_kept_depths_only(self):
        ds = small_dataset(count=6)
        grams = compute_gram(ds, plan=ExpansionPlan(max_depth=3), normalize=True, depths=(3, 1))
        assert list(grams) == [3, 1]
        for h, gram in grams.items():
            alone = compute_gram(ds, plan=ExpansionPlan(max_depth=h), normalize=True)
            assert gram.values.tobytes() == alone.values.tobytes()
            assert gram.meta == alone.meta

    @pytest.mark.parametrize("depths", [(), (0,), (4,), (2, 2), (True,), (1.0,)])
    def test_bad_depths_rejected(self, depths):
        with pytest.raises(ConfigError, match="depths"):
            compute_gram(small_dataset(count=4), plan=ExpansionPlan(max_depth=3), depths=depths)


class TestNormalize:
    def test_frozen_fixture(self):
        ds = small_dataset(count=2)
        gram = GramMatrix(values=np.array([[4.0, 2.0], [2.0, 1.0]]), meta=meta_for(ds))
        normalized = normalize_gram(gram)
        assert np.array_equal(normalized.values, np.ones((2, 2)))

    def test_diagonal_becomes_one(self):
        ds = small_dataset(seed=38, count=6)
        normalized = compute_gram(ds, normalize=True)
        assert np.allclose(normalized.values.diagonal(), 1.0, rtol=1e-14, atol=0)

    def test_nonpositive_diagonal_names_index(self):
        ds = small_dataset(count=2)
        gram = GramMatrix(values=np.array([[1.0, 0.0], [0.0, 0.0]]), meta=meta_for(ds))
        with pytest.raises(InvalidGramError, match="index 1"):
            normalize_gram(gram)

    def test_normalization_preserves_psd(self):
        ds = small_dataset(seed=39, count=8)
        normalized = compute_gram(ds, normalize=True)
        assert check_psd(normalized).psd


class TestCheckPsd:
    def test_indefinite_fixture(self):
        verdict = check_psd(INDEFINITE)
        assert not verdict.psd
        assert verdict.min_eig == pytest.approx(-0.5, rel=1e-12)
        assert verdict.max_eig == pytest.approx(2.5, rel=1e-12)
        assert verdict.threshold == pytest.approx(1e-8 * 2.5, rel=1e-9)
        assert not oracles.cholesky_psd(INDEFINITE)

    def test_identity_passes(self):
        verdict = check_psd(np.eye(5))
        assert verdict.psd
        assert verdict.min_eig == pytest.approx(1.0)

    def test_tolerance_scales_with_top_eigenvalue(self):
        # a tiny negative eigenvalue passes when the spectrum is large
        values = np.diag([1e6, -1e-3])
        assert check_psd(values, tol=1e-8).psd
        assert not check_psd(values, tol=1e-10).psd

    def test_requires_symmetry(self):
        with pytest.raises(InvalidGramError):
            check_psd(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_requires_square(self):
        with pytest.raises(InvalidGramError):
            check_psd(np.ones((2, 3)))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), True, "1e-8"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ConfigError, match="tol"):
            check_psd(np.eye(3), tol=tol)


class TestFileFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = small_dataset(seed=40, count=7)
        gram = compute_gram(ds, SimilarityParams(gamma=10.0), ExpansionPlan(max_depth=4))
        path = export_gram(gram, tmp_path / "g.gram")
        back = import_gram(path)
        assert np.array_equal(back.values, gram.values)
        assert back.meta == gram.meta

    def test_header_and_meta_layout(self, tmp_path):
        ds = small_dataset(count=2)
        gram = compute_gram(ds)
        path = export_gram(gram, tmp_path / "g.gram")
        lines = path.read_text().splitlines()
        assert lines[0] == "NASK-GRAM v1"
        meta = json.loads(lines[1])
        assert list(meta) == [
            "dataset_digest", "gamma", "H", "tau", "normalize", "edge_elements", "version",
        ]
        assert lines[2] == "2"
        assert len(lines) == 5

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.gram"
        path.write_text("GRAM v0\n{}\n1\n1.0\n")
        with pytest.raises(GramFormatError, match="unsupported version"):
            import_gram(path)

    def test_bad_metadata_json(self, tmp_path):
        path = tmp_path / "bad.gram"
        path.write_text("NASK-GRAM v1\n{not json\n1\n1.0\n")
        with pytest.raises(GramFormatError, match=":2"):
            import_gram(path)

    def test_missing_metadata_key(self, tmp_path):
        path = tmp_path / "bad.gram"
        path.write_text('NASK-GRAM v1\n{"gamma": 1.0}\n1\n1.0\n')
        with pytest.raises(GramFormatError, match="missing keys"):
            import_gram(path)

    @pytest.mark.parametrize("key, bad", [
        ("normalize", "false"),
        ("H", 2.7),
        ("H", True),
        ("gamma", "nan"),
        ("tau", -3),
        ("edge_elements", "sometimes"),
    ])
    def test_ill_typed_metadata_names_the_key(self, tmp_path, key, bad):
        path = export_gram(compute_gram(small_dataset(count=2)), tmp_path / "g.gram")
        lines = path.read_text().splitlines()
        meta = json.loads(lines[1])
        meta[key] = bad
        lines[1] = json.dumps(meta)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GramFormatError, match=f"'{key}'"):
            import_gram(path)

    def test_dimension_mismatch(self, tmp_path):
        ds = small_dataset(count=2)
        gram = compute_gram(ds)
        path = export_gram(gram, tmp_path / "g.gram")
        lines = path.read_text().splitlines()
        lines[2] = "3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GramFormatError, match="dimension mismatch"):
            import_gram(path)

    def test_row_width_mismatch(self, tmp_path):
        ds = small_dataset(count=2)
        path = export_gram(compute_gram(ds), tmp_path / "g.gram")
        lines = path.read_text().splitlines()
        lines[3] = lines[3] + " 1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GramFormatError, match=":4"):
            import_gram(path)

    def test_non_numeric_value(self, tmp_path):
        ds = small_dataset(count=2)
        path = export_gram(compute_gram(ds), tmp_path / "g.gram")
        lines = path.read_text().splitlines()
        fields = lines[4].split()
        fields[0] = "zero"
        lines[4] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GramFormatError, match=":5"):
            import_gram(path)

    def test_non_finite_value(self, tmp_path):
        ds = small_dataset(count=2)
        path = export_gram(compute_gram(ds), tmp_path / "g.gram")
        lines = path.read_text().splitlines()
        fields = lines[3].split()
        fields[1] = "nan"
        lines[3] = " ".join(fields)
        fields = lines[4].split()
        fields[0] = "nan"
        lines[4] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GramFormatError, match="non-finite"):
            import_gram(path)

    def test_asymmetric_as_stored(self, tmp_path):
        ds = small_dataset(count=2)
        path = export_gram(compute_gram(ds), tmp_path / "g.gram")
        lines = path.read_text().splitlines()
        fields = lines[3].split()
        fields[1] = "123.25"
        lines[3] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GramFormatError, match="not symmetric"):
            import_gram(path)

    def test_gram_matrix_requires_exact_symmetry(self):
        ds = small_dataset(count=2)
        # even a one-ulp difference is a construction error
        with pytest.raises(InvalidGramError):
            GramMatrix(
                values=np.array([[1.0, 2.0], [np.nextafter(2.0, 3.0), 1.0]]),
                meta=meta_for(ds),
            )
