"""Cross-validation protocol: stratification, determinism, and reporting."""

import functools
import json
import warnings

import numpy as np
import pytest

import nask.datasets
import nask.evaluate
from nask.datasets import canonical_digest, compute_ranges
from nask.errors import ConfigError, InvalidGramError
from nask.evaluate import (
    TRANSDUCTIVE_NOTE,
    CvConfig,
    CvReport,
    _cost_sweep,
    _kernel_table,
    cross_validate,
    stratified_folds,
)
from nask.graph import AttributedGraph
from nask.gram import compute_gram
from nask.svm import predict, train_ovr

from conftest import graph_with
import synth

# one-config grid: selection is skipped entirely
SINGLE_GRID = dict(gammas=(1.0,), depths=(1,), normalize_options=(True,), costs=(1.0,))
# two-config grid: inner selection runs and ties resolve to the first entry
SMALL_GRID = dict(gammas=(1.0,), depths=(1, 2), normalize_options=(True,), costs=(1.0,))

# results_digest() and convergence count of two seeded runs on noisy_dataset():
# a change to the protocol or the solver that moves them must say so in CHANGES.md
PINNED_FULL = ("99fcc9face3e060e379bd6fbdf15e2b7b0eadf3cfda1522d3e6b3e009b294af6", 50)
PINNED_PER_FOLD = ("b3026eb7185adbfb3b0c5f7800ebc8e1d5dabb48f0c0bf15d06758909294eeb1", 39)
# the same for a cost grid out of order, whose accuracies must come back in
# cfg.costs order
PINNED_UNSORTED = ("9e51392fd5620d58adfcf6e529c2bd50f34e72fa4143603cfd57d48f490cd72c", 78)
# (svm_fits, svm_reused_fits, svm_updates) of the three pinned runs: the work
# their cost sweeps did, which a change that only reorganizes the sweeps
# must not move
WORK_FULL = (147, 0, 24178)
WORK_UNSORTED = (183, 36, 20868)
WORK_PER_FOLD = (31, 8, 6085)


def easy_dataset(count=18, seed=30, name="easy2"):
    """Perfectly separable two-class set: node symbols are class-constant."""
    rng = np.random.default_rng(seed)
    schema = synth.mixed_schema(n_cat=1, n_num=0, cat_card=2)
    graphs = []
    for i in range(count):
        label = i % 2
        n = int(rng.integers(3, 7))
        edges = synth.connected_edges(rng, n, extra=0.2)
        graphs.append(graph_with(i, n, edges, [(label,)] * n, label=label))
    return synth.dataset_from_graphs(graphs, name=name, schema=schema)


def assert_work(report, work):
    """The run's fit counts are `work`, and its convergence warnings are the
    sum of its per-grid-point counts."""
    env = report.environment
    assert (env["svm_fits"], env["svm_reused_fits"], env["svm_updates"]) == work
    assert env["convergence_warnings"] == sum(env["unconverged_by_config"].values())


def noisy_dataset():
    """Three classes assigned without regard to structure, with a numerical
    node dimension: the SVM decides every split, and some fits hit their
    update cap."""
    schema = synth.mixed_schema(n_cat=1, n_num=1, edge_cat=1, with_ranges=False)
    graphs = synth.random_graph_set(8, 30, schema, min_nodes=3, max_nodes=9)
    labels = [i % 3 for i in range(30)]
    return synth.dataset_from_graphs(graphs, name="noisy3", schema=schema, labels=labels)


class TestStratifiedFolds:
    def test_balanced_two_class_split(self):
        labels = np.array([0, 1] * 5)
        folds = stratified_folds(labels, 5, seed=3)
        assert all(fold.size == 2 for fold in folds)
        for fold in folds:
            assert sorted(labels[fold]) == [0, 1]

    def test_uneven_sizes_differ_by_at_most_one(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        folds = stratified_folds(labels, 3, seed=0)
        assert sorted(fold.size for fold in folds) == [2, 2, 3]

    def test_folds_partition_all_indices(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=23)
        while np.unique(labels, return_counts=True)[1].min() < 4:
            labels = rng.integers(0, 3, size=23)
        folds = stratified_folds(labels, 4, seed=9)
        merged = np.concatenate(folds)
        assert np.array_equal(np.sort(merged), np.arange(23))
        for fold in folds:
            assert np.array_equal(fold, np.sort(fold))

    def test_class_counts_within_one_across_folds(self):
        labels = np.array([0] * 11 + [1] * 7 + [2] * 5)
        folds = stratified_folds(labels, 4, seed=2)
        for c in (0, 1, 2):
            counts = [int(np.sum(labels[fold] == c)) for fold in folds]
            assert max(counts) - min(counts) <= 1

    def test_deterministic_for_fixed_seed(self):
        labels = np.arange(40) % 4
        a = stratified_folds(labels, 5, seed=7)
        b = stratified_folds(labels, 5, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = stratified_folds(labels, 5, seed=8)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_small_class_falls_back_with_warning(self):
        labels = np.array([0, 0, 0, 0, 0, 1])
        with pytest.warns(UserWarning, match="falling back"):
            folds = stratified_folds(labels, 3, seed=1)
        merged = np.concatenate(folds)
        assert np.array_equal(np.sort(merged), np.arange(6))

    def test_fold_count_validated(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ConfigError):
            stratified_folds(labels, 1, seed=0)
        with pytest.raises(ConfigError):
            stratified_folds(labels, 5, seed=0)

    @pytest.mark.parametrize("k", [2.5, np.float64(2.0), "2"])
    def test_non_integer_fold_count_rejected(self, k):
        with pytest.raises(ConfigError, match="folds must be an integer"):
            stratified_folds(np.array([0, 1, 0, 1]), k, seed=0)

    def test_numpy_integer_fold_count_accepted(self):
        folds = stratified_folds(np.array([0, 1, 0, 1]), np.int64(2), seed=0)
        assert len(folds) == 2


class TestCvConfig:
    def test_defaults_form_the_published_grid(self):
        cfg = CvConfig()
        grid = cfg.grid()
        assert len(grid) == 3 * 4 * 2 * 7
        assert grid[0] == (0.1, 1, True, 1e-3)
        # gamma varies slowest, cost fastest
        assert grid[1] == (0.1, 1, True, 1e-2)
        assert grid[-1] == (10.0, 4, False, 1e3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(folds=1),
            dict(repeats=0),
            dict(inner_folds=1),
            dict(gammas=()),
            dict(gammas=(0.0,)),
            dict(depths=(0,)),
            dict(costs=(-1.0,)),
            dict(range_mode="loose"),
            dict(depths=(1.5,)),
            dict(gammas=(1.0, 1)),
            dict(depths=(2, 2)),
            dict(normalize_options=(True, True)),
            dict(costs=(1.0, 10.0, 1.0)),
            dict(gammas=(float("nan"),)),
            dict(gammas=(float("inf"),)),
            dict(costs=(float("nan"),)),
            dict(costs=(1.0, float("inf"))),
            dict(depths=(True,)),
            dict(gammas=(True,)),
            dict(costs=(True,)),
            dict(folds=True),
            dict(threads=True),
            dict(threads=0),
            dict(seed=-1),
            dict(seed=True),
            dict(seed=1.5),
            dict(tau=[0.5]),
            dict(tau="0.5"),
            dict(tau=True),
            dict(tau=-0.1),
            dict(tau=1.0),
            dict(tau=float("nan")),
            dict(edge_elements="both"),
            dict(normalize_options=("off",)),
            dict(normalize_options=(1, 0)),
            dict(normalize_options=(None,)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CvConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        cfg = CvConfig(folds=np.int64(3), threads=np.int64(2), depths=(np.int64(2), 3))
        assert [point[1] for point in cfg.grid()[::14]] == [2, 3] * 3

    def test_numpy_scalars_give_the_report_of_python_ones(self):
        plain = dict(folds=3, repeats=1, gammas=(1.0,), depths=(1, 2),
                     normalize_options=(True, False), costs=(1.0,))
        numpy = dict(folds=np.int64(3), repeats=1, gammas=(np.float64(1.0),),
                     depths=(np.int64(1), 2), normalize_options=(np.True_, np.False_),
                     costs=(1.0,))
        reports = [cross_validate(easy_dataset(), CvConfig(**kw)) for kw in (plain, numpy)]
        assert [r.config for r in reports] == [reports[0].config] * 2
        assert reports[1].results_digest() == reports[0].results_digest()


class TestCrossValidate:
    def test_separable_dataset_scores_high(self):
        ds = easy_dataset()
        cfg = CvConfig(folds=3, repeats=2, seed=0, **SINGLE_GRID)
        report = cross_validate(ds, cfg)
        assert isinstance(report, CvReport)
        assert len(report.outer_accuracies) == 6
        assert report.mean_accuracy >= 0.95
        assert report.transductive_note == TRANSDUCTIVE_NOTE
        assert report.per_config[0]["times_selected"] == 6
        assert report.per_config[0]["mean_inner_accuracy"] is None
        assert all(f["inner_accuracy"] is None for f in report.folds)

    def test_repeated_run_is_bit_reproducible(self):
        ds = easy_dataset()
        cfg = CvConfig(folds=3, repeats=1, seed=5, **SINGLE_GRID)
        first = cross_validate(ds, cfg)
        second = cross_validate(ds, cfg)
        assert first.results_digest() == second.results_digest()
        # wall-clock environment details stay out of the reproducible payload
        assert "environment" not in first.results_obj()
        assert "environment" in json.loads(first.to_json())

    def test_seed_changes_the_splits(self):
        ds = easy_dataset()
        base = dict(folds=3, repeats=1, **SINGLE_GRID)
        a = cross_validate(ds, CvConfig(seed=0, **base))
        b = cross_validate(ds, CvConfig(seed=1, **base))
        assert a.results_digest() != b.results_digest()

    def test_folds_partition_dataset_each_repeat(self):
        ds = easy_dataset()
        cfg = CvConfig(folds=3, repeats=2, seed=3, **SINGLE_GRID)
        report = cross_validate(ds, cfg)
        for repeat in (0, 1):
            entries = [f for f in report.folds if f["repeat"] == repeat]
            assert len(entries) == 3
            merged = sorted(i for f in entries for i in f["test_indices"])
            assert merged == list(range(ds.num_graphs))
            for f in entries:
                assert f["train_size"] == ds.num_graphs - len(f["test_indices"])

    def test_inner_selection_reports_and_breaks_ties_low(self):
        ds = easy_dataset()
        cfg = CvConfig(folds=3, repeats=1, seed=0, inner_folds=2, **SMALL_GRID)
        report = cross_validate(ds, cfg)
        picks = [c["times_selected"] for c in report.per_config]
        assert sum(picks) == 3
        inner = [c["mean_inner_accuracy"] for c in report.per_config]
        assert all(v is not None for v in inner)
        # both depths separate this set perfectly, so the tie goes to the
        # first grid entry every time
        if inner[0] == inner[1] == 1.0:
            assert picks == [3, 0]
        for f in report.folds:
            assert f["inner_accuracy"] is not None
            assert f["selected"]["gamma"] == 1.0

    def test_full_range_grid_run_matches_pinned_digest(self):
        cfg = CvConfig(folds=3, repeats=1, seed=5, gammas=(0.5, 2.0), depths=(1, 2),
                       costs=(0.01, 100.0))
        report = cross_validate(noisy_dataset(), cfg)
        pinned = (report.results_digest(), report.environment["convergence_warnings"])
        assert pinned == PINNED_FULL
        assert_work(report, WORK_FULL)

    def test_unconverged_machines_are_counted_per_grid_point(self):
        cfg = CvConfig(folds=3, repeats=1, seed=5, gammas=(0.5, 2.0), depths=(1, 2),
                       costs=(0.01, 100.0))
        report = cross_validate(noisy_dataset(), cfg)
        env = report.environment
        by_config = env["unconverged_by_config"]
        assert list(by_config) == [
            f"gamma={g},H={h},normalize={b},C={c}"
            for g in ("0.5", "2") for h in (1, 2) for b in (True, False) for c in ("0.01", "100")
        ]
        assert sum(by_config.values()) == env["convergence_warnings"] == PINNED_FULL[1]
        assert report.results_digest() == PINNED_FULL[0]
        assert "unconverged_by_config" not in json.dumps(report.results_obj())
        # the sweep time sits beside the Gram times, outside the digest
        assert env["svm_seconds"] > 0 and env["gram_seconds"]
        assert "svm_seconds" not in json.dumps(report.results_obj())

    def test_unsorted_cost_grid_matches_pinned_digest(self):
        cfg = CvConfig(folds=3, repeats=1, seed=7, gammas=(0.5, 2.0), depths=(1, 2),
                       costs=(10.0, 0.01, 1.0))
        report = cross_validate(noisy_dataset(), cfg)
        pinned = (report.results_digest(), report.environment["convergence_warnings"])
        assert pinned == PINNED_UNSORTED
        assert_work(report, WORK_UNSORTED)
        assert [entry["C"] for entry in report.per_config[:3]] == [10.0, 0.01, 1.0]

    def test_per_fold_run_matches_pinned_digest(self):
        cfg = CvConfig(folds=3, repeats=1, seed=6, gammas=(1.0,), depths=(2,),
                       costs=(0.1, 10.0), range_mode="per-fold")
        report = cross_validate(noisy_dataset(), cfg)
        pinned = (report.results_digest(), report.environment["convergence_warnings"])
        assert pinned == PINNED_PER_FOLD
        assert_work(report, WORK_PER_FOLD)

    def test_convergence_count_reads_the_models(self, monkeypatch):
        monkeypatch.setattr(nask.evaluate, "train_ovr", functools.partial(train_ovr, max_passes=1))
        cfg = CvConfig(folds=3, repeats=1, inner_folds=2, gammas=(1.0,), depths=(1,),
                       normalize_options=(True,), costs=(0.1, 10.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = cross_validate(noisy_dataset(), cfg)
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        # one update never reaches the optimum from alpha = 0, so every
        # machine (three per fit) of every inner and outer fit is unconverged
        fits = cfg.folds * (len(cfg.grid()) * cfg.inner_folds + 1)
        env = report.environment
        assert env["convergence_warnings"] == 3 * fits
        assert env["svm_fits"] + env["svm_reused_fits"] == fits
        assert env["svm_updates"] == 3 * env["svm_fits"]

    def test_fit_counts_cover_every_split_and_grid_point(self):
        cfg = CvConfig(folds=3, repeats=2, inner_folds=2, gammas=(1.0,), depths=(1, 2),
                       costs=(0.01, 1.0, 100.0))
        report = cross_validate(noisy_dataset(), cfg)
        env = report.environment
        # every inner split fits each grid point, every outer fold its pick
        fits = cfg.folds * cfg.repeats * (len(cfg.grid()) * cfg.inner_folds + 1)
        assert env["svm_fits"] + env["svm_reused_fits"] == fits
        assert env["svm_reused_fits"] > 0
        assert env["svm_updates"] > env["svm_fits"]
        assert not {"svm_fits", "svm_reused_fits", "svm_updates"} & set(report.results_obj())

    @pytest.mark.parametrize(("range_mode", "passes"), [("full", 2), ("per-fold", 4)])
    def test_one_kernel_pass_per_gamma(self, monkeypatch, range_mode, passes):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["depths"])
            return compute_gram(*args, **kwargs)

        monkeypatch.setattr(nask.evaluate, "compute_gram", counted)
        cfg = CvConfig(folds=2, repeats=1, inner_folds=2, gammas=(0.5, 2.0), depths=(1, 3, 4),
                       normalize_options=(True,), costs=(1.0,), range_mode=range_mode)
        report = cross_validate(noisy_dataset(), cfg)
        assert calls == [(1, 3, 4)] * passes
        prefixes = [""] if range_mode == "full" else ["repeat=0,fold=0,", "repeat=0,fold=1,"]
        env = report.environment
        assert set(env["gram_psd"]) == {
            f"{prefix}gamma={g},H={h}" for prefix in prefixes for g in ("0.5", "2")
            for h in (1, 3, 4)
        }
        assert set(env["gram_seconds"]) == {
            f"{prefix}gamma={g},H=4" for prefix in prefixes for g in ("0.5", "2")
        }

    def test_gammas_alike_under_g_keep_their_own_entries(self):
        # both print as 1 under :g, so the second is keyed by its repr
        cfg = CvConfig(folds=2, repeats=1, inner_folds=2, gammas=(1.0, 1.0000001),
                       depths=(1, 2), normalize_options=(True,), costs=(1.0,))
        env = cross_validate(noisy_dataset(), cfg).environment
        assert set(env["gram_psd"]) == {
            f"gamma={g},H={h}" for g in ("1", "1.0000001") for h in (1, 2)
        }
        assert set(env["gram_seconds"]) == {"gamma=1,H=2", "gamma=1.0000001,H=2"}

    def test_per_fold_ranges_drop_the_transductive_note(self):
        rng = np.random.default_rng(41)
        schema = synth.mixed_schema(n_cat=1, n_num=1, with_ranges=False)
        graphs = [
            synth.random_graph(rng, schema, graph_id=i, min_nodes=3, max_nodes=6, label=i % 2)
            for i in range(12)
        ]
        ds = synth.dataset_from_graphs(graphs, name="perfold", schema=schema)
        cfg = CvConfig(folds=2, repeats=1, range_mode="per-fold", **SINGLE_GRID)
        report = cross_validate(ds, cfg)
        assert report.transductive_note is None
        assert len(report.outer_accuracies) == 2
        # each fold trains on its own Gram, timed and checked for PSD
        fold_grams = {"repeat=0,fold=0,gamma=1,H=1", "repeat=0,fold=1,gamma=1,H=1"}
        assert set(report.environment["gram_seconds"]) == fold_grams
        assert set(report.environment["gram_psd"]) == fold_grams
        full_report = cross_validate(ds, CvConfig(folds=2, repeats=1, **SINGLE_GRID))
        assert full_report.transductive_note == TRANSDUCTIVE_NOTE

    def test_indefinite_gram_is_flagged(self):
        # the tau-pruned set of test_gram.py, given two classes
        schema = synth.mixed_schema(n_cat=1, n_num=2)
        graphs = synth.random_graph_set(1, 80, schema)
        ds = synth.dataset_from_graphs(graphs, schema=schema, labels=[i % 2 for i in range(80)])
        grid = dict(gammas=(10.0,), depths=(2,), normalize_options=(False,), costs=(1.0,))
        report = cross_validate(ds, CvConfig(folds=2, repeats=1, tau=0.5, **grid))
        verdict = report.environment["gram_psd"]["gamma=10,H=2"]
        assert not verdict["psd"]
        assert verdict["min_eig"] < 0
        assert [w for w in report.warnings if "positive semidefinite" in w] == [
            "Gram gamma=10,H=2 is not positive semidefinite (see environment.gram_psd); "
            "the SVM trained on an indefinite kernel"
        ]

    def test_impossible_inner_split_fails_before_any_kernel_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nask.evaluate, "compute_gram", lambda *a, **k: calls.append(k))
        ds = easy_dataset(count=6)
        # a 2-fold outer split leaves 3 training graphs: too few for 4 inner folds
        with pytest.raises(ConfigError, match="inner folds"):
            cross_validate(ds, CvConfig(folds=2, repeats=1, inner_folds=4, **SMALL_GRID))
        assert calls == []

    @pytest.mark.parametrize("range_mode", ["full", "per-fold"])
    def test_dataset_digest_computed_once(self, monkeypatch, range_mode):
        calls = []

        def counted(ds):
            calls.append(ds.name)
            return canonical_digest(ds)

        monkeypatch.setattr(nask.datasets, "canonical_digest", counted)
        ds = noisy_dataset()
        compute_ranges(ds)  # keeps a cached digest but never computes one
        assert calls == []
        cfg = CvConfig(folds=3, repeats=1, range_mode=range_mode, **SMALL_GRID)
        report = cross_validate(ds, cfg)
        assert calls == ["noisy3"]
        assert report.dataset_digest == canonical_digest(ds)

    @pytest.mark.parametrize("range_mode", ["full", "per-fold"])
    @pytest.mark.parametrize("normalize_options", [(True,), (False, True)])
    def test_empty_graph_fails_before_any_fold_when_normalizing(
        self, monkeypatch, range_mode, normalize_options
    ):
        fits = []
        monkeypatch.setattr(nask.evaluate, "train_ovr", lambda *args: fits.append(args))
        ds = empty_graph_dataset()
        cfg = CvConfig(folds=3, repeats=1, inner_folds=2, gammas=(1.0,), depths=(1, 2),
                       normalize_options=normalize_options, costs=(1.0,),
                       range_mode=range_mode)
        with pytest.raises(InvalidGramError, match="nonpositive diagonal at graph index 0$"):
            cross_validate(ds, cfg)
        assert fits == []

    @pytest.mark.parametrize("range_mode", ["full", "per-fold"])
    def test_empty_graph_runs_on_the_raw_kernel(self, range_mode):
        cfg = CvConfig(folds=3, repeats=1, inner_folds=2, gammas=(1.0,), depths=(1, 2),
                       normalize_options=(False,), costs=(1.0,), range_mode=range_mode)
        report = cross_validate(empty_graph_dataset(), cfg)
        assert len(report.outer_accuracies) == 3

    def test_normalized_blocks_are_sliced_never_whole(self, monkeypatch):
        shapes = []
        cosine = nask.evaluate._cosine

        def spy(block, row_diag, col_diag):
            shapes.append(block.shape)
            return cosine(block, row_diag, col_diag)

        monkeypatch.setattr(nask.evaluate, "_cosine", spy)
        ds = noisy_dataset()
        cross_validate(ds, CvConfig(folds=3, repeats=1, inner_folds=2, **SMALL_GRID))
        assert shapes and all(rows < ds.num_graphs for rows, _ in shapes)

    def test_too_many_folds_rejected(self):
        ds = easy_dataset(count=6)
        with pytest.raises(ConfigError, match="folds"):
            cross_validate(ds, CvConfig(folds=10, repeats=1, **SINGLE_GRID))

    def test_single_class_rejected(self):
        rng = np.random.default_rng(8)
        schema = synth.mixed_schema(n_cat=1, n_num=0)
        graphs = [
            synth.random_graph(rng, schema, graph_id=i, min_nodes=3, max_nodes=5)
            for i in range(6)
        ]
        ds = synth.dataset_from_graphs(graphs, name="mono", schema=schema, labels=[0] * 6)
        with pytest.raises(ConfigError, match="classes"):
            cross_validate(ds, CvConfig(folds=2, repeats=1, **SINGLE_GRID))


def empty_graph_dataset():
    """Thirty bench2 graphs, graph 0 replaced by a graph with no nodes:
    its raw Gram row and diagonal are 0."""
    ds = synth.benchmark_dataset(count=30)
    first = ds.graphs[0]
    empty = AttributedGraph(graph_id=0, adjacency=(), node_attrs=(), edge_attrs=(),
                            label=first.label)
    return synth.dataset_from_graphs((empty, *ds.graphs[1:]), "empty0", ds.schema)


class TestKernelTable:
    @pytest.mark.parametrize("normalize_options", [(True, False), (False,)])
    def test_one_raw_gram_per_gamma_and_depth(self, monkeypatch, normalize_options):
        returned = []

        def spied(*args, **kwargs):
            returned.append(compute_gram(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(nask.evaluate, "compute_gram", spied)
        cfg = CvConfig(gammas=(0.5, 2.0), depths=(1, 3), normalize_options=normalize_options)
        table = _kernel_table(compute_ranges(noisy_dataset()), cfg, "", {}, {})
        assert list(table) == [(0.5, 1), (0.5, 3), (2.0, 1), (2.0, 3)]
        for (gamma, depth), values in table.items():
            gram = returned[cfg.gammas.index(gamma)][depth]
            assert values is gram.values
            assert not gram.meta.normalize


def sweep_problem(seed, kind, classes, n=30, held_out=8):
    """A seeded kernel over n points, labels, and train / held-out indices."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    if kind == "rbf":
        K = np.exp(-((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    else:
        K = X @ X.T + 0.5 * np.eye(n)
        if kind == "indefinite":
            S = rng.normal(size=(n, n))
            K = K + S + S.T
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    return K, labels, np.arange(n - held_out), np.arange(n - held_out, n)


def same_machines(a, b) -> bool:
    """Bit equality of everything a fit decides."""
    return all(
        x.alpha.tobytes() == y.alpha.tobytes()
        and np.array_equal(x.support, y.support)
        and x.dual_coef.tobytes() == y.dual_coef.tobytes()
        and np.float64(x.bias).tobytes() == np.float64(y.bias).tobytes()
        and np.float64(x.objective).tobytes() == np.float64(y.objective).tobytes()
        and (x.iterations, x.converged) == (y.iterations, y.converged)
        for x, y in zip(a.machines, b.machines, strict=True)
    )


@pytest.mark.filterwarnings("ignore:SMO did not converge")
class TestCostSweep:
    COSTS = (1e2, 1e-3, 1.0, 1e-1, 1e3, 1e-2, 1e1)  # out of order on purpose

    def sweep(self, monkeypatch, problem, costs, max_passes=None, normalize_options=(False,)):
        """Run the sweep with train_ovr spied on; return its results, the
        fresh fits as (cost, model) in fit order, and the counts without the
        sweep's seconds, which must be positive."""
        K, labels, train_idx, eval_idx = problem
        fits = []

        def spied(block, block_labels, cost):
            fits.append((cost, train_ovr(block, block_labels, cost, max_passes=max_passes)))
            return fits[-1][1]

        monkeypatch.setattr(nask.evaluate, "train_ovr", spied)
        counts = dict.fromkeys(("svm_seconds", "svm_fits", "svm_reused_fits", "svm_updates"), 0)
        swept = _cost_sweep(K, labels, train_idx, eval_idx, normalize_options, costs, counts)
        assert swept.keys() == {(b, cost) for b in normalize_options for cost in costs}
        assert counts.pop("svm_seconds") > 0
        return swept, fits, counts

    @pytest.mark.parametrize("max_passes", [None, 3])
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("kind", ["psd", "rbf", "indefinite"])
    def test_a_reused_fit_is_the_fresh_fit(self, monkeypatch, kind, classes, max_passes):
        problem = sweep_problem(11, kind, classes)
        K, labels, train_idx, eval_idx = problem
        swept, fits, counts = self.sweep(monkeypatch, problem, self.COSTS, max_passes)
        fresh = dict(fits)
        block, held_out = K[np.ix_(train_idx, train_idx)], K[np.ix_(eval_idx, train_idx)]
        refits = {c: train_ovr(block, labels[train_idx], c, max_passes=max_passes)
                  for c in self.COSTS}
        model, reused = None, 0
        for cost in sorted(self.COSTS):
            model = fresh.get(cost, model)
            if cost not in fresh:
                assert same_machines(model, refits[cost])
                reused += 1
        # read in the order of the given costs, each result is its own fit's
        assert [swept[False, cost] for cost in self.COSTS] == [
            (float(np.mean(predict(refits[cost], held_out) == labels[eval_idx])),
             sum(not m.converged for m in refits[cost].machines))
            for cost in self.COSTS
        ]
        assert counts == {
            "svm_fits": len(fresh),
            "svm_reused_fits": reused,
            "svm_updates": sum(m.iterations for model in fresh.values() for m in model.machines),
        }
        assert len(fresh) + reused == len(self.COSTS)

    def test_the_rule_fires_on_every_kind_of_fixture(self, monkeypatch):
        fired = []
        for kind in ("psd", "rbf", "indefinite"):
            for classes in (2, 3):
                for max_passes in (None, 3):
                    problem = sweep_problem(11, kind, classes)
                    _, _, counts = self.sweep(monkeypatch, problem, self.COSTS, max_passes)
                    if counts["svm_reused_fits"]:
                        fired.append((kind, classes, max_passes))
        kinds, class_counts, caps = (set(column) for column in zip(*fired))
        assert (kinds, class_counts, caps) == ({"psd", "rbf", "indefinite"}, {2, 3}, {None, 3})

    @pytest.mark.parametrize("kind", ["psd", "rbf"])
    def test_a_normalized_sweep_fits_the_normalized_kernel(self, monkeypatch, kind):
        K, labels, train_idx, eval_idx = problem = sweep_problem(4, kind, 3)
        d = K.diagonal()
        cosine = (K / np.sqrt(np.outer(d, d)), labels, train_idx, eval_idx)
        expected, expected_fits, expected_counts = self.sweep(monkeypatch, cosine, self.COSTS)
        swept, fits, counts = self.sweep(monkeypatch, problem, self.COSTS,
                                         normalize_options=(True,))
        assert swept == {(True, cost): result for (_, cost), result in expected.items()}
        assert counts == expected_counts
        assert [c for c, _ in fits] == [c for c, _ in expected_fits]
        assert all(same_machines(a, b) for (_, a), (_, b) in zip(fits, expected_fits))

    @pytest.mark.parametrize("kind", ["psd", "rbf"])
    def test_one_sweep_over_both_normalizations_is_two_sweeps(self, monkeypatch, kind):
        problem = sweep_problem(4, kind, 3)
        both, both_fits, both_counts = self.sweep(monkeypatch, problem, self.COSTS,
                                                  normalize_options=(True, False))
        expected, expected_fits, expected_counts = {}, [], dict.fromkeys(both_counts, 0)
        for normalize in (True, False):
            swept, fits, counts = self.sweep(monkeypatch, problem, self.COSTS,
                                             normalize_options=(normalize,))
            expected.update(swept)
            expected_fits += fits
            for key, count in counts.items():
                expected_counts[key] += count
        assert both == expected
        assert both_counts == expected_counts
        assert [c for c, _ in both_fits] == [c for c, _ in expected_fits]
        assert all(same_machines(a, b) for (_, a), (_, b) in zip(both_fits, expected_fits))

    def test_a_peak_between_two_costs_is_refitted(self, monkeypatch):
        # this fit's peak lies above its own C and below the next one, and
        # the fit at the next C differs: a rule that tested the next C would
        # reuse it
        problem = sweep_problem(0, "rbf", 2)
        _, fits, counts = self.sweep(monkeypatch, problem, (1.0, 10.0))
        fresh = dict(fits)
        low, high = fresh[1.0], fresh[10.0]
        assert 1.0 <= max(m.peak for m in low.machines) < 10.0
        assert not same_machines(low, high)
        assert counts["svm_fits"] == 2 and counts["svm_reused_fits"] == 0


@pytest.fixture(scope="module")
def report():
    ds = easy_dataset()
    return cross_validate(ds, CvConfig(folds=3, repeats=1, seed=0, **SINGLE_GRID))


class TestReportOutput:
    def test_results_obj_layout(self, report):
        obj = report.results_obj()
        assert obj["format"] == "nask-cv-report v1"
        assert obj["dataset"] == "easy2"
        assert obj["dataset_digest"] == report.dataset_digest
        assert obj["config"]["folds"] == 3
        assert isinstance(obj["config"]["gammas"], list)

    def test_environment_metadata_recorded(self, report):
        env = report.environment
        assert "tool_version" in env and "timestamp_utc" in env
        assert env["gram_seconds"]  # full mode computes at least one matrix
        assert 0 < env["svm_seconds"] < env["total_seconds"]
        assert env["gram_psd"]["gamma=1,H=1"]["psd"]
        assert not any("positive semidefinite" in w for w in report.warnings)
        assert env["convergence_warnings"] >= 0

    def test_text_rendering(self, report):
        text = report.to_text()
        assert "mean accuracy" in text
        assert "gamma" in text and "picked" in text
        assert TRANSDUCTIVE_NOTE.split(";")[0] in text

    def test_json_round_trip(self, report):
        obj = json.loads(report.to_json())
        assert obj["mean_accuracy"] == report.mean_accuracy
        assert len(obj["folds"]) == 3
