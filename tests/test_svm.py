"""Dual SVM training against hand-derived fixtures and a global oracle."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from nask.errors import ConfigError, DegenerateClassError, SvmError
from nask.svm import (
    BinarySvm,
    SvmModel,
    decision_function,
    load_model,
    predict,
    save_model,
    train_binary,
    train_ovr,
)

from oracles import brute_force_dual

# identity kernel, labels (+1, -1): the dual is 2a - a^2 along the
# constraint alpha_1 = alpha_2 = a, so alpha = (1, 1), W = 1, bias = 0
IDENTITY_ALPHA = (1.0, 1.0)
IDENTITY_OBJECTIVE = 1.0

# identical points with opposite labels: W = 2a, maximized at the box,
# so alpha = (C, C), W = 2C, bias = 0
DUPLICATE_OBJECTIVE_AT_C1 = 2.0


# svm_fingerprint() of the current solver: a change that moves these bits
# must say so in CHANGES.md
SVM_FINGERPRINT = "e0a59c76902516472dafeaf04be55784ab59952b1b0b8d1adc5588c980b3db84"


def random_psd_kernel(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n + 2))
    k = a @ a.T
    k += np.eye(n) * 0.5  # keep it comfortably full-rank
    return (k + k.T) / 2.0


def svm_fingerprint() -> str:
    """SHA-256 over alpha, bias, objective, iterations and convergence of
    seeded binary and one-vs-rest fits: PSD, RBF and indefinite kernels,
    small and large C, some fits capped at a few updates."""
    rng = np.random.default_rng(4242)
    digest = hashlib.sha256()

    def add(machine):
        digest.update(machine.alpha.tobytes())
        digest.update(np.array([machine.bias, machine.objective]).tobytes())
        digest.update(np.array([machine.iterations, machine.converged]).tobytes())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(150):
            n = int(rng.integers(4, 24))
            X = rng.integers(-3, 4, size=(n, 4)).astype(float)
            K = X @ X.T
            if trial % 3 == 1:
                K = np.exp(-0.3 * ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
            elif trial % 3 == 2:
                S = rng.integers(-3, 4, size=(n, n)).astype(float)
                K = K + S + S.T
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[:2] = (1.0, -1.0)
            C = float(rng.choice([0.05, 1.0, 20.0]))
            max_passes = int(rng.integers(1, 6)) if trial % 4 == 3 else None
            add(train_binary(K, y, C, max_passes=max_passes))
        for trial in range(30):
            n = int(rng.integers(6, 24))
            X = rng.normal(size=(n, 3))
            K = np.exp(-((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
            if trial % 3 == 2:
                S = rng.normal(size=(n, n))
                K = K + 0.5 * (S + S.T)
            labels = np.arange(n) % (2 + trial % 3)
            rng.shuffle(labels)
            C = float(rng.choice([0.05, 1.0, 20.0]))
            max_passes = int(rng.integers(1, 6)) if trial % 4 == 3 else None
            for machine in train_ovr(K, labels, C, max_passes=max_passes).machines:
                add(machine)
    return digest.hexdigest()


class TestHandFixtures:
    def test_identity_kernel_two_points(self):
        model = train_binary(np.eye(2), np.array([1.0, -1.0]), C=10.0)
        assert model.converged
        assert tuple(model.alpha) == IDENTITY_ALPHA
        assert model.objective == pytest.approx(IDENTITY_OBJECTIVE, abs=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)
        # decision on a kernel row (k1, k2) is k1 - k2
        assert model.decision_values(np.array([[0.8, 0.3]]))[0] == pytest.approx(0.5)

    def test_conflicting_duplicates_saturate_the_box(self):
        K = np.ones((2, 2))
        model = train_binary(K, np.array([1.0, -1.0]), C=1.0)
        assert np.array_equal(model.alpha, [1.0, 1.0])
        assert model.objective == pytest.approx(DUPLICATE_OBJECTIVE_AT_C1, abs=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)
        # both training rows sit on the decision boundary
        assert model.decision_values(K)[0] == pytest.approx(0.0, abs=1e-12)

    def test_support_excludes_exact_zeros(self):
        rng = np.random.default_rng(50)
        K = random_psd_kernel(rng, 8)
        y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        model = train_binary(K, y, C=1.0)
        assert np.all(model.alpha[model.support] > 0)
        untouched = np.setdiff1d(np.arange(8), model.support)
        assert np.all(model.alpha[untouched] == 0.0)


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    def test_objective_matches_brute_force(self, n, C):
        rng = np.random.default_rng(100 * n + int(C * 10))
        for trial in range(4):
            K = random_psd_kernel(rng, n)
            y = np.ones(n)
            y[rng.choice(n, size=n // 2, replace=False)] = -1.0
            model = train_binary(K, y, C=C, tol=1e-6, max_passes=50_000)
            best_w, best_alpha = brute_force_dual(K, y, C)
            assert model.objective == pytest.approx(best_w, abs=1e-4 * max(1.0, abs(best_w)))
            assert abs(float(y @ model.alpha)) <= 1e-6
            assert np.all(model.alpha >= -1e-6)
            assert np.all(model.alpha <= C + 1e-6)

    def test_alpha_matches_oracle_on_nondegenerate_problem(self):
        rng = np.random.default_rng(77)
        K = random_psd_kernel(rng, 5)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        model = train_binary(K, y, C=5.0, tol=1e-8, max_passes=100_000)
        _, best_alpha = brute_force_dual(K, y, 5.0)
        assert np.allclose(model.alpha, best_alpha, atol=1e-4)


class TestSolverProperties:
    def test_kkt_at_tolerance(self):
        rng = np.random.default_rng(51)
        n = 20
        K = random_psd_kernel(rng, n)
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0  # both signs guaranteed
        tol = 1e-3
        model = train_binary(K, y, C=1.0, tol=tol)
        assert model.converged
        alpha = model.alpha
        assert np.all((alpha >= 0.0) & (alpha <= 1.0))
        assert abs(float(y @ alpha)) <= 1e-9
        grad = (K * np.outer(y, y)) @ alpha - 1.0
        yg = -y * grad
        up = ((y > 0) & (alpha < 1.0)) | ((y < 0) & (alpha > 0))
        lo = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < 1.0))
        assert yg[up].max() - yg[lo].min() <= tol + 1e-12

    def test_objective_history_is_monotone(self):
        rng = np.random.default_rng(52)
        K = random_psd_kernel(rng, 12)
        y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        model = train_binary(K, y, C=2.0)
        # the objective after k updates is that of a fit capped at k updates
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            history = np.asarray([
                train_binary(K, y, C=2.0, max_passes=k).objective
                for k in range(model.iterations + 1)
            ])
        assert history.size >= 2
        assert np.all(np.diff(history) >= -1e-12)
        assert history[-1] == model.objective

    def test_scale_covariance_preserves_predictions(self):
        rng = np.random.default_rng(53)
        K = random_psd_kernel(rng, 10)
        y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        rows = random_psd_kernel(rng, 10)[:4]
        base = train_binary(K, y, C=1.0, tol=1e-8, max_passes=50_000)
        scaled = train_binary(4.0 * K, y, C=0.25, tol=1e-8, max_passes=50_000)
        d_base = base.decision_values(rows)
        d_scaled = scaled.decision_values(4.0 * rows)
        assert np.allclose(d_base, d_scaled, atol=1e-6)

    def test_non_convergence_warns_and_is_recorded(self):
        rng = np.random.default_rng(54)
        K = random_psd_kernel(rng, 16)
        y = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
        with pytest.warns(UserWarning, match="did not converge"):
            model = train_binary(K, y, C=100.0, max_passes=2)
        assert not model.converged
        assert model.iterations == 2
        # the partial model still predicts
        assert model.decision_values(K[:3]).shape == (3,)

    def test_peak_bounds_every_alpha(self):
        rng = np.random.default_rng(55)
        K = random_psd_kernel(rng, 12)
        y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        for C in (0.01, 1.0, 100.0):
            model = train_binary(K, y, C=C)
            assert model.alpha.max() <= model.peak

    def test_a_zero_bias_keeps_its_sign(self):
        # the bias sums to an exact zero, whose sign the order of the
        # solver's arithmetic fixes; updating -y * grad in place of the
        # gradient gives +0.0 here
        K = np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0, 1.0, 2.0]])
        model = train_binary(K, np.array([1.0, -1.0, 1.0]), C=1.0)
        assert model.bias == 0.0 and math.copysign(1.0, model.bias) == -1.0

    def test_seeded_fits_match_the_pinned_fingerprint(self):
        assert svm_fingerprint() == SVM_FINGERPRINT


class TestValidation:
    def test_labels_must_be_signs(self):
        with pytest.raises(SvmError, match="-1 or \\+1"):
            train_binary(np.eye(2), np.array([1.0, 0.0]), C=1.0)

    def test_both_signs_required(self):
        with pytest.raises(DegenerateClassError):
            train_binary(np.eye(2), np.array([1.0, 1.0]), C=1.0)

    def test_kernel_shape_checked(self):
        with pytest.raises(SvmError, match="shape"):
            train_binary(np.eye(3), np.array([1.0, -1.0]), C=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("train", ["binary", "ovr"])
    def test_non_finite_kernel_entries_are_named(self, bad, train):
        K = np.eye(4)
        K[2, 1] = K[1, 2] = K[3, 0] = bad
        with pytest.raises(SvmError, match=re.escape(f"entry (1, 2) is {bad}, not finite")):
            if train == "binary":
                train_binary(K, np.array([1.0, -1.0, 1.0, -1.0]), C=1.0)
            else:
                train_ovr(K, np.array([0, 1, 2, 0]), C=1.0)

    def test_cost_must_be_positive(self):
        for cost in (0.0, float("nan"), float("inf"), True, "1"):
            with pytest.raises(ConfigError, match="finite"):
                train_binary(np.eye(2), np.array([1.0, -1.0]), C=cost)

    @pytest.mark.parametrize(
        "limits",
        [
            dict(tol=float("nan")),
            dict(tol=float("inf")),
            dict(tol=-1.0),
            dict(tol=True),
            dict(tol="0.1"),
            dict(max_passes=-3),
            dict(max_passes=2.7),
            dict(max_passes=True),
            dict(max_passes="5"),
        ],
    )
    def test_solver_limits_checked(self, limits):
        with pytest.raises(ConfigError, match="tol|max_passes"):
            train_binary(np.eye(2), np.array([1.0, -1.0]), C=1.0, **limits)

    def test_zero_limits_and_numpy_integers_accepted(self):
        K, y = np.eye(2), np.array([1.0, -1.0])
        with pytest.warns(UserWarning, match="did not converge"):
            assert train_binary(K, y, C=1.0, max_passes=0).iterations == 0
        assert train_binary(K, y, C=1.0, tol=0, max_passes=np.int64(5)).converged

    def test_decision_function_width_checked(self):
        model = train_ovr(np.eye(4), np.array([0, 1, 0, 1]), C=1.0)
        with pytest.raises(SvmError, match="width"):
            decision_function(model, np.ones((2, 3)))


class TestMulticlass:
    def make_problem(self, seed=60, n=15, classes=3):
        rng = np.random.default_rng(seed)
        K = random_psd_kernel(rng, n)
        labels = np.arange(n) % classes
        return K, labels

    def test_two_classes_collapse_to_one_machine(self):
        K, labels = self.make_problem(classes=2)
        model = train_ovr(K, labels, C=1.0)
        assert len(model.machines) == 1
        assert model.machines[0].positive_class == 1
        binary = train_binary(K, np.where(labels == 1, 1.0, -1.0), C=1.0, positive_class=1)
        assert np.array_equal(model.machines[0].alpha, binary.alpha)
        rows = K[:5]
        expected = np.where(binary.decision_values(rows) >= 0, 1, 0)
        assert np.array_equal(predict(model, rows), expected)

    def test_three_classes_train_one_machine_each(self):
        K, labels = self.make_problem()
        model = train_ovr(K, labels, C=1.0)
        assert model.classes == (0, 1, 2)
        assert [m.positive_class for m in model.machines] == [0, 1, 2]
        predictions = predict(model, K)
        assert set(np.unique(predictions)) <= {0, 1, 2}
        # training accuracy should beat chance comfortably on a full-rank kernel
        assert float(np.mean(predictions == labels)) > 0.5

    def test_single_row_returns_int(self):
        K, labels = self.make_problem()
        model = train_ovr(K, labels, C=1.0)
        single = predict(model, K[0])
        assert isinstance(single, int)

    def test_argmax_tie_resolves_to_lowest_class(self):
        empty = np.array([], dtype=np.int64)
        machines = tuple(
            BinarySvm(
                positive_class=c, bias=bias, support=empty,
                dual_coef=np.array([]), C=1.0, n_train=3, converged=True,
                iterations=0, objective=0.0,
            )
            for c, bias in ((0, 0.7), (1, 0.7), (2, 0.2))
        )
        model = SvmModel(classes=(0, 1, 2), machines=machines, C=1.0, n_train=3)
        assert predict(model, np.zeros((1, 3)))[0] == 0

    def test_degenerate_class_sets_rejected(self):
        K, labels = self.make_problem()
        with pytest.raises(DegenerateClassError):
            train_ovr(K, np.zeros_like(labels), C=1.0)

    @pytest.mark.parametrize("labels, named", [
        ([1.5, 0.5, 1.5, 0.5], "0.5"),
        ([0.0, 1.0, 0.0, np.nan], "nan"),
    ])
    def test_non_integral_labels_are_named(self, labels, named):
        with pytest.raises(SvmError, match=f"got {named}$") as caught:
            train_ovr(np.eye(4), labels, C=1.0)
        assert not isinstance(caught.value, DegenerateClassError)

    def test_integral_float_and_bool_labels_train_like_integers(self):
        K, labels = self.make_problem(classes=2)
        expected = train_ovr(K, labels, C=1.0)
        for same in (labels.astype(np.float64), labels.astype(bool)):
            model = train_ovr(K, same, C=1.0)
            assert model.classes == expected.classes == (0, 1)
            assert np.array_equal(model.machines[0].alpha, expected.machines[0].alpha)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(61)
        K = random_psd_kernel(rng, 12)
        labels = np.arange(12) % 3
        model = train_ovr(K, labels, C=2.0, max_passes=50_000, gram_digest="abc123")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.classes == model.classes
        assert loaded.gram_digest == "abc123"
        assert loaded.machines[0].alpha is None
        assert loaded.machines[0].peak is None
        rows = K[:6]
        assert np.array_equal(predict(loaded, rows), predict(model, rows))
        assert np.allclose(
            decision_function(loaded, rows), decision_function(model, rows)
        )

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something else"}')
        with pytest.raises(SvmError, match="format"):
            load_model(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(SvmError):
            load_model(tmp_path / "missing.json")
