"""Stratified repeated k-fold cross-validation with nested model selection.

The outer loop measures accuracy on held-out folds; hyperparameters
(gamma, depth, normalization, C) are chosen per outer fold by an inner
cross-validation on the training portion only. Kernel matrices are
computed once per gamma on the full dataset, one pass yielding every grid
depth, and sub-indexed per fold: kernel values between two graphs do not
depend on the split, only the dataset-wide attribute ranges do, and that
transductive caveat is stamped into every report. A per-fold range mode recomputes ranges from
training graphs only, for auditing the effect. Each Gram is checked for
PSD when it is computed; SVM fits that hit their update cap are counted
from the models into `environment.convergence_warnings`.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .datasets import Dataset, compute_ranges
from .errors import ConfigError
from .expansion import ExpansionPlan
from .gram import check_psd, compute_gram, normalize_gram
from .similarity import SimilarityParams
from .svm import predict, train_ovr
from .version import __version__

TRANSDUCTIVE_NOTE = (
    "attribute ranges were computed on the full dataset before splitting; "
    "kernel values between two fixed graphs are split-independent, but the "
    "range statistics are transductive"
)

RANGE_MODES = ("full", "per-fold")


@dataclass(frozen=True)
class CvConfig:
    """Protocol parameters and the hyperparameter grid."""

    folds: int = 10
    repeats: int = 10
    seed: int = 0
    gammas: tuple = (0.1, 1.0, 10.0)
    depths: tuple = (1, 2, 3, 4)
    normalize_options: tuple = (True, False)
    costs: tuple = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
    inner_folds: int = 3
    range_mode: str = "full"
    tau: float = 0.0
    edge_elements: str = "auto"
    threads: int = 1

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.inner_folds < 2:
            raise ConfigError(f"inner_folds must be >= 2, got {self.inner_folds}")
        for name in ("gammas", "depths", "normalize_options", "costs"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be a non-empty grid")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values!r}")
        if any(g <= 0 for g in self.gammas):
            raise ConfigError("gammas must be positive")
        if any(int(h) != h or h < 1 for h in self.depths):
            raise ConfigError("depths must be integers >= 1")
        if any(c <= 0 for c in self.costs):
            raise ConfigError("costs must be positive")
        if self.range_mode not in RANGE_MODES:
            raise ConfigError(f"range_mode must be one of {RANGE_MODES}")

    def grid(self) -> list[tuple]:
        """Canonical (gamma, depth, normalize, C) order; ties resolve to first."""
        return [
            (gamma, int(depth), normalize, cost)
            for gamma in self.gammas
            for depth in self.depths
            for normalize in self.normalize_options
            for cost in self.costs
        ]


@dataclass(frozen=True)
class CvReport:
    """Cross-validation outcome; everything except `environment` is
    bit-reproducible for a fixed config and dataset."""

    dataset_name: str
    dataset_digest: str
    config: dict
    transductive_note: str | None
    warnings: tuple
    folds: tuple
    outer_accuracies: tuple
    mean_accuracy: float
    std_accuracy: float
    per_config: tuple
    environment: dict

    def results_obj(self) -> dict:
        return {
            "format": "nask-cv-report v1",
            "dataset": self.dataset_name,
            "dataset_digest": self.dataset_digest,
            "config": self.config,
            "transductive_note": self.transductive_note,
            "warnings": list(self.warnings),
            "folds": [dict(f) for f in self.folds],
            "outer_accuracies": list(self.outer_accuracies),
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "per_config": [dict(c) for c in self.per_config],
        }

    def results_digest(self) -> str:
        payload = json.dumps(self.results_obj(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_json(self) -> str:
        obj = self.results_obj()
        obj["environment"] = self.environment
        return json.dumps(obj, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"dataset: {self.dataset_name}",
            f"digest:  {self.dataset_digest}",
            f"mean accuracy: {self.mean_accuracy:.4f} +/- {self.std_accuracy:.4f} "
            f"over {len(self.outer_accuracies)} folds",
        ]
        if self.transductive_note:
            lines.append(f"note: {self.transductive_note}")
        for message in self.warnings:
            lines.append(f"warning: {message}")
        lines.append("")
        header = f"{'gamma':>8} {'H':>3} {'normalize':>9} {'C':>10} {'picked':>6} {'inner_acc':>9}"
        lines.append(header)
        for entry in self.per_config:
            inner = entry["mean_inner_accuracy"]
            lines.append(
                f"{entry['gamma']:>8g} {entry['H']:>3d} "
                f"{'on' if entry['normalize'] else 'off':>9} {entry['C']:>10g} "
                f"{entry['times_selected']:>6d} "
                f"{'-' if inner is None else format(inner, '.4f'):>9}"
            )
        lines.append("")
        return "\n".join(lines)


def stratified_folds(labels, k: int, seed) -> list[np.ndarray]:
    """Partition indices into k folds balancing every class to within one.

    Falls back to a plain seeded split (with a warning) when some class has
    fewer members than k. Deterministic for a fixed seed.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k < 2:
        raise ConfigError(f"folds must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"cannot split {n} examples into {k} folds")
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(labels, return_counts=True)
    if counts.min() < k:
        warnings.warn(
            f"class with {int(counts.min())} examples cannot stratify into {k} folds; "
            "falling back to plain splits"
        )
        perm = rng.permutation(n)
        return [np.sort(chunk) for chunk in np.array_split(perm, k)]
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    for c in classes:
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        for value in idx:
            folds[cursor % k].append(int(value))
            cursor += 1
    return [np.array(sorted(fold), dtype=np.int64) for fold in folds]


class _GramBank:
    """Lazy per-gamma Gram matrices for every grid depth, with normalized variants.

    One compute_gram pass per gamma yields the Gram of each depth in the
    grid, and every raw Gram gets a spectral PSD verdict. `psd` is keyed
    `{prefix}gamma=...,H=...` per Gram; `seconds` has one entry per pass,
    keyed by its deepest depth.
    """

    def __init__(self, ds: Dataset, cfg: CvConfig, prefix: str = ""):
        self.ds = ds
        self.cfg = cfg
        self.prefix = prefix
        self._raw: dict = {}
        self._normalized: dict = {}
        self.seconds: dict = {}
        self.psd: dict = {}

    def matrix(self, gamma: float, depth: int, normalized: bool) -> np.ndarray:
        key = (float(gamma), int(depth))
        if key not in self._raw:
            self._compute(gamma)
        if not normalized:
            return self._raw[key].values
        if key not in self._normalized:
            self._normalized[key] = normalize_gram(self._raw[key])
        return self._normalized[key].values

    def _compute(self, gamma: float) -> None:
        depths = tuple(int(h) for h in self.cfg.depths)
        deepest = max(depths)
        started = time.perf_counter()
        grams = compute_gram(
            self.ds,
            SimilarityParams(gamma=gamma),
            ExpansionPlan(max_depth=deepest),
            tau=self.cfg.tau,
            edge_elements=self.cfg.edge_elements,
            threads=self.cfg.threads,
            depths=depths,
        )
        label = f"{self.prefix}gamma={gamma:g},H={deepest}"
        self.seconds[label] = round(time.perf_counter() - started, 6)
        for depth, gram in grams.items():
            self._raw[(float(gamma), depth)] = gram
            verdict = check_psd(gram)
            self.psd[f"{self.prefix}gamma={gamma:g},H={depth}"] = {
                "psd": verdict.psd, "min_eig": verdict.min_eig, "max_eig": verdict.max_eig,
            }


def _fit_and_score(values, labels, train_idx, eval_idx, cost) -> tuple[float, int]:
    """Held-out accuracy and the count of unconverged machines, whose warnings are muted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_ovr(values[np.ix_(train_idx, train_idx)], labels[train_idx], cost)
        predicted = predict(model, values[np.ix_(eval_idx, train_idx)])
    accuracy = float(np.mean(predicted == labels[eval_idx]))
    return accuracy, sum(not m.converged for m in model.machines)


def cross_validate(ds: Dataset, cfg: CvConfig) -> CvReport:
    """Run the full protocol and assemble the report."""
    started = time.perf_counter()
    labels = np.asarray(ds.labels)
    n = ds.num_graphs
    if cfg.folds > n:
        raise ConfigError(f"cannot run {cfg.folds} folds on {n} graphs")
    if ds.num_classes < 2:
        raise ConfigError("cross-validation needs at least 2 classes")
    grid = cfg.grid()
    collected: list[str] = []
    convergence_warnings = 0
    bank = _GramBank(compute_ranges(ds), cfg) if cfg.range_mode == "full" else None

    def split(fold_labels, k, *seed_path):
        """Stratified folds; fallback warnings go into the report once each."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            folds = stratified_folds(fold_labels, k, np.random.SeedSequence([cfg.seed, *seed_path]))
        for w in caught:
            message = str(w.message)
            if message not in collected:
                collected.append(message)
        return folds

    fold_entries = []
    outer_accuracies = []
    pick_counts = {config: 0 for config in grid}
    inner_sums = {config: [0.0, 0] for config in grid}
    gram_seconds: dict = {}
    gram_psd: dict = {}

    for repeat in range(cfg.repeats):
        folds = split(labels, cfg.folds, repeat)
        all_idx = np.arange(n)
        for fold_id, test_idx in enumerate(folds):
            train_idx = np.setdiff1d(all_idx, test_idx)
            assert not np.intersect1d(train_idx, test_idx).size
            fold_bank = bank
            if cfg.range_mode == "per-fold":
                fold_ds = compute_ranges(ds, train_idx)
                fold_bank = _GramBank(fold_ds, cfg, prefix=f"repeat={repeat},fold={fold_id},")

            def score(config, tr, ev):
                nonlocal convergence_warnings
                gamma, depth, normalize, cost = config
                values = fold_bank.matrix(gamma, depth, normalize)
                accuracy, unconverged = _fit_and_score(values, labels, tr, ev, cost)
                convergence_warnings += unconverged
                return accuracy

            if len(grid) == 1:
                best = grid[0]
                best_inner = None
            else:
                inner = split(labels[train_idx], cfg.inner_folds, repeat, fold_id)
                inner_global = [train_idx[positions] for positions in inner]
                inner_pairs = []
                for val_idx in inner_global:
                    assert not np.intersect1d(val_idx, test_idx).size
                    inner_pairs.append((np.setdiff1d(train_idx, val_idx), val_idx))
                best, best_inner = None, -1.0
                for config in grid:
                    total = 0.0
                    for inner_train, val_idx in inner_pairs:
                        total += score(config, inner_train, val_idx)
                    mean_inner = total / len(inner_pairs)
                    stats = inner_sums[config]
                    stats[0] += mean_inner
                    stats[1] += 1
                    if mean_inner > best_inner:
                        best, best_inner = config, mean_inner
            accuracy = score(best, train_idx, test_idx)
            gamma, depth, normalize, cost = best
            pick_counts[best] += 1
            gram_seconds.update(fold_bank.seconds)
            gram_psd.update(fold_bank.psd)
            outer_accuracies.append(accuracy)
            fold_entries.append(
                {
                    "repeat": repeat,
                    "fold": fold_id,
                    "test_indices": [int(i) for i in test_idx],
                    "train_size": int(train_idx.size),
                    "accuracy": accuracy,
                    "selected": {
                        "gamma": gamma,
                        "H": depth,
                        "normalize": normalize,
                        "C": cost,
                    },
                    "inner_accuracy": best_inner,
                }
            )

    for label, verdict in gram_psd.items():
        if not verdict["psd"]:
            collected.append(
                f"Gram {label} is not positive semidefinite (see environment.gram_psd); "
                "the SVM trained on an indefinite kernel"
            )
    accuracies = np.asarray(outer_accuracies)
    per_config = []
    for config in grid:
        gamma, depth, normalize, cost = config
        total, count = inner_sums[config]
        per_config.append(
            {
                "gamma": gamma,
                "H": depth,
                "normalize": normalize,
                "C": cost,
                "times_selected": pick_counts[config],
                "mean_inner_accuracy": (total / count) if count else None,
            }
        )
    environment = {
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "total_seconds": round(time.perf_counter() - started, 6),
        "gram_seconds": gram_seconds,
        "gram_psd": gram_psd,
        "convergence_warnings": convergence_warnings,
    }
    config_obj = asdict(cfg)
    for key, value in config_obj.items():
        if isinstance(value, tuple):
            config_obj[key] = list(value)
    return CvReport(
        dataset_name=ds.name,
        dataset_digest=ds.digest,
        config=config_obj,
        transductive_note=TRANSDUCTIVE_NOTE if cfg.range_mode == "full" else None,
        warnings=tuple(collected),
        folds=tuple(fold_entries),
        outer_accuracies=tuple(accuracies.tolist()),
        mean_accuracy=float(accuracies.mean()),
        std_accuracy=float(accuracies.std()),
        per_config=tuple(per_config),
        environment=environment,
    )
