"""Stratified repeated k-fold cross-validation with nested model selection.

The outer loop measures accuracy on held-out folds; hyperparameters
(gamma, depth, normalization, C) are chosen per outer fold by an inner
cross-validation on the training portion only. A run takes three steps:

1. A kernel table maps each grid (gamma, depth) to its raw Gram, one
   kernel pass per gamma yielding every grid depth, with a PSD check of
   each Gram. It is built once on the full dataset and sub-indexed
   per fold: kernel values between two graphs do not depend on the split,
   only the dataset-wide attribute ranges do, and that transductive caveat
   is stamped into every report. A per-fold range mode builds a table per
   fold from training-graph ranges only, for auditing the effect.
2. One cost sweep per split and table entry slices the entry's train and
   held-out blocks once, cosine-normalizes a copy of them for the
   normalized grid points, and fits the costs on each pair in ascending
   order, reusing each fit that never touched the box for the larger
   costs. `environment` counts the fresh fits, the reused ones, the SMO
   updates, and the machines that hit their update cap per grid point
   (`unconverged_by_config`) and in all (`convergence_warnings`, their
   sum), and the seconds all sweeps took (`svm_seconds`).
3. Selection averages each grid point's inner accuracies and picks the
   first maximum in the canonical grid order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .datasets import Dataset, compute_ranges
from .errors import ConfigError, is_integer, is_real
from .expansion import ExpansionPlan
from .gram import _cosine, _positive_diagonal, check_psd, compute_gram
from .similarity import SimilarityParams
from .stars import EDGE_MODES, check_tau
from .svm import KernelBlock, predict, train_ovr
from .version import __version__

TRANSDUCTIVE_NOTE = (
    "attribute ranges were computed on the full dataset before splitting; "
    "kernel values between two fixed graphs are split-independent, but the "
    "range statistics are transductive"
)

RANGE_MODES = ("full", "per-fold")
_GRID_KEYS = ("gamma", "H", "normalize", "C")  # report names of a grid point's fields


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
        for name, least in (
            ("folds", 2), ("repeats", 1), ("inner_folds", 2), ("threads", 1), ("seed", 0)
        ):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("gammas", "depths", "normalize_options", "costs"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be a non-empty grid")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values!r}")
        if not all(is_real(g) and math.isfinite(g) and g > 0 for g in self.gammas):
            raise ConfigError("gammas must be finite and positive")
        if not all(is_integer(h) and h >= 1 for h in self.depths):
            raise ConfigError("depths must be integers >= 1")
        if not all(is_real(c) and math.isfinite(c) and c > 0 for c in self.costs):
            raise ConfigError("costs must be finite and positive")
        if not all(isinstance(v, (bool, np.bool_)) for v in self.normalize_options):
            raise ConfigError("normalize_options must be bools")
        if self.range_mode not in RANGE_MODES:
            raise ConfigError(f"range_mode must be one of {RANGE_MODES}")
        check_tau(self.tau)
        if self.edge_elements not in EDGE_MODES:
            raise ConfigError(
                f"edge_elements must be one of {EDGE_MODES}, got {self.edge_elements!r}"
            )

    def grid(self) -> list[tuple]:
        """Canonical (gamma, depth, normalize, C) order; ties resolve to first."""
        return [
            (gamma, int(depth), bool(normalize), cost)
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


def _plain(value):
    """A numpy scalar as the Python number it holds, for the JSON report."""
    return value.item() if isinstance(value, np.generic) else value


def stratified_folds(labels, k: int, seed) -> list[np.ndarray]:
    """Partition indices into k folds balancing every class to within one.

    Falls back to a plain seeded split (with a warning) when some class has
    fewer members than k. Deterministic for a fixed seed.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if not is_integer(k) or k < 2:
        raise ConfigError(f"folds must be an integer >= 2, got {k!r}")
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


def _kernel_table(ds: Dataset, cfg: CvConfig, prefix: str, seconds: dict, psd: dict) -> dict:
    """The raw Gram values of every grid (gamma, depth) of `ds`, one pass per gamma.

    A pass at the deepest grid depth yields the Gram of each grid depth, and
    every Gram gets a spectral PSD verdict. When the grid normalizes, each
    Gram's diagonal is checked here, so a nonpositive entry fails before any
    fold. `psd` gains one entry per Gram, keyed `{prefix}gamma=G,H=D`;
    `seconds` one per pass, keyed by its deepest depth. G is
    `_label(gamma)`.
    """
    depths = tuple(int(h) for h in cfg.depths)
    deepest = max(depths)
    table = {}
    for gamma in cfg.gammas:
        label = _label(gamma)
        started = time.perf_counter()
        grams = compute_gram(
            ds,
            SimilarityParams(gamma=gamma),
            ExpansionPlan(max_depth=deepest),
            tau=cfg.tau,
            edge_elements=cfg.edge_elements,
            threads=cfg.threads,
            depths=depths,
        )
        seconds[f"{prefix}gamma={label},H={deepest}"] = round(time.perf_counter() - started, 6)
        for depth, gram in grams.items():
            verdict = check_psd(gram)
            psd[f"{prefix}gamma={label},H={depth}"] = {
                "psd": verdict.psd, "min_eig": verdict.min_eig, "max_eig": verdict.max_eig,
            }
            if any(cfg.normalize_options):
                _positive_diagonal(gram.values)
            table[gamma, depth] = gram.values
    return table


def _label(value) -> str:
    """A grid value as `:g` prints it, or its repr if that rounds."""
    return f"{value:g}" if float(f"{value:g}") == value else repr(float(value))


def _cost_sweep(values, labels, train_idx, eval_idx, normalize_options, costs, counts) -> dict:
    """Held-out accuracy and unconverged machines of one fit per
    normalization and cost, keyed `(normalize, cost)`, on the train and
    held-out blocks sliced once from the raw Gram `values`. A normalized
    pair of blocks is the raw pair cosine-normalized by the Gram's
    diagonal: the same bits as slicing normalize_gram's values. Each
    normalization's training block is prepared once, as a KernelBlock, for
    all its fits.

    Costs are walked in ascending order. A fit whose every machine peaked
    strictly below its own C never touched the box, so it is the fit at any
    larger C, bit for bit: it and its accuracy are reused until a fit
    reaches the box. `counts` gains the fresh fits, the reused ones, the
    SMO updates of the fresh ones, and the sweep's wall time in
    `svm_seconds`; the SMO warnings are muted.
    """
    started = time.perf_counter()
    raw_train = values[np.ix_(train_idx, train_idx)]
    raw_eval = values[np.ix_(eval_idx, train_idx)]
    diag = values.diagonal()
    train_labels, eval_labels = labels[train_idx], labels[eval_idx]
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for normalize in normalize_options:
            train_block, eval_block = raw_train, raw_eval
            if normalize:
                train_block = _cosine(raw_train, diag[train_idx], diag[train_idx])
                eval_block = _cosine(raw_eval, diag[eval_idx], diag[train_idx])
            block = KernelBlock(train_block, train_labels)
            model = None
            for k in np.argsort(costs, kind="stable"):
                if model is not None and all(m.peak < model.C for m in model.machines):
                    counts["svm_reused_fits"] += 1
                else:
                    model = train_ovr(block, train_labels, costs[k])
                    accuracy = float(np.mean(predict(model, eval_block) == eval_labels))
                    counts["svm_fits"] += 1
                    counts["svm_updates"] += sum(m.iterations for m in model.machines)
                missed = sum(not m.converged for m in model.machines)
                results[normalize, costs[k]] = accuracy, missed
    counts["svm_seconds"] += time.perf_counter() - started
    return results


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
    selections = cfg.folds * cfg.repeats if len(grid) > 1 else 0
    smallest_train = n - math.ceil(n / cfg.folds)
    if selections and cfg.inner_folds > smallest_train:
        raise ConfigError(
            f"cannot run {cfg.inner_folds} inner folds on an outer training "
            f"portion of {smallest_train} graphs"
        )
    digest = ds.digest  # read before compute_ranges, whose copies carry it along
    collected: list[str] = []
    counts = dict.fromkeys(("svm_seconds", "svm_fits", "svm_reused_fits", "svm_updates"), 0)
    gram_seconds: dict = {}
    gram_psd: dict = {}
    if cfg.range_mode == "full":
        table = _kernel_table(compute_ranges(ds), cfg, "", gram_seconds, gram_psd)

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
    pick_counts = dict.fromkeys(grid, 0)
    inner_sums = dict.fromkeys(grid, 0.0)
    unconverged = dict.fromkeys(grid, 0)  # by grid point, inner and outer fits

    for repeat in range(cfg.repeats):
        for fold_id, test_idx in enumerate(split(labels, cfg.folds, repeat)):
            train_idx = np.setdiff1d(np.arange(n), test_idx)
            assert not np.intersect1d(train_idx, test_idx).size
            if cfg.range_mode == "per-fold":
                table = None  # drop the last fold's matrices before building this fold's
                table = _kernel_table(
                    compute_ranges(ds, train_idx), cfg, f"repeat={repeat},fold={fold_id},",
                    gram_seconds, gram_psd,
                )

            best, best_inner = grid[0], None
            if selections:
                inner = split(labels[train_idx], cfg.inner_folds, repeat, fold_id)
                totals = dict.fromkeys(grid, 0.0)
                for positions in inner:
                    val_idx = train_idx[positions]
                    assert not np.intersect1d(val_idx, test_idx).size
                    inner_train = np.setdiff1d(train_idx, val_idx)
                    for (gamma, depth), values in table.items():
                        swept = _cost_sweep(values, labels, inner_train, val_idx,
                                            cfg.normalize_options, cfg.costs, counts)
                        for (normalize, cost), (accuracy, missed) in swept.items():
                            totals[gamma, depth, normalize, cost] += accuracy
                            unconverged[gamma, depth, normalize, cost] += missed
                means = {config: totals[config] / len(inner) for config in grid}
                for config in grid:
                    inner_sums[config] += means[config]
                best = max(grid, key=means.__getitem__)  # ties resolve to the first
                best_inner = means[best]
            gamma, depth, normalize, cost = best
            ((accuracy, missed),) = _cost_sweep(
                table[gamma, depth], labels, train_idx, test_idx, (normalize,), (cost,), counts,
            ).values()
            unconverged[best] += missed
            pick_counts[best] += 1
            outer_accuracies.append(accuracy)
            fold_entries.append(
                {
                    "repeat": repeat,
                    "fold": fold_id,
                    "test_indices": [int(i) for i in test_idx],
                    "train_size": int(train_idx.size),
                    "accuracy": accuracy,
                    "selected": dict(zip(_GRID_KEYS, best)),
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
    per_config = [
        {
            **dict(zip(_GRID_KEYS, config)),
            "times_selected": pick_counts[config],
            "mean_inner_accuracy": inner_sums[config] / selections if selections else None,
        }
        for config in grid
    ]
    environment = {
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "total_seconds": round(time.perf_counter() - started, 6),
        "gram_seconds": gram_seconds,
        "svm_seconds": round(counts.pop("svm_seconds"), 6),
        "gram_psd": gram_psd,
        "convergence_warnings": sum(unconverged.values()),
        **counts,
        "unconverged_by_config": {
            f"gamma={_label(g)},H={h},normalize={b},C={_label(c)}": unconverged[g, h, b, c]
            for g, h, b, c in grid
        },
    }
    config_obj = asdict(cfg)
    for key, value in config_obj.items():
        if isinstance(value, tuple):
            config_obj[key] = [_plain(v) for v in value]
        else:
            config_obj[key] = _plain(value)
    return CvReport(
        dataset_name=ds.name,
        dataset_digest=digest,
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
