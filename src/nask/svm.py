"""Precomputed-kernel soft-margin SVM with one-vs-rest multiclass.

The binary solver is sequential minimal optimization over the dual with
max-violating-pair working-set selection, lowest-index tie-breaking, and
an analytic two-variable subproblem clipped to the box by one rule per
constraint type. It maintains the gradient of the dual objective and the
two working-set masks incrementally, so one update costs O(n). A fit that
hits its update cap warns and returns with `converged` false. Models store
only what prediction needs: support indices, dual coefficients, and the
bias.

A fresh machine also records its `peak`, the largest tentative value of
its updates: every alpha right after the analytic step, and every
same-sign total alpha_i + alpha_j. C enters the solver only through
comparisons and the clips they trigger, and every value compared with C,
like every alpha the solver ever holds, is at most the peak. So a fit
whose peak lies strictly below its own C never touched the box, and at any
larger C every branch goes the same way: alpha, support, bias, objective,
iterations and `converged` are bit for bit the fit at that C.
Cross-validation reuses such fits across its cost grid. Machines read back
by `load_model` carry no peak.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateClassError, SvmError, is_integer, is_real

_TAU = 1e-12  # guard for non-positive curvature in the two-variable subproblem


@dataclass(frozen=True)
class BinarySvm:
    """One trained binary machine (positive class versus the rest)."""

    positive_class: int | None
    bias: float
    support: np.ndarray
    dual_coef: np.ndarray
    C: float
    n_train: int
    converged: bool
    iterations: int
    objective: float
    alpha: np.ndarray | None = None
    peak: float | None = None  # below C: the same fit at every larger C

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, self.support] @ self.dual_coef + self.bias


@dataclass(frozen=True)
class SvmModel:
    """Per-class binary machines plus the class list they discriminate."""

    classes: tuple
    machines: tuple
    C: float
    n_train: int
    gram_digest: str | None = None

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.machines)


def _as_matrix(K) -> np.ndarray:
    values = getattr(K, "values", K)
    return np.asarray(values, dtype=np.float64)


def train_binary(
    K,
    y,
    C: float,
    tol: float = 1e-3,
    max_passes: int | None = None,
    positive_class: int | None = None,
) -> BinarySvm:
    """Solve the dual on a precomputed kernel for labels in {-1, +1}.

    max_passes caps the number of working-set updates (default 10n);
    exceeding it yields a warning carried in the model, not a failure.
    """
    K = _as_matrix(K)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if K.ndim != 2 or K.shape != (n, n):
        raise SvmError(f"kernel block of shape {K.shape} for {n} labels")
    if not np.all(np.abs(y) == 1.0):
        raise SvmError("labels must be -1 or +1")
    if not (y > 0).any() or not (y < 0).any():
        raise DegenerateClassError("both label signs are required for training")
    if not (is_real(C) and math.isfinite(C) and C > 0):
        raise ConfigError(f"C must be finite and > 0, got {C}")
    if not (is_real(tol) and math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol!r}")
    if max_passes is not None and not (is_integer(max_passes) and max_passes >= 0):
        raise ConfigError(f"max_passes must be an integer >= 0, got {max_passes!r}")
    max_iter = 10 * n if max_passes is None else int(max_passes)
    C = float(C)

    Kd = K.diagonal().tolist()
    # row k is column k of K * yy': an update reads two contiguous rows, with
    # the values of the columns even where K is not exactly symmetric
    Q = np.multiply(K.T, np.outer(y, y), order="C")
    signs = y.tolist()
    neg_y = -y
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of (1/2 a'Qa - sum a)
    yg = np.empty(n)
    # indices whose y*alpha may still rise (up) or fall (lo), kept in step
    # with alpha at the two indices each update moves. Neither set is ever
    # empty: emptying one puts every alpha of one label sign at one bound and
    # every alpha of the other sign at the opposite bound, which
    # sum(y * alpha) = 0 rules out when both signs are present.
    up, lo = y > 0, y < 0
    up_yg, lo_yg = np.full(n, -np.inf), np.full(n, np.inf)  # yg inside each set
    inc, step = np.empty(n), np.empty(n)
    converged = False
    iterations = 0
    peak = 0.0

    for _ in range(max_iter):
        np.multiply(neg_y, grad, out=yg)
        np.copyto(up_yg, yg, where=up)
        np.copyto(lo_yg, yg, where=lo)
        i = int(up_yg.argmax())
        j = int(lo_yg.argmin())
        if yg.item(i) - yg.item(j) <= tol:
            converged = True
            break
        iterations += 1
        old_i, old_j = alpha.item(i), alpha.item(j)
        grad_i, grad_j = grad.item(i), grad.item(j)
        quad = Kd[i] + Kd[j] - 2.0 * K.item(i, j)
        if quad <= 0:
            quad = _TAU
        if signs[i] != signs[j]:
            # alpha_i - alpha_j is fixed: clip the smaller one at 0, the larger at C
            delta = (-grad_i - grad_j) / quad
            diff = old_i - old_j
            pair = [old_i + delta, old_j + delta]
            peak = max(peak, *pair)
            low, high, gap = (1, 0, diff) if diff > 0 else (0, 1, -diff)
            if pair[low] < 0:
                pair[low], pair[high] = 0.0, gap
            if pair[high] > C:
                pair[high], pair[low] = C, C - gap
        else:
            # alpha_i + alpha_j is fixed: a total above C clips at C, else at 0
            delta = (grad_i - grad_j) / quad
            total = old_i + old_j
            pair = [old_i - delta, old_j + delta]
            peak = max(peak, total, *pair)
            for a, b in ((0, 1), (1, 0)):
                if total > C and pair[a] > C:
                    pair[a], pair[b] = C, total - C
                elif total <= C and pair[b] < 0:
                    pair[b], pair[a] = 0.0, total
        new_i, new_j = pair
        alpha[i], alpha[j] = pair
        for k, value in ((i, new_i), (j, new_j)):
            below, above = value < C, value > 0
            up[k], lo[k] = (below, above) if signs[k] > 0 else (above, below)
            if not up[k]:
                up_yg[k] = -np.inf
            if not lo[k]:
                lo_yg[k] = np.inf
        # grad += Q[i] (new_i - old_i) + Q[j] (new_j - old_j), in place
        np.multiply(Q[i], new_i - old_i, out=inc)
        np.multiply(Q[j], new_j - old_j, out=step)
        inc += step
        grad += inc
    else:
        warnings.warn(
            f"SMO did not converge within {max_iter} updates (gap above {tol})"
        )

    yg = neg_y * grad
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(yg[free].mean())
    else:
        bias = (float(yg[up].max()) + float(yg[lo].min())) / 2.0
    support = np.flatnonzero(alpha > 0)
    return BinarySvm(
        positive_class=positive_class,
        bias=bias,
        support=support,
        dual_coef=alpha[support] * y[support],
        C=C,
        n_train=n,
        converged=converged,
        iterations=iterations,
        objective=float(0.5 * (alpha.sum() - alpha @ grad)),
        alpha=alpha,
        peak=peak,
    )


def train_ovr(
    K,
    labels,
    C: float,
    tol: float = 1e-3,
    max_passes: int | None = None,
    gram_digest: str | None = None,
) -> SvmModel:
    """One-vs-rest training; two classes collapse to a single machine."""
    K = _as_matrix(K)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if K.shape != (n, n):
        raise SvmError(f"kernel block of shape {K.shape} for {n} labels")
    values = np.unique(labels)
    if values.dtype.kind == "f":
        bad = values[~np.isfinite(values) | (values != np.trunc(values))]
        if bad.size:
            raise SvmError(f"label values must be integral, got {bad[0].item()!r}")
    classes = [int(v) for v in values]
    if len(classes) < 2:
        raise DegenerateClassError(f"need at least 2 classes, got {len(classes)}")
    machines = tuple(
        train_binary(K, np.where(labels == c, 1.0, -1.0), C, tol=tol,
                     max_passes=max_passes, positive_class=c)
        for c in (classes[1:] if len(classes) == 2 else classes)
    )
    return SvmModel(
        classes=tuple(classes),
        machines=machines,
        C=float(C),
        n_train=n,
        gram_digest=gram_digest,
    )


def decision_function(model: SvmModel, K_rows) -> np.ndarray:
    """Per-machine decision values for each kernel row (tests x train)."""
    rows = np.asarray(K_rows, dtype=np.float64)
    squeeze = rows.ndim == 1
    if squeeze:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != model.n_train:
        raise SvmError(
            f"kernel rows of width {rows.shape[-1]} for {model.n_train} training graphs"
        )
    values = np.column_stack([m.decision_values(rows) for m in model.machines])
    return values[0] if squeeze else values


def predict(model: SvmModel, K_rows):
    """Class ids for one kernel row or a batch of rows.

    Binary: sign of the decision value, zero counting as positive.
    Multiclass: argmax of per-class decision values, ties to lowest class.
    """
    values = decision_function(model, K_rows)
    single = values.ndim == 1
    if single:
        values = values[None, :]
    if len(model.classes) == 2:
        out = np.where(values[:, 0] >= 0, model.classes[1], model.classes[0])
    else:
        out = np.asarray(model.classes)[np.argmax(values, axis=1)]
    return int(out[0]) if single else out


def save_model(model: SvmModel, path) -> Path:
    """Serialize to JSON: classes, per-machine coefficients, provenance."""
    path = Path(path)
    obj = {
        "format": "nask-svm v1",
        "classes": list(model.classes),
        "C": model.C,
        "n_train": model.n_train,
        "gram_digest": model.gram_digest,
        "machines": [
            {
                "positive_class": m.positive_class,
                "bias": m.bias,
                "support": m.support.tolist(),
                "dual_coef": m.dual_coef.tolist(),
                "converged": m.converged,
                "iterations": m.iterations,
                "objective": m.objective,
            }
            for m in model.machines
        ],
    }
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def load_model(path) -> SvmModel:
    """Inverse of save_model; loaded machines keep no full alpha vector."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SvmError(f"cannot load model from {path}: {exc}") from exc
    if obj.get("format") != "nask-svm v1":
        raise SvmError(f"{path.name}: unsupported model format {obj.get('format')!r}")
    machines = tuple(
        BinarySvm(
            positive_class=m["positive_class"],
            bias=float(m["bias"]),
            support=np.asarray(m["support"], dtype=np.int64),
            dual_coef=np.asarray(m["dual_coef"], dtype=np.float64),
            C=float(obj["C"]),
            n_train=int(obj["n_train"]),
            converged=bool(m["converged"]),
            iterations=int(m["iterations"]),
            objective=float(m["objective"]),
        )
        for m in obj["machines"]
    )
    return SvmModel(
        classes=tuple(obj["classes"]),
        machines=machines,
        C=float(obj["C"]),
        n_train=int(obj["n_train"]),
        gram_digest=obj.get("gram_digest"),
    )
