"""Precomputed-kernel soft-margin SVM with one-vs-rest multiclass.

The binary solver is sequential minimal optimization over the dual with
max-violating-pair working-set selection, lowest-index tie-breaking, and
an analytic two-variable subproblem clipped to the box by one rule per
constraint type. Its state is yg = -y * grad, grad being the gradient of
the dual objective, kept in two rows that hold yg on each working set and
an infinite sentinel off it, so selection is one argmax and one argmin.
An update subtracts two columns of K scaled by y_i and y_j times the
alpha steps, in O(n) with no n x n matrix Q = yy' * K: multiplying by +-1
is exact, so every value is the one a Q-based update would give, bit for
bit. A fit that hits its update cap warns and returns with `converged`
false. Models store only what prediction needs: support indices, dual
coefficients, and the bias.

A KernelBlock checks a kernel block and its labels and lays them out for
the solver once: kernel columns as a list of row views, the diagonal as
Python floats, and each machine's +-1 labels with its starting yg rows.
`train_ovr` takes one in place of an array, so a sweep over costs pays
for that once per block; fits on a block are those on its array, bit for
bit.

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


class KernelBlock:
    """A training block and its labels, checked and laid out once for any
    number of fits.

    It holds K as a float64 array; `cols`, a list whose item k is column k
    of K as a row view (of K itself when K is exactly symmetric, else of one
    transposed copy); K's diagonal as Python floats; the labels and their
    classes; and per machine its positive class with its +-1 targets. Two
    classes make a single machine for the second class. train_ovr takes a
    block in place of K, so a cost sweep pays for this once per block, not
    once per cost. Raises SvmError on a shape other than n x n, naming the
    first entry of K that is not finite or the first non-integral label,
    and DegenerateClassError on fewer than 2 classes.
    """

    __slots__ = ("K", "cols", "diag", "labels", "classes", "machines")

    def __init__(self, K, labels):
        labels = np.asarray(labels)
        n = labels.shape[0]
        K = np.asarray(getattr(K, "values", K), dtype=np.float64)
        if K.ndim != 2 or K.shape != (n, n):
            raise SvmError(f"kernel block of shape {K.shape} for {n} labels")
        finite = np.isfinite(K)
        if not finite.all():
            i, j = divmod(int(finite.argmin()), n)
            raise SvmError(f"kernel entry ({i}, {j}) is {K.item(i, j)}, not finite")
        values = np.unique(labels)
        if values.dtype.kind == "f":
            bad = values[~np.isfinite(values) | (values != np.trunc(values))]
            if bad.size:
                raise SvmError(f"label values must be integral, got {bad[0].item()!r}")
        classes = tuple(int(v) for v in values)
        if len(classes) < 2:
            raise DegenerateClassError(f"need at least 2 classes, got {len(classes)}")
        self.K = K
        self.cols = list(K if np.array_equal(K, K.T) else np.ascontiguousarray(K.T))
        self.diag = K.diagonal().tolist()
        self.labels, self.classes = labels, classes
        self.machines = tuple(
            (c, _targets(np.where(labels == c, 1.0, -1.0)))
            for c in (classes[1:] if len(classes) == 2 else classes)
        )


def _targets(y: np.ndarray) -> tuple:
    """Labels y in {-1, +1} as the solver reads them: the array, its Python
    floats, and the two yg rows at alpha = 0. Every alpha is below C, so
    every index is in `up` when y is +1 and in `lo` when y is -1; the
    gradient of (1/2 a'Qa - sum a) starts at -1, so yg starts at y."""
    return y, y.tolist(), np.where([y > 0, y < 0], y, [[-np.inf], [np.inf]])


def _limits(C, tol, max_passes, n: int) -> tuple:
    """C, tol and the update cap (default 10n), checked; ConfigError names
    the first bad one."""
    if not (is_real(C) and math.isfinite(C) and C > 0):
        raise ConfigError(f"C must be finite and > 0, got {C}")
    if not (is_real(tol) and math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol!r}")
    if max_passes is not None and not (is_integer(max_passes) and max_passes >= 0):
        raise ConfigError(f"max_passes must be an integer >= 0, got {max_passes!r}")
    return float(C), tol, 10 * n if max_passes is None else int(max_passes)


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
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.abs(y) == 1.0):
        raise SvmError("labels must be -1 or +1")
    if not (y > 0).any() or not (y < 0).any():
        raise DegenerateClassError("both label signs are required for training")
    block = KernelBlock(K, y)
    ((_, targets),) = block.machines  # the +1 class: y itself
    return _solve(block, targets, *_limits(C, tol, max_passes, y.shape[0]), positive_class)


def _solve(block, targets, C, tol, max_iter, positive_class) -> BinarySvm:
    """One machine on a prepared block, for `_targets` of its labels."""
    y, signs, start = targets
    K, cols, Kd = block.K, block.cols, block.diag
    n = len(signs)
    alpha = [0.0] * n
    # yg = -y * grad on the indices whose y*alpha may still rise (up) and
    # -inf elsewhere, on those whose y*alpha may still fall (lo) and +inf
    # elsewhere. Every index lies in a set, so each yg is finite in some
    # row, and the sentinels are the sets. Neither set is ever empty:
    # emptying one puts every alpha of one label sign at one bound and every
    # alpha of the other sign at the opposite bound, which sum(y * alpha) = 0
    # rules out when both signs are present.
    sel = start.copy()
    up_yg, lo_yg = sel
    inc, step = np.empty(n), np.empty(n)
    multiply, add, subtract, inf = np.multiply, np.add, np.subtract, np.inf
    converged = False
    iterations = 0
    peak = 0.0

    for _ in range(max_iter):
        i = int(up_yg.argmax())
        j = int(lo_yg.argmin())
        yg_i, yg_j = up_yg.item(i), lo_yg.item(j)
        if yg_i - yg_j <= tol:
            converged = True
            break
        iterations += 1
        s_i, s_j = signs[i], signs[j]
        old_i, old_j = alpha[i], alpha[j]
        # + 0.0 turns -0.0 into +0.0: the gradient, a sum starting at -1,
        # never holds -0.0
        grad_i, grad_j = -s_i * yg_i + 0.0, -s_j * yg_j + 0.0
        quad = Kd[i] + Kd[j] - 2.0 * K.item(i, j)
        if quad <= 0:
            quad = _TAU
        if s_i != s_j:
            # alpha_i - alpha_j is fixed: clip the smaller one at 0, the larger at C
            delta = (-grad_i - grad_j) / quad
            diff = old_i - old_j
            new_i, new_j = old_i + delta, old_j + delta
            if new_i > peak:
                peak = new_i
            if new_j > peak:
                peak = new_j
            if diff > 0:
                if new_j < 0:
                    new_j, new_i = 0.0, diff
                if new_i > C:
                    new_i, new_j = C, C - diff
            else:
                gap = -diff
                if new_i < 0:
                    new_i, new_j = 0.0, gap
                if new_j > C:
                    new_j, new_i = C, C - gap
        else:
            # alpha_i + alpha_j is fixed: a total above C clips at C, else at 0
            delta = (grad_i - grad_j) / quad
            total = old_i + old_j
            new_i, new_j = old_i - delta, old_j + delta
            if total > peak:
                peak = total
            if new_i > peak:
                peak = new_i
            if new_j > peak:
                peak = new_j
            if total > C:
                if new_i > C:
                    new_i, new_j = C, total - C
                if new_j > C:
                    new_j, new_i = C, total - C
            else:
                if new_j < 0:
                    new_j, new_i = 0.0, total
                if new_i < 0:
                    new_i, new_j = 0.0, total
        alpha[i], alpha[j] = new_i, new_j
        if s_i > 0:
            up_yg[i] = yg_i if new_i < C else -inf
            lo_yg[i] = yg_i if new_i > 0 else inf
        else:
            up_yg[i] = yg_i if new_i > 0 else -inf
            lo_yg[i] = yg_i if new_i < C else inf
        if s_j > 0:
            up_yg[j] = yg_j if new_j < C else -inf
            lo_yg[j] = yg_j if new_j > 0 else inf
        else:
            up_yg[j] = yg_j if new_j > 0 else -inf
            lo_yg[j] = yg_j if new_j < C else inf
        # yg -= K[:, i] (y_i (new_i - old_i)) + K[:, j] (y_j (new_j - old_j))
        # in both rows, in place; the sentinels stay infinite
        multiply(cols[i], s_i * (new_i - old_i), inc)
        multiply(cols[j], s_j * (new_j - old_j), step)
        add(inc, step, inc)
        subtract(sel, inc, sel)
    else:
        warnings.warn(
            f"SMO did not converge within {max_iter} updates (gap above {tol})"
        )

    alpha = np.array(alpha)
    up, lo = up_yg != -inf, lo_yg != inf
    grad = -y * np.where(up, up_yg, lo_yg) + 0.0
    yg = -y * grad
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
    """One-vs-rest training; two classes collapse to a single machine.

    K is an array, a Gram, or a KernelBlock prepared on these labels.
    """
    if isinstance(K, KernelBlock):
        block = K
        if labels is not block.labels and not np.array_equal(labels, block.labels):
            raise SvmError("labels differ from the ones the kernel block was prepared on")
    else:
        block = KernelBlock(K, labels)
    n = len(block.diag)
    C, tol, max_iter = _limits(C, tol, max_passes, n)
    return SvmModel(
        classes=block.classes,
        machines=tuple(
            _solve(block, targets, C, tol, max_iter, c) for c, targets in block.machines
        ),
        C=C,
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
    """Inverse of save_model; loaded machines keep no full alpha vector.

    Raises SvmError naming the first field that is missing or malformed:
    classes must be at least 2 distinct integers with one machine per class
    (one for two classes) in their order, and each machine's support must
    hold integer indices below n_train, one finite dual coefficient each.
    """
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SvmError(f"cannot load model from {path}: {exc}") from exc
    form = obj.get("format") if isinstance(obj, dict) else None
    if form != "nask-svm v1":
        raise SvmError(f"{path.name}: unsupported model format {form!r}")

    def field(owner, where, key, ok, what):
        if key not in owner:
            raise SvmError(f"{path.name}: {where}{key} is missing")
        value = owner[key]
        if not ok(value):
            raise SvmError(f"{path.name}: {where}{key} must be {what}, got {value!r}")
        return value

    def entries(owner, where, key, ok, what):
        values = field(owner, where, key, lambda v: isinstance(v, list), "a list")
        for k, value in enumerate(values):
            if not ok(value):
                raise SvmError(f"{path.name}: {where}{key}[{k}] must be {what}, got {value!r}")
        return values

    def finite(value):
        return is_real(value) and math.isfinite(value)

    classes = entries(obj, "", "classes", is_integer, "an integer")
    if len(set(classes)) != len(classes) or len(classes) < 2:
        raise SvmError(f"{path.name}: classes must be at least 2 distinct integers, got {classes!r}")
    C = float(field(obj, "", "C", lambda v: finite(v) and v > 0, "finite and > 0"))
    n_train = field(obj, "", "n_train", lambda v: is_integer(v) and v >= 2, "an integer >= 2")
    gram_digest = obj.get("gram_digest")
    if gram_digest is not None and not isinstance(gram_digest, str):
        raise SvmError(f"{path.name}: gram_digest must be a string, got {gram_digest!r}")
    positives = classes[1:] if len(classes) == 2 else classes
    stored = field(obj, "", "machines", lambda v: isinstance(v, list) and len(v) == len(positives),
                   f"a list of {len(positives)} machines for {len(classes)} classes")
    machines = []
    for k, (m, positive) in enumerate(zip(stored, positives)):
        where = f"machines[{k}]."
        if not isinstance(m, dict):
            raise SvmError(f"{path.name}: machines[{k}] must be an object, got {m!r}")
        field(m, where, "positive_class", lambda v: v == positive and is_integer(v),
              f"class {positive}")
        support = entries(m, where, "support", lambda v: is_integer(v) and 0 <= v < n_train,
                          f"an integer index below n_train = {n_train}")
        dual_coef = entries(m, where, "dual_coef", finite, "finite")
        if len(dual_coef) != len(support):
            raise SvmError(f"{path.name}: {where}dual_coef holds {len(dual_coef)} values "
                           f"for {len(support)} support indices")
        machines.append(BinarySvm(
            positive_class=positive,
            bias=float(field(m, where, "bias", finite, "finite")),
            support=np.asarray(support, dtype=np.int64),
            dual_coef=np.asarray(dual_coef, dtype=np.float64),
            C=C,
            n_train=n_train,
            converged=field(m, where, "converged", lambda v: isinstance(v, bool), "a bool"),
            iterations=field(m, where, "iterations", lambda v: is_integer(v) and v >= 0,
                             "an integer >= 0"),
            objective=float(field(m, where, "objective", finite, "finite")),
        ))
    return SvmModel(
        classes=tuple(classes),
        machines=tuple(machines),
        C=C,
        n_train=n_train,
        gram_digest=gram_digest,
    )
