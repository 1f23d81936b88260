"""Mixed-type attribute similarity for nodes and edges.

Per-dimension partial similarities (equality for categorical dims, scaled
absolute difference clamped to the range for numerical dims, equality for
zero-width ranges) are pushed through the exponential transform
exp(-gamma * (1 - s)) and averaged. The packed form vectorizes this over
all pairs of elements of two graphs; the scalar one-pair-at-a-time
semantics live in tests/oracles.py as the reference it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, is_real
from .graph import CATEGORICAL, DimensionSpec, validate_vector


@dataclass(frozen=True)
class SimilarityParams:
    """Scaling parameter of the exponential transform."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (is_real(self.gamma) and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be a finite real, got {self.gamma!r}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if not isinstance(self.gamma, (int, float)):  # numpy scalars
            object.__setattr__(self, "gamma", float(self.gamma))


class PackedAttrs:
    """Column-major arrays for one graph's node or edge attribute vectors.

    Splits dimensions into categorical ids, range-scaled numerical values,
    and zero-range numerical values so that all-pairs similarity reduces to
    a few dense array operations. Every vector is checked against the
    dimensions first; errors name it as `{where} {index}`.
    """

    __slots__ = ("count", "dim_count", "cat", "num_scaled", "num_exact")

    def __init__(self, dims: tuple[DimensionSpec, ...], vectors, where: str = "element"):
        vectors = list(vectors)
        for i, vec in enumerate(vectors):
            validate_vector(vec, dims, f"{where} {i}")
        self.count = len(vectors)
        self.dim_count = len(dims)
        cat_cols, scaled_cols, exact_cols = [], [], []
        for k, dim in enumerate(dims):
            column = [vec.values[k] for vec in vectors]
            if dim.kind == CATEGORICAL:
                cat_cols.append(np.asarray(column, dtype=np.int64))
                continue
            width = dim.range
            if width is None:
                raise SchemaError(f"dimension {dim.name!r} has no computed range")
            values = np.asarray(column, dtype=np.float64)
            if width == 0.0:
                exact_cols.append(values)
            else:
                scaled_cols.append(values / width)
        shape = (self.count, 0)
        self.cat = np.column_stack(cat_cols) if cat_cols else np.empty(shape, np.int64)
        self.num_scaled = (
            np.column_stack(scaled_cols) if scaled_cols else np.empty(shape, np.float64)
        )
        self.num_exact = (
            np.column_stack(exact_cols) if exact_cols else np.empty(shape, np.float64)
        )


def similarity_matrix(a: PackedAttrs, b: PackedAttrs, p: SimilarityParams) -> np.ndarray:
    """All-pairs element similarity between two packed attribute sets."""
    if a.dim_count != b.dim_count:
        raise SchemaError("packed attribute sets disagree on dimensionality")
    if a.dim_count == 0:
        raise SchemaError("element similarity needs at least one declared dimension")
    if a.count == 0 or b.count == 0:
        return np.zeros((a.count, b.count))
    floor = math.exp(-p.gamma)  # transformed value of an exact mismatch
    acc = np.zeros((a.count, b.count))
    if a.cat.shape[1]:
        eq = (a.cat[:, None, :] == b.cat[None, :, :]).sum(axis=2)
        acc += eq + (a.cat.shape[1] - eq) * floor
    if a.num_exact.shape[1]:
        eq = (a.num_exact[:, None, :] == b.num_exact[None, :, :]).sum(axis=2)
        acc += eq + (a.num_exact.shape[1] - eq) * floor
    if a.num_scaled.shape[1]:
        diff = np.abs(a.num_scaled[:, None, :] - b.num_scaled[None, :, :])
        np.minimum(diff, 1.0, out=diff)
        acc += np.exp(-p.gamma * diff).sum(axis=2)
    return acc / a.dim_count
