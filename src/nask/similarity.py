"""Mixed-type attribute similarity for nodes and edges.

Per-dimension partial similarities (equality for categorical dims, scaled
absolute difference clamped to the range for numerical dims, equality for
zero-width ranges) are pushed through the exponential transform
exp(-gamma * (1 - s)) and averaged. The packed form vectorizes this over
all pairs of elements of two graphs. It stores each kind of dimension
dimension-major, so every dimension contributes one contiguous
n_a x n_b plane; the range-scaled planes are added left to right in schema
order, and the Gram digests pinned in the tests rely on that order. The
scalar one-pair-at-a-time semantics live in tests/oracles.py as the
reference it is checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, is_real
from .graph import CATEGORICAL, DimensionSpec, vector_columns


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
    """Dimension-major arrays for one graph's node or edge attribute vectors.

    Splits dimensions into categorical ids (`cat`), range-scaled numerical
    values (`num_scaled`) and zero-range numerical values (`num_exact`).
    Each is a C-contiguous d x n array whose row k holds that kind's k-th
    dimension, in schema order, for every element, so all-pairs similarity
    works on whole n_a x n_b planes, one dimension at a time. The values
    are checked against the dimensions first, column by column; errors
    name the first bad vector as `{where} {index}`.
    """

    __slots__ = ("count", "dim_count", "cat", "num_scaled", "num_exact")

    def __init__(self, dims: tuple[DimensionSpec, ...], vectors, where: str = "element"):
        vectors = list(vectors)
        columns = vector_columns(vectors, dims, where)
        self.count = len(vectors)
        self.dim_count = len(dims)
        cat_rows, scaled_rows, exact_rows, ranges = [], [], [], []
        for row, dim in zip(columns, dims):
            if dim.kind == CATEGORICAL:
                cat_rows.append(row)
                continue
            width = dim.range
            if width is None:
                raise SchemaError(f"dimension {dim.name!r} has no computed range")
            if width == 0.0:
                exact_rows.append(row)
            else:
                scaled_rows.append(row)
                ranges.append(width)
        self.cat = _rows(cat_rows, np.int64, self.count)
        self.num_exact = _rows(exact_rows, np.float64, self.count)
        self.num_scaled = _rows(scaled_rows, np.float64, self.count)
        self.num_scaled /= np.array(ranges).reshape(-1, 1)

    @property
    def kind_widths(self) -> tuple[int, int, int]:
        """Dimension counts per kind: categorical, zero-range, range-scaled."""
        return self.cat.shape[0], self.num_exact.shape[0], self.num_scaled.shape[0]


def _rows(rows: list, dtype, count: int) -> np.ndarray:
    """One C-contiguous d x count array from d per-dimension value columns."""
    return np.array(rows, dtype=dtype).reshape(len(rows), count)


@functools.lru_cache
def _match_table(n_cat: int, n_exact: int, floor: float) -> np.ndarray:
    """Summed categorical and zero-range terms, indexed by
    eq_cat * (n_exact + 1) + eq_exact, where each kind's term is
    eq + (k - eq) * floor for eq matches among its k dimensions. Built
    once per argument triple and shared, so it is read-only."""
    table = np.array([(i + (n_cat - i) * floor) + (j + (n_exact - j) * floor)
                      for i in range(n_cat + 1) for j in range(n_exact + 1)])
    table.flags.writeable = False
    return table


def similarity_matrix(a: PackedAttrs, b: PackedAttrs, p: SimilarityParams) -> np.ndarray:
    """All-pairs element similarity between two packed attribute sets.

    Each range-scaled dimension gives one n_a x n_b plane of
    exp(-gamma * min(|x - y|, 1)), and the planes are added left to right
    in schema order. The categorical and zero-range terms are then added
    as one lookup in `_match_table` by each pair's match counts, and the
    sum is divided by the dimension count.
    """
    if a.kind_widths != b.kind_widths:
        raise SchemaError("packed attribute sets disagree on their dimensions")
    if a.dim_count == 0:
        raise SchemaError("element similarity needs at least one declared dimension")
    if a.count == 0 or b.count == 0:
        return np.zeros((a.count, b.count))
    planes = np.subtract(a.num_scaled[:, :, None], b.num_scaled[:, None, :])
    np.abs(planes, out=planes)
    np.minimum(planes, 1.0, out=planes)
    planes *= -p.gamma
    np.exp(planes, out=planes)
    acc = np.add.reduce(planes, axis=0)  # zeros when there are no planes
    n_cat, n_exact, _ = a.kind_widths
    if n_cat or n_exact:
        size = (n_cat + 1) * (n_exact + 1)  # of the table; the dtype holds it
        index = np.zeros((a.count, b.count), np.min_scalar_type(size))
        for x, y in zip(a.cat, b.cat):
            index += x[:, None] == y
        if n_exact:
            index *= n_exact + 1
            for x, y in zip(a.num_exact, b.num_exact):
                index += x[:, None] == y
        floor = math.exp(-p.gamma)  # transformed value of an exact mismatch
        acc += _match_table(n_cat, n_exact, floor)[index]
    acc /= a.dim_count
    return acc
