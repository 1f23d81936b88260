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

    Splits dimensions into the ones compared by equality (`match`) and
    range-scaled numerical values (`num_scaled`). Each is a C-contiguous
    d x n array whose row k holds that kind's k-th dimension, in schema
    order, for every element, so all-pairs similarity works on whole
    n_a x n_b planes. `match` holds int64 rows: the categorical ids
    first, then the bits of the zero-range values with -0.0 made 0.0, so
    two of them are equal iff their bits are.
    `kind_widths` counts the categorical, zero-range and range-scaled
    dimensions. The values are checked against the dimensions first,
    column by column; errors name the first bad vector as
    `{where} {index}`.
    """

    __slots__ = ("count", "dim_count", "kind_widths", "num_scaled", "match")

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
        self.kind_widths = (len(cat_rows), len(exact_rows), len(scaled_rows))
        self.match = _rows(cat_rows, np.int64, self.count)
        if exact_rows:
            exact = _rows(exact_rows, np.float64, self.count) + 0.0  # -0.0 + 0.0 is 0.0
            self.match = np.concatenate([self.match, exact.view(np.int64)])
        self.num_scaled = _rows(scaled_rows, np.float64, self.count)
        self.num_scaled /= np.array(ranges).reshape(-1, 1)


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
        dtype = np.min_scalar_type(size)
        eq = np.empty((n_cat + n_exact, a.count, b.count), dtype)
        np.equal(a.match[:, :, None], b.match[:, None, :], out=eq)
        if n_cat and n_exact:
            eq[:n_cat] *= n_exact + 1
        index = np.add.reduce(eq, axis=0, dtype=dtype)
        floor = math.exp(-p.gamma)  # transformed value of an exact mismatch
        acc += _match_table(n_cat, n_exact, floor)[index]
    acc /= a.dim_count
    return acc
