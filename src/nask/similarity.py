"""Mixed-type attribute similarity for nodes and edges.

Per-dimension partial similarities (equality for categorical dims, scaled
absolute difference clamped to the range for numerical dims, equality for
zero-width ranges) are pushed through the exponential transform
exp(-gamma * (1 - s)) and averaged. The packed form vectorizes this over
all pairs of elements of two graphs. It stores each kind of dimension
dimension-major, so every dimension contributes one contiguous
n_a x n_b plane; the range-scaled planes, then one plane of the
categorical and zero-range terms, are written into one buffer and added
left to right in that order, and the Gram digests pinned in the tests
rely on that order. The buffer is bounded by BUFFER_BYTES: past it the
planes go in chunks, with the running sum carried in the buffer's first
slot, so the order and every bit are the same at any bound. The scalar
one-pair-at-a-time semantics live in tests/oracles.py as the reference it
is checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, is_real
from .graph import CATEGORICAL, DimensionSpec, vector_columns

# Most bytes similarity_matrix's plane buffer takes, unless two planes are
# larger: 64 MiB hold all 19 planes of two 600-element sets with a
# categorical and 18 range-scaled dimensions.
BUFFER_BYTES = 64 * 1024 * 1024


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
    exp(-gamma * min(|x - y|, 1)), in schema order, and the categorical
    and zero-range terms give one more plane, one lookup in `_match_table`
    by each pair's match counts. The planes are written into one buffer
    and added left to right, and the sum is divided by the dimension
    count. The buffer takes at most BUFFER_BYTES, or two planes where one
    plane is larger: past that, the planes go in chunks whose slot 0
    carries the running sum, so the order of the additions, and every
    bit, stays the same whatever the bound.
    """
    if a.kind_widths != b.kind_widths:
        raise SchemaError("packed attribute sets disagree on their dimensions")
    if a.dim_count == 0:
        raise SchemaError("element similarity needs at least one declared dimension")
    if a.count == 0 or b.count == 0:
        return np.zeros((a.count, b.count))
    n_cat, n_exact, n_scaled = a.kind_widths
    total = n_scaled + (n_cat + n_exact > 0)  # planes, the match term last
    slots = min(total, max(2, BUFFER_BYTES // (8 * a.count * b.count)))
    buf = np.empty((slots, a.count, b.count))
    _fill(buf, a, b, p, 0, slots)
    done = slots
    while done < total:  # fold the chunk into slot 0, then refill the others
        for plane in buf[1:]:
            buf[0] += plane
        more = min(total - done, slots - 1)
        buf = buf[:1 + more]
        _fill(buf[1:], a, b, p, done, done + more)
        done += more
    acc = buf[0] if len(buf) == 1 else np.add.reduce(buf, axis=0)
    acc /= a.dim_count
    return acc


def _fill(out: np.ndarray, a: PackedAttrs, b: PackedAttrs, p: SimilarityParams,
          lo: int, hi: int) -> None:
    """Write planes lo..hi-1 into `out`: the range-scaled ones in schema
    order, then, as plane n_scaled, the categorical and zero-range term."""
    n_cat, n_exact, n_scaled = a.kind_widths
    top = min(hi, n_scaled)
    if lo < top:
        planes = out[:top - lo]
        np.subtract(a.num_scaled[lo:top, :, None], b.num_scaled[lo:top, None, :], out=planes)
        np.abs(planes, out=planes)
        np.minimum(planes, 1.0, out=planes)
        planes *= -p.gamma
        np.exp(planes, out=planes)
    if hi > n_scaled:
        # intp indices, which take reads without converting them
        if n_cat + n_exact == 1:  # the match itself, 0 or 1
            index = np.empty((a.count, b.count), np.intp)
            np.equal(a.match[0, :, None], b.match[0, None, :], out=index)
        else:
            dtype = np.min_scalar_type((n_cat + 1) * (n_exact + 1))  # the table's size
            eq = np.empty((n_cat + n_exact, a.count, b.count), dtype)
            np.equal(a.match[:, :, None], b.match[:, None, :], out=eq)
            if n_cat and n_exact:
                eq[:n_cat] *= n_exact + 1
            index = np.add.reduce(eq, axis=0, dtype=np.intp)
        floor = math.exp(-p.gamma)  # transformed value of an exact mismatch
        _match_table(n_cat, n_exact, floor).take(index, out=out[-1], mode="clip")
