"""Per-dimension similarity and the exponential transform, through the
packed all-pairs path, against frozen constants and the scalar oracle."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nask import similarity as similarity_module
from nask.errors import ConfigError, SchemaError
from nask.graph import AttributeVector, DimensionSpec
from nask.similarity import PackedAttrs, SimilarityParams, _match_table, similarity_matrix
from nask.stars import KernelContext

import oracles
import synth
from conftest import graph_with

# frozen transform values, derived by hand from exp(-gamma * (1 - s))
EXP_MINUS_1 = 0.36787944117144233  # s=0, gamma=1
EXP_MINUS_01 = 0.9048374180359595  # s=0, gamma=0.1
MIXED_TWO_DIM = 0.8032653298563167  # (exp(0) + exp(-0.5)) / 2, gamma=1

CAT = DimensionSpec("c", "categorical", categories=(10, 20, 30))
NUM = DimensionSpec("x", "numerical", range_min=0.0, range_max=10.0)
ZERO = DimensionSpec("z", "numerical", range_min=5.0, range_max=5.0)


def sim(dims, xs, ys, gamma=1.0) -> np.ndarray:
    """similarity_matrix over plain value tuples."""
    a = PackedAttrs(dims, [AttributeVector(tuple(r)) for r in xs])
    b = PackedAttrs(dims, [AttributeVector(tuple(r)) for r in ys])
    return similarity_matrix(a, b, SimilarityParams(gamma=gamma))


def per_dimension_loop(dims, xs, ys, gamma) -> np.ndarray:
    """similarity_matrix by an explicit loop over dimensions: the
    categorical term, plus the zero-range term, plus the range-scaled
    dimensions summed left to right in schema order. Each of the first two
    terms is eq + (k - eq) * floor over its k dimensions."""
    floor = math.exp(-gamma)
    matches = {"categorical": [], "zero-range": []}
    planes = []
    for k, dim in enumerate(dims):
        x = np.array([v.values[k] for v in xs], dtype=float)
        y = np.array([v.values[k] for v in ys], dtype=float)
        if dim.kind == "categorical":
            matches["categorical"].append(np.equal.outer(x, y))
        elif dim.range == 0.0:
            matches["zero-range"].append(np.equal.outer(x, y))
        else:
            diff = np.abs(np.subtract.outer(x / dim.range, y / dim.range))
            planes.append(np.exp(-gamma * np.minimum(diff, 1.0)))
    total = np.zeros((len(xs), len(ys)))
    for kind in ("categorical", "zero-range"):
        if matches[kind]:
            eq = np.sum(matches[kind], axis=0)
            total = total + (eq + (len(matches[kind]) - eq) * floor)
    scaled = planes[0] if planes else 0.0
    for plane in planes[1:]:
        scaled = scaled + plane
    return (total + scaled) / len(dims)


def one(dim, a, b, gamma=1.0) -> float:
    """The 1x1 similarity of two values in a single dimension."""
    return float(sim((dim,), [(a,)], [(b,)], gamma)[0, 0])


class TestParams:
    def test_gamma_must_be_positive_finite(self):
        with pytest.raises(ConfigError):
            SimilarityParams(gamma=0.0)
        with pytest.raises(ConfigError):
            SimilarityParams(gamma=-1.0)
        with pytest.raises(ConfigError):
            SimilarityParams(gamma=float("inf"))

    def test_gamma_must_be_a_number_not_a_bool(self):
        for bad in (True, np.True_, "1"):
            with pytest.raises(ConfigError):
                SimilarityParams(gamma=bad)
        numpy_gamma = SimilarityParams(gamma=np.int64(2)).gamma
        assert numpy_gamma == 2.0 and type(numpy_gamma) is float


class TestPartialSimilarity:
    def test_categorical_is_equality_indicator(self):
        assert one(CAT, 1, 1) == 1.0
        assert one(CAT, 1, 2) == pytest.approx(EXP_MINUS_1, rel=1e-15)

    def test_categorical_requires_symbol_ids(self, cat_schema):
        # registration packs the graph, and packing checks every vector
        g = graph_with(0, 2, [(0, 1)], [(0.5,), (0,)])
        with pytest.raises(SchemaError, match="symbol id"):
            KernelContext(cat_schema).register(g)

    def test_numerical_scaled_distance(self):
        # 3 vs 7 on range 10: s = 0.6
        assert one(NUM, 3.0, 7.0) == pytest.approx(math.exp(-0.4), rel=1e-15)
        assert one(NUM, 2.0, 2.0) == 1.0

    def test_numerical_clamps_to_zero_beyond_range(self):
        # values outside the stored range can differ by more than the width
        assert one(NUM, 0.0, 25.0) == pytest.approx(EXP_MINUS_1, rel=1e-15)

    def test_zero_width_range_is_equality_indicator(self):
        assert one(ZERO, 5.0, 5.0) == 1.0
        assert one(ZERO, 5.0, 5.1) == pytest.approx(EXP_MINUS_1, rel=1e-15)

    def test_missing_range_is_an_error(self):
        bare = DimensionSpec("x", "numerical")
        with pytest.raises(SchemaError):
            PackedAttrs((bare,), [AttributeVector((1.0,))])


class TestExpTransform:
    def test_identity_at_full_similarity(self):
        assert one(NUM, 4.0, 4.0, gamma=7.0) == 1.0

    def test_frozen_values(self):
        assert one(CAT, 0, 1, gamma=1.0) == pytest.approx(EXP_MINUS_1, rel=1e-15)
        assert one(CAT, 0, 1, gamma=0.1) == pytest.approx(EXP_MINUS_01, rel=1e-15)

    def test_monotone_in_similarity(self):
        # s = 0, 0.25, 0.5, 0.75, 1 against the value 0 on range 10
        row = sim((NUM,), [(0.0,)], [(10.0,), (7.5,), (5.0,), (2.5,), (0.0,)], gamma=2.0)[0]
        assert list(row) == sorted(row)
        assert row[0] == pytest.approx(math.exp(-2.0), rel=1e-15)


class TestElementSimilarity:
    def test_frozen_two_dim_value(self):
        # cat match (s=1), num s=0.5
        value = sim((CAT, NUM), [(1, 2.0)], [(1, 7.0)], gamma=1.0)[0, 0]
        assert value == pytest.approx(MIXED_TWO_DIM, rel=1e-15)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(0)
        dims = synth.mixed_schema(n_cat=2, n_num=3).node_dims
        xs = [synth.random_vector(rng, dims) for _ in range(12)]
        ys = [synth.random_vector(rng, dims) for _ in range(9)]
        mat = similarity_matrix(
            PackedAttrs(dims, xs), PackedAttrs(dims, ys), SimilarityParams(gamma=0.7)
        )
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == pytest.approx(oracles.ref_element_P(dims, x, y, 0.7), rel=1e-14)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1)
        dims = synth.mixed_schema(n_cat=1, n_num=2).node_dims
        a = PackedAttrs(dims, [synth.random_vector(rng, dims) for _ in range(30)])
        b = PackedAttrs(dims, [synth.random_vector(rng, dims) for _ in range(20)])
        p = SimilarityParams(gamma=3.0)
        forward = similarity_matrix(a, b, p)
        assert np.array_equal(forward, similarity_matrix(b, a, p).T)
        assert np.all(forward >= math.exp(-3.0) - 1e-15)
        assert np.all(forward <= 1.0)

    def test_needs_dimensions_and_matching_lengths(self, mixed_node_schema):
        with pytest.raises(SchemaError):
            sim((), [()], [()])
        g = graph_with(0, 2, [(0, 1)], [(0, 0.5), (0,)])
        with pytest.raises(SchemaError, match="1 values, schema declares 2"):
            KernelContext(mixed_node_schema).register(g)


class TestPackedPath:
    def test_packing_checks_every_vector(self):
        # a float in a categorical dimension would cast to symbol 0 and a
        # vector longer than the schema would be cut short
        with pytest.raises(SchemaError, match=r"symbol id \(element 0\)"):
            PackedAttrs((CAT,), [AttributeVector((0.5,))])
        with pytest.raises(SchemaError, match=r"2 values, schema declares 1 \(element 1\)"):
            PackedAttrs((CAT,), [AttributeVector((0,)), AttributeVector((0, 1))])

    def test_first_bad_vector_is_named_not_first_bad_column(self):
        # column c fails at element 2, column x already at element 1
        vectors = [AttributeVector((0, 1.0)), AttributeVector((0, math.nan)),
                   AttributeVector((0.5, 1.0))]
        with pytest.raises(SchemaError, match=r"non-finite value in dimension 'x' \(element 1\)"):
            PackedAttrs((CAT, NUM), vectors)

    @pytest.mark.parametrize("dim, good, bad, what", [
        (CAT, 1, True, "categorical dimension 'c' needs a symbol id"),
        (NUM, 1.0, False, "numerical dimension 'x' needs a real value"),
        (CAT, 2, 3, "symbol id 3 out of range for 'c'"),
        (CAT, 2, -1, "symbol id -1 out of range for 'c'"),
    ])
    def test_whole_column_checks_reject_what_each_vector_check_does(self, dim, good, bad, what):
        vectors = [AttributeVector((good,)), AttributeVector((bad,))]
        with pytest.raises(SchemaError, match=re.escape(f"{what} (element 1)")):
            PackedAttrs((dim,), vectors)

    def test_value_the_vector_check_accepts_is_packed(self):
        # a numpy float is not exactly `float`, so its column takes the
        # vector-by-vector check, which accepts it
        packed = PackedAttrs((NUM,), [AttributeVector((np.float64(2.5),)), AttributeVector((5,))])
        assert packed.num_scaled.tolist() == [[0.25, 0.5]]

    def test_matrix_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        dims = synth.mixed_schema(n_cat=2, n_num=2).node_dims
        dims = dims + (ZERO,)
        vec_a = [
            AttributeVector(synth.random_vector(rng, dims[:-1]).values + (5.0,))
            for _ in range(7)
        ]
        vec_b = [
            AttributeVector(synth.random_vector(rng, dims[:-1]).values + (5.0,))
            for _ in range(5)
        ]
        p = SimilarityParams(gamma=1.3)
        mat = similarity_matrix(PackedAttrs(dims, vec_a), PackedAttrs(dims, vec_b), p)
        assert mat.shape == (7, 5)
        for i, x in enumerate(vec_a):
            for j, y in enumerate(vec_b):
                assert mat[i, j] == pytest.approx(
                    oracles.ref_element_P(dims, x, y, 1.3), rel=1e-12
                )

    def test_empty_side_yields_zero_shape(self):
        dims = (CAT,)
        mat = similarity_matrix(
            PackedAttrs(dims, []), PackedAttrs(dims, [AttributeVector((0,))]),
            SimilarityParams(),
        )
        assert mat.shape == (0, 1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            similarity_matrix(
                PackedAttrs((CAT,), [AttributeVector((0,))]),
                PackedAttrs((CAT, NUM), [AttributeVector((0, 1.0))]),
                SimilarityParams(),
            )
        # same dimension count, different kinds
        with pytest.raises(SchemaError, match="disagree"):
            similarity_matrix(
                PackedAttrs((CAT, NUM), [AttributeVector((0, 1.0))]),
                PackedAttrs((CAT, CAT), [AttributeVector((0, 1))]),
                SimilarityParams(),
            )

    # one buffer for every plane; two slots, one plane added at a time;
    # three slots, so chunks of two planes
    @pytest.mark.parametrize("buffer_bytes", [2**40, 1, 3 * 8 * 9 * 7],
                             ids=["one-buffer", "one-plane", "two-planes"])
    @pytest.mark.parametrize("n_scaled", [1, 2, 7, 8, 18])
    def test_matrix_equals_per_dimension_loop_bit_for_bit(self, monkeypatch, n_scaled,
                                                          buffer_bytes):
        # the Gram digests pinned in test_gram rely on this summation order,
        # whatever the plane buffer's bound
        monkeypatch.setattr(similarity_module, "BUFFER_BYTES", buffer_bytes)
        rng = np.random.default_rng(40 + n_scaled)
        scaled = [DimensionSpec(f"x{k}", "numerical", range_min=-1.0, range_max=3.0)
                  for k in range(n_scaled)]
        dims = (scaled[0], CAT) + tuple(scaled[1:n_scaled // 2 + 1]) + (ZERO,) + tuple(
            scaled[n_scaled // 2 + 1:])

        def vector():
            return AttributeVector(tuple(
                int(rng.integers(3)) if dim is CAT
                else float(rng.choice([5.0, 6.0])) if dim is ZERO
                else round(float(rng.uniform(-2.0, 5.0)), 3)  # some beyond the range
                for dim in dims))

        xs, ys = [vector() for _ in range(9)], [vector() for _ in range(7)]
        gamma = 1.7
        mat = similarity_matrix(PackedAttrs(dims, xs), PackedAttrs(dims, ys),
                                SimilarityParams(gamma=gamma))
        assert np.array_equal(mat, per_dimension_loop(dims, xs, ys, gamma))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == pytest.approx(
                    oracles.ref_element_P(dims, x, y, gamma), rel=1e-12)

    @pytest.mark.parametrize("buffer_bytes", [2**40, 1])
    @pytest.mark.parametrize("n_cat,n_exact", [(1, 0), (0, 1), (0, 2), (3, 0), (2, 3)])
    def test_equality_dimensions_alone_equal_the_loop(self, monkeypatch, n_cat, n_exact,
                                                      buffer_bytes):
        # no range-scaled plane: the match term is the only plane
        monkeypatch.setattr(similarity_module, "BUFFER_BYTES", buffer_bytes)
        rng = np.random.default_rng(7 + 10 * n_cat + n_exact)
        dims = (CAT,) * n_cat + (ZERO,) * n_exact
        xs, ys = ([AttributeVector(tuple(int(rng.integers(3)) if d is CAT
                                         else float(rng.choice([5.0, 6.0])) for d in dims))
                   for _ in range(count)] for count in (6, 4))
        mat = similarity_matrix(PackedAttrs(dims, xs), PackedAttrs(dims, ys),
                                SimilarityParams(gamma=0.6))
        assert np.array_equal(mat, per_dimension_loop(dims, xs, ys, 0.6))

    @pytest.mark.parametrize("n_cat,n_exact", [(1, 0), (0, 1), (2, 3), (4, 1)])
    def test_match_table_is_shared_read_only_and_equals_its_formula(self, n_cat, n_exact):
        floor = math.exp(-1.7)
        table = _match_table(n_cat, n_exact, floor)
        assert _match_table(n_cat, n_exact, floor) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        want = [(i + (n_cat - i) * floor) + (j + (n_exact - j) * floor)
                for i in range(n_cat + 1) for j in range(n_exact + 1)]
        assert table.tolist() == want

    def test_equality_dimensions_compare_values_not_representations(self):
        # zero-range values are matched by their bits with -0.0 made 0.0,
        # categorical ids as int64, so no two distinct ids collide
        zero = DimensionSpec("z", "numerical", range_min=0.0, range_max=0.0)
        assert one(zero, -0.0, 0.0) == 1.0
        assert one(ZERO, 5, 5.0) == 1.0
        assert one(ZERO, 5.0, np.nextafter(5.0, 6.0)) == EXP_MINUS_1
        ids = DimensionSpec("c", "categorical")
        assert one(ids, 2**53, 2**53 + 1) == EXP_MINUS_1
        assert one(ids, -(2**63), -(2**63)) == 1.0

    def test_similarity_matrix_is_psd_when_ranges_cover_values(self):
        # one element set against itself: the kernel matrix of the averaged
        # per-dimension transforms must be PSD when no value leaves its range
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.0, 1.0, size=(50, 2))
        cats = rng.integers(0, 3, size=50)
        dims = (
            DimensionSpec("c", "categorical", categories=(0, 1, 2)),
            DimensionSpec("x0", "numerical", range_min=0.0, range_max=1.0),
            DimensionSpec("x1", "numerical", range_min=0.0, range_max=1.0),
        )
        vecs = [
            AttributeVector((int(cats[i]), float(raw[i, 0]), float(raw[i, 1])))
            for i in range(50)
        ]
        packed = PackedAttrs(dims, vecs)
        for gamma in (0.1, 1.0, 10.0):
            mat = similarity_matrix(packed, packed, SimilarityParams(gamma=gamma))
            eigs = np.linalg.eigvalsh(mat)
            assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])
            assert oracles.cholesky_psd(mat, tol=1e-8)


# run in a fresh interpreter with BLAS on one thread; argv holds the
# directory to import nask from and the bytes of address space to allow
# beyond what the interpreter holds once the packs are built
BOUNDED_SIMILARITY = """
import resource, sys
sys.path[:0] = sys.argv[1:2]
import numpy as np
from nask.graph import AttributeVector, DimensionSpec
from nask.similarity import PackedAttrs, SimilarityParams, similarity_matrix
dims = tuple(DimensionSpec(f"x{k}", "numerical", range_min=0.0, range_max=1.0)
             for k in range(18))
rng = np.random.default_rng(3)
a, b = (PackedAttrs(dims, [AttributeVector(tuple(row)) for row in rng.random((3000, 18)).tolist()])
        for _ in range(2))
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = kib * 1024 + int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    out = similarity_matrix(a, b, SimilarityParams())
except MemoryError:
    print("MemoryError")
else:
    print(out.shape, out.dtype)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
def test_similarity_of_large_sets_runs_in_bounded_memory():
    # two 3000-element sets with 18 range-scaled dimensions: all 18 planes at
    # once would take 1.3 GB, the bounded buffer two planes of 72 MB and the
    # result one more, inside 512 MiB of address space past the imports
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", BOUNDED_SIMILARITY, str(src), str(512 * 2**20)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.split("\n")[0] == "(3000, 3000) float64"
