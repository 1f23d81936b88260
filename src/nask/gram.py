"""Gram-matrix computation, normalization, PSD validation, persistence.

compute_gram has one builder for both engines: KernelContext.gram_rows
(see stars.py) forms spans of upper-triangle rows (j >= i), in this process
or in a fork pool, and each span is written into both triangles of every
kept depth's table. Every entry is formed once, as its single pair's value,
so the matrix is exactly symmetric as stored and byte-identical across
--threads settings. Files use a small text format: a version header,
one-line JSON metadata, the dimension, then rows of space-separated reals
at 17 significant digits (bit-exact round trip).

The Gram path holds no whole copy of a matrix it does not need: the
tables compute_gram fills, the buffer normalize_gram forms and the table
import_gram parses become read-only Grams in place, while a caller's array
given to GramMatrix is still copied. import_gram streams files that hold
only what export_gram writes (see there).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .datasets import Dataset
from .errors import (
    ConfigError,
    DatasetError,
    GramComputeError,
    GramFormatError,
    InvalidGramError,
    is_integer,
    is_real,
)
from .expansion import ExpansionPlan
from .similarity import SimilarityParams
from .stars import EDGE_MODES, KernelContext
from .version import __version__

_HEADER = "NASK-GRAM v1"
_META_KEYS = ("dataset_digest", "gamma", "H", "tau", "normalize", "edge_elements", "version")


_META_CHECKS = {
    "normalize": lambda v: isinstance(v, bool),
    "H": lambda v: is_integer(v) and v >= 1,
    "gamma": lambda v: is_real(v) and math.isfinite(v) and v > 0,
    "tau": lambda v: is_real(v) and 0.0 <= v < 1.0,
    "edge_elements": lambda v: v in EDGE_MODES,
}


@dataclass(frozen=True)
class GramMeta:
    """Provenance carried with every Gram matrix."""

    dataset_digest: str
    gamma: float
    depth: int
    tau: float
    normalize: bool
    edge_elements: str
    version: str = f"nask {__version__}"

    def to_obj(self) -> dict:
        return {
            "dataset_digest": self.dataset_digest,
            "gamma": self.gamma,
            "H": self.depth,
            "tau": self.tau,
            "normalize": self.normalize,
            "edge_elements": self.edge_elements,
            "version": self.version,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "GramMeta":
        missing = [key for key in _META_KEYS if key not in obj]
        if missing:
            raise GramFormatError(f"metadata missing keys: {', '.join(missing)}")
        for key, valid in _META_CHECKS.items():
            if not valid(obj[key]):
                raise GramFormatError(f"metadata key {key!r} has an invalid value {obj[key]!r}")
        return cls(
            dataset_digest=str(obj["dataset_digest"]),
            gamma=float(obj["gamma"]),
            depth=obj["H"],
            tau=float(obj["tau"]),
            normalize=obj["normalize"],
            edge_elements=obj["edge_elements"],
            version=str(obj["version"]),
        )


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over a dataset, with provenance metadata.

    `values` is a read-only copy of the array given, so later writes to that
    array cannot reach the Gram.
    """

    values: np.ndarray
    meta: GramMeta

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        object.__setattr__(self, "values", _frozen(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _frozen(values: np.ndarray) -> np.ndarray:
    """`values`, checked square and exactly symmetric, made read-only in place."""
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InvalidGramError(f"gram values must be square, got shape {values.shape}")
    if not np.array_equal(values, values.T):
        raise InvalidGramError("gram values must be exactly symmetric")
    values.flags.writeable = False
    return values


def _own(values: np.ndarray, meta: GramMeta) -> GramMatrix:
    """A Gram over a float64 array this package has just made and holds
    nowhere else: the array is made read-only in place, not copied."""
    gram = object.__new__(GramMatrix)
    object.__setattr__(gram, "values", _frozen(values))
    object.__setattr__(gram, "meta", meta)
    return gram


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a spectral positive-semidefiniteness check."""

    psd: bool
    min_eig: float
    max_eig: float
    tol: float
    threshold: float


def matrix_digest(values: np.ndarray) -> str:
    """Content hash of the raw matrix bytes."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


_WORKER_STATE: dict = {}


def _span_rows(span) -> list[np.ndarray]:
    """The kept depths of Gram rows lo..hi-1 of the job (ctx, graphs, depth,
    kept) left in _WORKER_STATE, which forked pool workers inherit."""
    ctx, graphs, depth, kept = _WORKER_STATE["job"]
    return [totals[kept] for totals in ctx.gram_rows(graphs, *span, depth)]


def _row_spans(n: int, count: int) -> list[tuple[int, int]]:
    """`count` contiguous row spans of about equal upper-triangle entry
    counts: each cut is the row that holds an equal share's first entry."""
    rows = np.arange(n + 1)
    starts = rows * n - rows * (rows - 1) // 2  # first entry of each row
    cuts = np.searchsorted(starts, starts[n] * np.arange(count + 1) // count, side="right") - 1
    return list(zip(cuts.tolist(), cuts[1:].tolist()))


def compute_gram(
    ds: Dataset,
    params: SimilarityParams | None = None,
    plan: ExpansionPlan | None = None,
    tau: float = 0.0,
    edge_elements: str = "auto",
    normalize: bool = False,
    threads: int = 1,
    depths: tuple | None = None,
) -> GramMatrix | dict[int, GramMatrix]:
    """Full kernel matrix of a dataset (ranges must be computed already).

    The upper triangle is cut into threads * 4 contiguous row spans of about
    equal entry counts. KernelContext.gram_rows fills each span, in this
    process when threads is 1 and across a fork pool of `threads` workers
    otherwise, and each span is written into both triangles as it arrives.
    Each entry is one pair's value, formed the same way whoever forms it, so
    results do not depend on the worker count. Given `depths`, integers in
    1..plan.max_depth, one pass returns {h: the depth-h Gram} for each of
    them: every pair's depth loop forms the running total of each shallower
    depth on its way.
    """
    if ds.num_graphs == 0:
        raise DatasetError("no graphs")
    if not is_integer(threads) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    if not isinstance(normalize, (bool, np.bool_)):
        raise ConfigError(f"normalize must be a bool, got {normalize!r}")
    params = params if params is not None else SimilarityParams()
    plan = plan if plan is not None else ExpansionPlan()
    if not isinstance(params, SimilarityParams):
        raise ConfigError(f"params must be SimilarityParams, got {type(params).__name__}")
    if not isinstance(plan, ExpansionPlan):
        raise ConfigError(f"plan must be ExpansionPlan, got {type(plan).__name__}")
    kept = (plan.max_depth,) if depths is None else tuple(depths)
    if not kept or len(set(kept)) < len(kept) or any(
        not is_integer(h) or not 1 <= h <= plan.max_depth for h in kept
    ):
        raise ConfigError(
            f"depths must be distinct integers in 1..{plan.max_depth}, got {depths!r}"
        )
    kept = tuple(int(h) for h in kept)
    ctx = KernelContext(ds.schema, params, tau=tau, edge_elements=edge_elements)
    for index, g in enumerate(ds.graphs):
        try:
            ctx.register(g).warm(plan.max_depth)  # before any fork
        except MemoryError as exc:
            raise GramComputeError(f"resource exhaustion while packing graph {index}") from exc
    if threads > 1 and "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn("fork start method unavailable; computing on one thread")
        threads = 1
    n = ds.num_graphs
    spans = _row_spans(n, threads * 4)
    tau = ctx.tau
    _WORKER_STATE["job"] = (ctx, ds.graphs, plan.max_depth, [h - 1 for h in kept])
    del ctx  # clearing _WORKER_STATE then drops the packs
    # each n x n float64 table takes 8 n^2 bytes: 20 GB at n = 50,000
    try:
        tables = [np.empty((n, n)) for _ in kept]
        pool = multiprocessing.get_context("fork").Pool(int(threads)) if threads > 1 else None
        with pool or nullcontext():
            # each span goes into both triangles of every table as it arrives
            for (lo, _), rows in zip(spans, (pool.imap if pool else map)(_span_rows, spans)):
                for i, totals in enumerate(rows, lo):
                    for table, values in zip(tables, totals):
                        table[i, i:] = table[i:, i] = values
                del rows  # before the next span is formed
        _WORKER_STATE.clear()  # the packs go before any Gram is formed
        grams = {}
        for h in kept:
            meta = GramMeta(
                dataset_digest=ds.digest,
                gamma=params.gamma,
                depth=h,
                tau=tau,
                normalize=False,
                edge_elements=edge_elements,
            )
            gram = _own(tables.pop(0), meta)
            grams[h] = normalize_gram(gram) if normalize else gram
    except MemoryError as exc:
        raise GramComputeError(
            f"resource exhaustion while forming the Gram tables of n={n} graphs"
        ) from exc
    finally:
        _WORKER_STATE.clear()
    return grams if depths is not None else grams[plan.max_depth]


def _positive_diagonal(values: np.ndarray) -> np.ndarray:
    """The diagonal that cosine normalization divides by; a nonpositive
    entry raises InvalidGramError naming its graph index."""
    diag = values.diagonal()
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise InvalidGramError(
            f"cannot normalize: nonpositive diagonal at graph index {int(bad[0])}"
        )
    return diag


def _cosine(block: np.ndarray, row_diag: np.ndarray, col_diag: np.ndarray) -> np.ndarray:
    """`block[i, j] / sqrt(row_diag[i] * col_diag[j])`, formed in one new buffer.

    Each entry is the same three roundings whatever the block, so a block
    sliced from a Gram and its diagonal normalizes to the same slice of
    normalize_gram's values, bit for bit.
    """
    out = np.multiply.outer(row_diag, col_diag)
    np.sqrt(out, out=out)
    return np.divide(block, out, out=out)


def normalize_gram(gram: GramMatrix) -> GramMatrix:
    """Cosine-normalize so every diagonal entry is 1 (PSD preserved).

    Raises InvalidGramError on a nonpositive diagonal entry.
    """
    diag = _positive_diagonal(gram.values)
    return _own(_cosine(gram.values, diag, diag), replace(gram.meta, normalize=True))


def check_psd(gram, tol: float = 1e-8) -> PsdVerdict:
    """Spectral PSD check: min eigenvalue >= -tol * max(1, max eigenvalue)."""
    if not (is_real(tol) and math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol!r}")
    values = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InvalidGramError(f"psd check needs a square matrix, got shape {values.shape}")
    if not np.array_equal(values, values.T):
        raise InvalidGramError("psd check needs an exactly symmetric matrix")
    try:
        eigs = np.linalg.eigvalsh(values)
    except np.linalg.LinAlgError as exc:
        raise GramComputeError(
            f"eigensolver failed on matrix {matrix_digest(values)}"
        ) from exc
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    threshold = tol * max(1.0, max_eig)
    return PsdVerdict(
        psd=bool(min_eig >= -threshold),
        min_eig=min_eig,
        max_eig=max_eig,
        tol=tol,
        threshold=threshold,
    )


def export_gram(gram: GramMatrix, path) -> Path:
    """Write the text format; 17 significant digits round-trip bit-exactly."""
    path = Path(path)
    with path.open("w") as out:  # a row at a time: no copy of the whole text
        out.write(f"{_HEADER}\n{json.dumps(gram.meta.to_obj())}\n{gram.n}\n")
        np.savetxt(out, gram.values, fmt="%.17g")
    return path


# the line breaks str.splitlines honours besides "\n" that are ASCII (it
# also breaks at "\x85", "\u2028" and "\u2029"); np.loadtxt reads them as
# whitespace
_ODD_BREAKS = b"\r\v\f\x1c\x1d\x1e"
_ROW_BYTES = b"0123456789+-.e \n"  # every byte export_gram writes in a row
_SCAN_CHUNK = 1 << 20


def import_gram(path) -> GramMatrix:
    """Parse a Gram file, checking version, shape, and symmetry.

    A file that holds only what export_gram writes is streamed: no copy of
    its text is held (see _read_streamed). Every other file, and every file
    whose rows np.loadtxt rejects or reads as not n x n or not finite, is
    read whole and split into lines, which decides it as the line-based
    reader always has and names the first bad line.
    """
    path = Path(path)
    meta, values = _read_streamed(path) or _read_lines(path)
    try:
        return _own(values, meta)
    except InvalidGramError as exc:  # n x n, so only symmetry can fail
        raise GramFormatError(f"{path.name}: matrix is not symmetric as stored") from exc


def _read_streamed(path: Path) -> tuple[GramMeta, np.ndarray] | None:
    """(meta, values) of a Gram file whose rows np.loadtxt parses from the
    open file, or None when the line-based reader must decide it.

    The three header lines must be ASCII, free of the other line breaks
    str.splitlines honours, and end in "\n", the third not blank: then they
    are the line-based reader's first three lines, and every header error is
    raised here as it would be there. A chunked byte scan then checks that
    the rest holds only bytes export_gram writes in a row, in exactly n
    lines; a blank line among them leaves np.loadtxt fewer than n rows.
    """
    try:
        with path.open("rb") as file:
            head = [file.readline() for _ in range(3)]
            if not all(
                line.endswith(b"\n") and line.isascii() and not any(b in line for b in _ODD_BREAKS)
                for line in head
            ):
                return None
            lines = [line[:-1].decode("ascii") for line in head]
            if not lines[2].strip():
                return None
            meta, n = _header(path.name, lines)
            start = file.tell()
            count, last = 0, b"\n"
            while chunk := file.read(_SCAN_CHUNK):
                if chunk.translate(None, _ROW_BYTES):
                    return None
                count += chunk.count(b"\n")
                last = chunk[-1:]
            if count + (last != b"\n") != n:
                return None
            file.seek(start)
            try:
                values = np.loadtxt(file, ndmin=2, comments=None)
            except ValueError:
                return None
    except OSError:
        return None  # the line-based reader reports it
    if values.shape != (n, n) or not np.isfinite(values).all():
        return None
    return meta, values


def _read_lines(path: Path) -> tuple[GramMeta, np.ndarray]:
    """(meta, values) of a Gram file read whole and split into lines.

    The rows are parsed by one np.loadtxt call. Only when that parse fails,
    or the table is not n x n or holds a non-finite value, are the rows
    scanned one by one, to name the first bad line.
    """
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise GramFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GramFormatError(f"{path.name}: cannot decode the file: {exc}") from exc
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise GramFormatError(f"{path.name}: empty file")
    meta, n = _header(path.name, lines)
    rows = lines[3:]
    if len(rows) != n:
        raise GramFormatError(
            f"{path.name}: dimension mismatch, expected {n} rows, found {len(rows)}"
        )
    try:
        # np.loadtxt skips blank lines and reads a subset of what `float` reads
        values = np.loadtxt(rows, ndmin=2, comments=None)
    except ValueError:
        values = None
    if values is None or values.shape != (n, n) or not np.isfinite(values).all():
        values = _scan_rows(path.name, rows, n)
    return meta, values


def _header(name: str, lines: list[str]) -> tuple[GramMeta, int]:
    """Metadata and dimension from a Gram file's lines (at least one)."""
    if lines[0] != _HEADER:
        raise GramFormatError(
            f"{name}:1: unsupported version {lines[0]!r} (expected {_HEADER!r})"
        )
    if len(lines) < 3:
        raise GramFormatError(f"{name}: truncated file (line {len(lines) + 1})")
    try:
        meta_obj = json.loads(lines[1])
    except json.JSONDecodeError as exc:
        raise GramFormatError(f"{name}:2: metadata parse failure: {exc}") from exc
    if not isinstance(meta_obj, dict):
        raise GramFormatError(f"{name}:2: metadata must be a JSON object")
    meta = GramMeta.from_obj(meta_obj)
    try:
        n = int(lines[2].strip())
    except ValueError as exc:
        raise GramFormatError(f"{name}:3: dimension parse failure") from exc
    if n < 1:
        raise GramFormatError(f"{name}:3: dimension must be >= 1, got {n}")
    return meta, n


def _scan_rows(name: str, rows: list[str], n: int) -> np.ndarray:
    """The n x n values of a Gram file's rows, read one line at a time with
    `float`; raises GramFormatError at the first line with the wrong field
    count, a field `float` rejects, or a non-finite value."""
    values = np.empty((n, n))
    for r, line in enumerate(rows):
        lineno = r + 4
        fields = line.split()
        if len(fields) != n:
            raise GramFormatError(f"{name}:{lineno}: expected {n} values, found {len(fields)}")
        try:
            values[r] = [float(f) for f in fields]
        except ValueError as exc:
            raise GramFormatError(f"{name}:{lineno}: parse failure: {exc}") from exc
        if not np.all(np.isfinite(values[r])):
            raise GramFormatError(f"{name}:{lineno}: non-finite value")
    return values
