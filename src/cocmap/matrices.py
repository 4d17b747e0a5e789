"""Core matrix types and the derivations between them.

Two matrix families are distinguished throughout the package:

* :class:`OccurrenceMatrix` -- an asymmetric documents x attributes count
  matrix (rows are citing documents, columns are cited authors/papers).
* :class:`CooccurrenceMatrix` -- a symmetric attributes x attributes count
  matrix derivable from an occurrence matrix.

A third type, :class:`ProximityMatrix`, carries real-valued similarities or
dissimilarities and is the admissible input class for multidimensional
scaling.  All three are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CountOverflow

U64_MAX = 2**64 - 1
FLOAT_EXACT_MAX = 2**53  # integers below this are exact in float64

DIAGONAL_POLICIES = ("raw", "zeroed")
PROXIMITY_KINDS = ("similarity", "dissimilarity")

SYMMETRY_TOL = 1e-12


def _as_labels(labels, what: str) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if len(set(out)) != len(out):
        raise ValueError(f"{what} labels contain duplicates")
    return out


def _as_count_array(data) -> np.ndarray:
    a = np.asarray(data)
    if a.dtype == object:
        pass  # exact Python integers, kept as-is
    elif np.issubdtype(a.dtype, np.floating):
        if not np.all(a == np.floor(a)):
            raise ValueError("count matrix entries must be integers")
        a = a.astype(np.int64)
    elif np.issubdtype(a.dtype, np.bool_):
        a = a.astype(np.int64)
    elif not np.issubdtype(a.dtype, np.integer):
        raise ValueError("count matrix entries must be integers")
    if np.any(np.asarray(a < 0)):
        raise ValueError("count matrix entries must be non-negative")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class OccurrenceMatrix:
    """Documents x attributes count matrix (the asymmetric citation shape)."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_labels(self.rows, "row"))
        object.__setattr__(self, "cols", _as_labels(self.cols, "column"))
        data = _as_count_array(self.data)
        if data.ndim != 2 or data.shape != (len(self.rows), len(self.cols)):
            raise ValueError(
                f"data shape {data.shape} does not match "
                f"{len(self.rows)} rows x {len(self.cols)} columns"
            )
        if len(self.rows) < 1:
            raise ValueError("need at least one document row")
        if len(self.cols) < 2:
            raise ValueError("need at least two attribute columns")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n_docs(self) -> int:
        return len(self.rows)

    @property
    def n_attrs(self) -> int:
        return len(self.cols)


@dataclass(frozen=True, eq=False)
class CooccurrenceMatrix:
    """Symmetric attributes x attributes count matrix."""

    labels: tuple[str, ...]
    data: np.ndarray
    diagonal_policy: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "labels", _as_labels(self.labels, "attribute"))
        if self.diagonal_policy not in DIAGONAL_POLICIES:
            raise ValueError(f"unknown diagonal policy {self.diagonal_policy!r}")
        data = _as_count_array(self.data)
        n = len(self.labels)
        if data.shape != (n, n):
            raise ValueError(f"data shape {data.shape} does not match {n} labels")
        if not np.array_equal(data, data.T):
            raise ValueError("co-occurrence matrix must be exactly symmetric")
        if self.diagonal_policy == "zeroed" and np.any(np.diagonal(data) != 0):
            raise ValueError("zeroed diagonal policy requires a zero diagonal")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class ProximityMatrix:
    """Symmetric real matrix tagged as similarity or dissimilarity.

    NaN entries mark missing proximities; they must appear symmetrically.
    Infinite entries are rejected.  A dissimilarity's diagonal is stored as
    zero.  The measurement level is not a property of the matrix: scaling
    declares it (:class:`cocmap.mds.MdsConfig`).
    """

    labels: tuple[str, ...]
    data: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "labels", _as_labels(self.labels, "object"))
        if self.kind not in PROXIMITY_KINDS:
            raise ValueError(f"unknown proximity kind {self.kind!r}")
        data = np.array(self.data, dtype=float)
        n = len(self.labels)
        if data.shape != (n, n):
            raise ValueError(f"data shape {data.shape} does not match {n} labels")
        if np.any(np.isinf(data)):
            raise ValueError("proximity matrix has infinite entries (NaN marks a missing value)")
        nan = np.isnan(data)
        if not np.array_equal(nan, nan.T):
            raise ValueError("missing entries must appear symmetrically")
        finite = ~nan
        if np.nanmax(np.abs(np.where(finite & finite.T, data - data.T, 0.0)), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("proximity matrix must be symmetric within 1e-12")
        if self.kind == "dissimilarity":
            off = ~np.eye(n, dtype=bool)
            if np.any(data[off & finite] < 0):
                raise ValueError("dissimilarities must be non-negative")
            diag = np.diagonal(data)
            if np.any(np.abs(diag[~np.isnan(diag)]) > SYMMETRY_TOL):
                raise ValueError("dissimilarity diagonal must be zero")
            np.fill_diagonal(data, 0.0)
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n(self) -> int:
        return len(self.labels)


def count_product(data, labels) -> np.ndarray:
    """Exact ``data.T @ data`` for a non-negative documents x attributes count array.

    While the bound ``n_docs * max**2`` on every entry and partial sum is
    below 2**53, the product runs in float64 BLAS, where integers of that
    size are exact, and is cast back to int64.  Above it (or for object
    input) entries are summed as Python integers, and :class:`CountOverflow`
    is raised rather than wrapping if one exceeds the unsigned 64-bit range.
    """
    data = np.asarray(data)
    if data.dtype == object:
        bound = FLOAT_EXACT_MAX  # force the exact path
    else:
        m = int(data.max(initial=0))
        bound = data.shape[0] * m * m
    if bound < FLOAT_EXACT_MAX:
        f = data.astype(np.float64)
        return (f.T @ f).astype(np.int64)
    exact = [[int(v) for v in row] for row in data]
    n = data.shape[1]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            s = sum(row[i] * row[j] for row in exact)
            if s > U64_MAX:
                raise CountOverflow(
                    f"count for ({labels[i]!r}, {labels[j]!r}) "
                    f"exceeds the unsigned 64-bit range"
                )
            out[i, j] = s
            out[j, i] = s
    return out


def cooccurrence(A: OccurrenceMatrix, diagonal_policy: str = "raw") -> CooccurrenceMatrix:
    """Count, for every attribute pair, the documents containing both.

    The occurrence counts are binarized first, so ``result[i][j]`` is the
    number of documents in which attributes i and j both occur at least
    once.  Under the ``raw`` diagonal policy the diagonal holds the number
    of documents containing each attribute; ``zeroed`` blanks it.
    """
    if diagonal_policy not in DIAGONAL_POLICIES:
        raise ValueError(f"unknown diagonal policy {diagonal_policy!r}")
    counts = count_product(np.asarray(A.data) > 0, A.cols)
    if diagonal_policy == "zeroed":
        np.fill_diagonal(counts, 0)
    return CooccurrenceMatrix(A.cols, counts, diagonal_policy)


def affiliations(A: OccurrenceMatrix) -> CooccurrenceMatrix:
    """Per-document products of occurrence counts, summed over documents.

    This is the transpose product on raw counts: entry (i, j) equals
    ``sum_d A[d][i] * A[d][j]``, so an attribute cited twice alongside one
    cited three times in the same document contributes six, where the plain
    co-occurrence count contributes one.  Raises :class:`CountOverflow`
    rather than wrapping if an entry exceeds the unsigned 64-bit range.
    """
    return CooccurrenceMatrix(A.cols, count_product(A.data, A.cols), "raw")


def binarize(M: CooccurrenceMatrix) -> CooccurrenceMatrix:
    """Reduce all counts to 0/1 indicators, preserving the diagonal policy."""
    data = (np.asarray(M.data) > 0).astype(np.int64)
    return CooccurrenceMatrix(M.labels, data, M.diagonal_policy)
