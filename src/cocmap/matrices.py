"""Core matrix types and the derivations between them.

Two matrix families are distinguished throughout the package:

* :class:`OccurrenceMatrix` -- an asymmetric documents x attributes count
  matrix (rows are citing documents, columns are cited authors/papers).
* :class:`CooccurrenceMatrix` -- a symmetric attributes x attributes count
  matrix derivable from an occurrence matrix.

A third type, :class:`ProximityMatrix`, carries real-valued similarities or
dissimilarities and is the admissible input class for multidimensional
scaling.  All three are immutable after construction.

Copy rule: each stores a frozen array, read-only, C-contiguous and owning
its memory.  A count matrix keeps an array that is already frozen, as the
record parser's counts and the products of :func:`cooccurrence` and
:func:`affiliations` are, and copies any other (a writeable array or any
view), so a caller's array stays writeable and unshared.  A proximity
matrix works on a float copy of its own and freezes that in place.

Integer policy: a count in memory is an exact non-negative integer, int64
wherever it fits, and Python integers (object dtype) only past int64, as a
count product past 2**63 - 1 or a caller's array of such integers can be;
the text readers refuse a count past int64 by name (``CountOverflow``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CountOverflow

U64_MAX = 2**64 - 1
FLOAT_EXACT_MAX = 2**53  # integers below this are exact in float64
INT64_MAX = 2**63 - 1

DIAGONAL_POLICIES = ("raw", "zeroed")
PROXIMITY_KINDS = ("similarity", "dissimilarity")

SYMMETRY_TOL = 1e-12


def _as_labels(labels, what: str) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if len(set(out)) != len(out):
        raise ValueError(f"{what} labels contain duplicates")
    return out


def _is_integral(v) -> bool:
    return isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())


def _as_count_array(data) -> np.ndarray:
    a = np.asarray(data)
    kind = a.dtype.kind  # b bool, i and u integer, f float, O Python objects
    if (kind not in "biufO" or (kind == "f" and not np.all(a == np.floor(a)))
            or (kind == "O" and not all(map(_is_integral, a.flat)))):
        raise ValueError("count matrix entries must be integers")
    # min and max make no temporary the size of the counts; a float NaN failed above
    if np.any(np.asarray(a < 0)) if kind == "O" else a.min(initial=0) < 0:
        raise ValueError("count matrix entries must be non-negative")
    if kind == "f" and not a.max(initial=0) < 2**63:  # the int64 cast must hold them
        raise ValueError("float count matrix entries must be below 2**63")
    if kind in "uO" and a.max(initial=0) > INT64_MAX:
        return np.frompyfunc(int, 1, 1)(a)  # Python integers: a value is past int64
    return a.astype(np.int64, copy=False)


def _freeze(a) -> np.ndarray:
    """``a`` frozen: read-only, C-contiguous and owning its memory.

    An array already frozen is kept: no view can write to it, and whoever
    holds it could set its flag back just as anyone could on a copy.  Any
    other array (writeable, or any view) is copied; the caller's stays writeable.
    """
    if (type(a) is np.ndarray and not a.flags.writeable and a.flags.c_contiguous
            and a.flags.owndata):
        return a
    a = np.array(a, order="C")
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
    """Symmetric attributes x attributes count matrix; its diagonal is the data's."""

    labels: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _as_labels(self.labels, "attribute"))
        data = _as_count_array(self.data)
        n = len(self.labels)
        if data.shape != (n, n):
            raise ValueError(f"data shape {data.shape} does not match {n} labels")
        if not np.array_equal(data, data.T):
            raise ValueError("co-occurrence matrix must be exactly symmetric")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class ProximityMatrix:
    """Symmetric real matrix tagged as similarity or dissimilarity.

    NaN entries mark missing proximities; they must appear symmetrically.
    Infinite entries are rejected.  The data must be symmetric within 1e-12;
    two cells that differ both store their mean.  A dissimilarity's diagonal
    is stored as zero.  The measurement level is not a property of the
    matrix: scaling declares it (:class:`cocmap.mds.MdsConfig`).
    """

    labels: tuple[str, ...]
    data: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "labels", _as_labels(self.labels, "object"))
        if self.kind not in PROXIMITY_KINDS:
            raise ValueError(f"unknown proximity kind {self.kind!r}")
        data = np.array(self.data, dtype=float, order="C")  # its own: changed in place
        n = len(self.labels)
        if data.shape != (n, n):
            raise ValueError(f"data shape {data.shape} does not match {n} labels")
        if np.any(np.isinf(data)):
            raise ValueError("proximity matrix has infinite entries (NaN marks a missing value)")
        nan = np.isnan(data)
        if not np.array_equal(nan, nan.T):
            raise ValueError("missing entries must appear symmetrically")
        finite = ~nan
        gap = data - data.T  # NaN where both cells are missing, which nanmax skips
        if np.nanmax(np.abs(gap, out=gap), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("proximity matrix must be symmetric within 1e-12")
        del gap
        if self.kind == "dissimilarity":
            off = ~np.eye(n, dtype=bool)
            if np.any(data[off & finite] < 0):
                raise ValueError("dissimilarities must be non-negative")
            diag = np.diagonal(data)
            if np.any(np.abs(diag[~np.isnan(diag)]) > SYMMETRY_TOL):
                raise ValueError("dissimilarity diagonal must be zero")
            np.fill_diagonal(data, 0.0)
        unequal = data != data.T  # cells off by rounding are small: their mean cannot overflow
        data[unequal] = (data[unequal] + data.T[unequal]) / 2
        data.flags.writeable = False  # frozen in place: no second copy
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return len(self.labels)


def count_product(data) -> np.ndarray:
    """Exact ``data.T @ data`` for a non-negative documents x attributes count array.

    Every column product of counts in the package comes from here, exact
    at any size: the counts are cut into base-``2**k`` digits, ``k`` the
    widest with ``n_docs * (2**k - 1)**2 < 2**53``, whose pair products
    float64 BLAS computes exactly (Ozaki, Ogita, Oishi & Rump, 2012), and
    the shifted products are summed in int64 while ``n_docs * max**2`` is
    below 2**63, else in Python integers.  Below 2**53 the counts are one digit.
    """
    data = np.asarray(data)
    n, top = data.shape[0], int(data.max(initial=0))
    bound = n * top * top
    k = (top.bit_length() if bound < FLOAT_EXACT_MAX  # one digit: the counts themselves
         else max(w for w in range(1, 54) if n * ((1 << w) - 1) ** 2 < FLOAT_EXACT_MAX))
    shifts = range(0, top.bit_length(), max(k, 1))
    digits = [(data if len(shifts) == 1 else (data >> s) & ((1 << k) - 1)).astype(np.float64)
              for s in shifts]
    dtype = np.int64 if bound <= INT64_MAX else object
    out = np.zeros((data.shape[1],) * 2, dtype=dtype)
    for a, x in enumerate(digits):
        for b in range(a, len(digits)):
            p = (x.T @ digits[b]).astype(np.int64).astype(dtype, copy=False)
            out += (p if a == b else p + p.T) << (shifts[a] + shifts[b])
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
    counts = count_product(np.asarray(A.data) > 0)
    if diagonal_policy == "zeroed":
        np.fill_diagonal(counts, 0)
    counts.flags.writeable = False  # built here: the matrix keeps it
    return CooccurrenceMatrix(A.cols, counts)


def affiliations(A: OccurrenceMatrix) -> CooccurrenceMatrix:
    """Per-document products of occurrence counts, summed over documents.

    This is the transpose product on raw counts: entry (i, j) equals
    ``sum_d A[d][i] * A[d][j]``, so an attribute cited twice alongside one
    cited three times in the same document contributes six, where the plain
    co-occurrence count contributes one.  Raises :class:`CountOverflow`
    rather than wrapping if an entry exceeds the unsigned 64-bit range.
    """
    counts = count_product(A.data)
    over = np.argwhere(np.triu(counts > U64_MAX))
    if len(over):
        i, j = over[0]  # the first pair in row-major order
        raise CountOverflow(
            f"count for ({A.cols[i]!r}, {A.cols[j]!r}) exceeds the unsigned 64-bit range"
        )
    counts.flags.writeable = False  # built here: the matrix keeps it
    return CooccurrenceMatrix(A.cols, counts)


def binarize(M: CooccurrenceMatrix) -> CooccurrenceMatrix:
    """Reduce all counts to 0/1 indicators; a zero diagonal stays zero."""
    return CooccurrenceMatrix(M.labels, (np.asarray(M.data) > 0).astype(np.int64))
