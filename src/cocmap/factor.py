"""Principal-component factor analysis with varimax rotation.

Extraction starts from the column-pairwise Pearson correlation matrix of an
occurrence matrix; loadings for the top factors are eigenvectors scaled by
the square roots of their eigenvalues.  Rotation is Kaiser's pairwise
planar varimax procedure with optional Kaiser normalization (rows scaled to
unit communality before rotating, rescaled after).  Each sweep visits every
factor pair once in round-robin order: rounds of disjoint pairs, each round
rotated in one numpy step.  Rotated factors are returned in descending order
of explained variance; a rotation still rising at its sweep cap warns and
keeps its last sweep.

The symmetric eigensolver is a thin wrapper over LAPACK's symmetric driver
(``np.linalg.eigh``) that fixes the eigenvalue order and eigenvector signs;
it doubles as the substrate for classical scaling starts in the scaling
module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ingest import _labelled_csv
from .matrices import OccurrenceMatrix, ProximityMatrix, _freeze
from .proximity import pearson_columns

#: a varimax rotation stops once a sweep raises the criterion by less than this
VARIMAX_TOLERANCE = 1e-6
#: the cap on varimax sweeps; at least 1, so the last sweep's change exists
VARIMAX_MAX_SWEEPS = 100


def _fix_column_signs(L: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    if L.size == 0:
        return L.copy()
    peak = L[np.argmax(np.abs(L), axis=0), np.arange(L.shape[1])]
    return L * np.where(peak < 0, -1.0, 1.0)


def eigen_symmetric(M):
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Parameters
    ----------
    M : array-like, shape (n, n)
        Finite symmetric matrix (checked to a scale-relative 1e-10).

    Returns
    -------
    eigenvalues : ndarray, shape (n,)
        Sorted in descending order.
    eigenvectors : ndarray, shape (n, n)
        Orthonormal columns, ``eigenvectors[:, i]`` paired with
        ``eigenvalues[i]``; each column's largest-magnitude entry is positive.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has NaN or infinite entries")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if float(np.abs(A - A.T).max(initial=0.0)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh((A + A.T) / 2.0)
    return values[::-1].copy(), _fix_column_signs(vectors[:, ::-1])


@dataclass(frozen=True, eq=False)
class LoadingsMatrix:
    """Factor loadings with the eigenvalue spectrum they were drawn from.

    After a varimax rotation, ``rotation_criterion`` is the final varimax
    criterion of the rotated loadings (row-normalized when the rotation
    used Kaiser normalization) and ``rotation_criterion_change`` the rise
    of the criterion over the last sweep; ``rotation_converged`` is false
    when the rotation stopped at the sweep cap instead.
    """

    variable_labels: tuple[str, ...]
    loadings: np.ndarray
    eigenvalues: tuple[float, ...]
    explained_variance_pct: tuple[float, ...]
    rotation: str = "none"
    rotation_iterations: int = 0
    rotation_criterion: float = 0.0
    rotation_criterion_change: float = 0.0
    rotation_converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "variable_labels", tuple(str(x) for x in self.variable_labels))
        L = np.asarray(self.loadings, dtype=float)
        if L.ndim != 2 or L.shape[0] != len(self.variable_labels):
            raise ValueError("loadings shape does not match variable labels")
        ev = tuple(float(v) for v in self.eigenvalues)
        if any(ev[i] < ev[i + 1] - 1e-12 for i in range(len(ev) - 1)):
            raise ValueError("eigenvalues must be non-increasing")
        if ev and ev[-1] < -1e-10:
            raise ValueError("eigenvalues must be non-negative up to roundoff")
        pct = tuple(float(v) for v in self.explained_variance_pct)
        if len(pct) != L.shape[1]:
            raise ValueError("one explained-variance share per factor required")
        if self.rotation not in ("none", "varimax"):
            raise ValueError(f"unknown rotation {self.rotation!r}")
        if self.rotation == "none":
            ss = (L**2).sum(axis=0)
            if any(abs(ss[j] - ev[j]) > 1e-8 for j in range(L.shape[1])):
                raise ValueError("unrotated column sums of squares must equal eigenvalues")
        object.__setattr__(self, "loadings", _freeze(L))
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "explained_variance_pct", pct)

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]


def pca_from_correlation(R, labels=None, n_factors="auto") -> LoadingsMatrix:
    """Principal-component loadings from a correlation matrix.

    ``n_factors="auto"`` applies the Kaiser criterion (eigenvalue > 1).  The
    explained-variance share of factor j is ``100 * eigenvalue_j / p``.
    """
    if isinstance(R, ProximityMatrix):
        if labels is None:
            labels = R.labels
        R = R.data
    R = np.asarray(R, dtype=float)
    p = R.shape[0]
    if labels is None:
        labels = tuple(f"v{i + 1}" for i in range(p))
    values, vectors = eigen_symmetric(R)
    if n_factors == "auto":
        m = max(1, int(np.sum(values > 1.0)))
    else:
        m = int(n_factors)
        if not 1 <= m <= p:
            raise ValueError(f"n_factors must be in [1, {p}]")
    clipped = np.maximum(values[:m], 0.0)
    loadings = vectors[:, :m] * np.sqrt(clipped)  # a scale >= 0 keeps eigen_symmetric's signs
    pct = tuple(100.0 * v / p for v in clipped)
    return LoadingsMatrix(tuple(labels), loadings, tuple(values), pct)


def pca_from_occurrence(A: OccurrenceMatrix, n_factors="auto") -> LoadingsMatrix:
    """Correlate the columns of an occurrence matrix, then extract components."""
    return pca_from_correlation(pearson_columns(A), A.cols, n_factors)


def _varimax_criterion(L: np.ndarray) -> float:
    p = L.shape[0]
    sq = L**2
    return float(((L**4).sum(axis=0) / p - (sq.sum(axis=0) / p) ** 2).sum())


def _round_robin(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint column pairs ``(a, b)``, ``a < b``, by the circle method.

    Column 0 stays put while the others turn one place per round, so every
    unordered pair of the ``m`` columns meets exactly once: ``m - 1`` rounds
    of ``m / 2`` pairs for even ``m``; for odd ``m`` a dummy column sits one
    column out per round, giving ``m`` rounds of ``(m - 1) / 2`` pairs.
    """
    n = m + m % 2
    ring = np.arange(1, n)
    rounds = []
    for _ in range(n - 1):
        order = np.concatenate(([0], ring))
        a, b = order[: n // 2], order[::-1][: n // 2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        rounds.append((lo[hi < m], hi[hi < m]))
        ring = np.roll(ring, 1)
    return rounds


def _varimax_sweeps(L: np.ndarray, tol: float, max_sweeps: int):
    """Planar varimax rotations in round-robin sweeps; returns (rotated, T, criterion path).

    Each round rotates a set of disjoint column pairs at once (the
    parallel-Jacobi ordering of Brent & Luk, 1985).  Disjoint rotations touch
    disjoint columns and the criterion is a sum over columns, so each pair
    gets Kaiser's (1958) criterion-maximizing angle ``phi = atan2(num, den) / 4``
    independently.  With ``z = x + iy`` for the pair's columns and
    ``w = z**2``, ``den + i*num = sum(w**2) - sum(w)**2 / p``, and the rotation
    is ``z * exp(-i*phi)``.  ``T`` is stacked under the loadings so both turn
    together; the criterion is recorded once per sweep.  The sweeps stop once
    one raises the criterion by less than ``tol``, or after ``max_sweeps``.
    """
    p, m = L.shape
    S = np.vstack([L, np.eye(m)])
    rounds = _round_robin(m)
    history = [_varimax_criterion(L)]
    for _ in range(max_sweeps):
        for a, b in rounds:
            z = S[:, a] + 1j * S[:, b]
            w = z[:p] ** 2
            q = (w * w).sum(axis=0) - w.sum(axis=0) ** 2 / p
            z *= np.exp(-0.25j * np.angle(q))
            S[:, a], S[:, b] = z.real, z.imag
        history.append(_varimax_criterion(S[:p]))
        if history[-1] - history[-2] < tol:
            break
    return S[:p].copy(), S[p:].copy(), history


def varimax(L: LoadingsMatrix, kaiser_normalize: bool = True) -> LoadingsMatrix:
    """Varimax rotation of a loadings matrix.

    Maximizes the summed per-factor variance of squared loadings over
    orthogonal rotations.  With ``kaiser_normalize`` the rows are scaled to
    unit communality before rotation and rescaled afterwards.  Row
    communalities are invariant under the rotation; the criterion never
    decreases across sweeps.  The rotated columns come back in one canonical
    order, by descending explained variance (a stable sort, so ties keep
    their rotation order), then signed so each column's largest-magnitude
    loading is positive.  The result carries the final criterion and its
    change over the last sweep, so fits that stop at different local
    maxima can be told apart.  A rotation still rising at the cap of
    ``VARIMAX_MAX_SWEEPS`` sweeps warns with its last criterion change and
    keeps its last sweep, with ``rotation_converged`` false.  A single factor
    has nothing to rotate against, so one-factor loadings come back
    unchanged after zero sweeps.
    """
    if L.n_factors < 1:
        raise ValueError("varimax needs at least one factor")
    A = np.array(L.loadings, dtype=float)
    comm = np.sqrt((A**2).sum(axis=1))
    if kaiser_normalize:
        safe = np.where(comm > 0, comm, 1.0)
        A = A / safe[:, None]
    if L.n_factors == 1:
        return LoadingsMatrix(L.variable_labels, L.loadings, L.eigenvalues,
                              L.explained_variance_pct, rotation="varimax",
                              rotation_criterion=_varimax_criterion(A))
    rotated, _T, history = _varimax_sweeps(A, VARIMAX_TOLERANCE, VARIMAX_MAX_SWEEPS)
    change = history[-1] - history[-2]
    converged = change < VARIMAX_TOLERANCE
    if not converged:
        warnings.warn(f"varimax stopped at the cap of {len(history) - 1} sweeps; the last "
                      f"criterion change was {change:.3g}", stacklevel=2)
    if kaiser_normalize:
        rotated = rotated * safe[:, None]
    ss = (rotated**2).sum(axis=0)
    order = np.argsort(-ss, kind="stable")
    rotated = _fix_column_signs(rotated[:, order])
    return LoadingsMatrix(
        L.variable_labels,
        rotated,
        L.eigenvalues,
        tuple(100.0 * ss[order] / A.shape[0]),
        rotation="varimax",
        rotation_iterations=len(history) - 1,
        rotation_criterion=history[-1],
        rotation_criterion_change=change,
        rotation_converged=converged,
    )


def factor_scatter_coords(L: LoadingsMatrix, dims: int = 2) -> np.ndarray:
    """Coordinates for a factor scatter plot: each variable at its loadings."""
    if dims not in (2, 3):
        raise ValueError("dims must be 2 or 3")
    if L.n_factors < dims:
        raise ValueError(f"loadings have only {L.n_factors} factors")
    return np.array(L.loadings[:, :dims])


def loadings_to_csv(L: LoadingsMatrix) -> str:
    """Full-precision loadings as labeled CSV."""
    return _labelled_csv([""] + [f"factor{j + 1}" for j in range(L.n_factors)],
                         L.variable_labels, L.loadings.tolist())


def format_loadings(L: LoadingsMatrix, threshold: float = 0.10) -> str:
    """Rotated-component style text table; |loading| below threshold prints blank."""
    width = max([len(s) for s in L.variable_labels] + [8])
    header = " " * width + "".join(f"  factor{j + 1:<2d}" for j in range(L.n_factors))
    lines = [header]
    for label, row in zip(L.variable_labels, np.asarray(L.loadings)):
        cells = []
        for v in row:
            cells.append(f"  {v:8.3f}" if abs(v) >= threshold else "  " + " " * 8)
        lines.append(f"{label:<{width}}" + "".join(cells))
    share = " " * width + "".join(f"  {v:7.2f}%" for v in L.explained_variance_pct)
    lines.append(share)
    rot = L.rotation if L.rotation != "none" else "unrotated"
    lines.append(f"({rot}; loadings below {threshold:g} suppressed)")
    return "\n".join(lines) + "\n"
