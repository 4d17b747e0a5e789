"""Principal-component factor analysis with varimax rotation.

Extraction starts from the column-pairwise Pearson correlation matrix of an
occurrence matrix; loadings for the top factors are eigenvectors scaled by
the square roots of their eigenvalues.  Rotation is the classic pairwise
planar varimax procedure with optional Kaiser normalization (rows scaled to
unit communality before rotating, rescaled after).

The symmetric eigensolver is a thin wrapper over LAPACK's symmetric driver
(``np.linalg.eigh``) that fixes the eigenvalue order and eigenvector signs;
it doubles as the substrate for classical scaling starts in the scaling
module.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .matrices import OccurrenceMatrix, ProximityMatrix
from .proximity import pearson_columns


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
    """Factor loadings with the eigenvalue spectrum they were drawn from."""

    variable_labels: tuple[str, ...]
    loadings: np.ndarray
    eigenvalues: tuple[float, ...]
    explained_variance_pct: tuple[float, ...]
    rotation: str = "none"
    rotation_iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variable_labels", tuple(str(x) for x in self.variable_labels))
        L = np.array(self.loadings, dtype=float)
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
        L = np.ascontiguousarray(L)
        L.flags.writeable = False
        object.__setattr__(self, "loadings", L)
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
    loadings = _fix_column_signs(vectors[:, :m] * np.sqrt(clipped))
    pct = tuple(100.0 * v / p for v in clipped)
    return LoadingsMatrix(tuple(labels), loadings, tuple(values), pct)


def pca_from_occurrence(A: OccurrenceMatrix, n_factors="auto") -> LoadingsMatrix:
    """Correlate the columns of an occurrence matrix, then extract components."""
    return pca_from_correlation(pearson_columns(A), A.cols, n_factors)


def _varimax_criterion(L: np.ndarray) -> float:
    p = L.shape[0]
    sq = L**2
    return float(((L**4).sum(axis=0) / p - (sq.sum(axis=0) / p) ** 2).sum())


def _varimax_sweeps(L: np.ndarray, tol: float, max_sweeps: int):
    """Pairwise planar varimax rotations; returns (rotated, T, criterion path)."""
    A = L.copy()
    p, m = A.shape
    T = np.eye(m)
    history = [_varimax_criterion(A)]
    for sweep in range(1, max_sweeps + 1):
        for a in range(m - 1):
            for b in range(a + 1, m):
                x, y = A[:, a], A[:, b]
                u = x**2 - y**2
                v = 2.0 * x * y
                su, sv = u.sum(), v.sum()
                num = 2.0 * (u * v).sum() - 2.0 * su * sv / p
                den = (u**2 - v**2).sum() - (su**2 - sv**2) / p
                phi = 0.25 * np.arctan2(num, den)
                if abs(phi) < 1e-15:
                    continue
                c, s = np.cos(phi), np.sin(phi)
                A[:, a], A[:, b] = c * x + s * y, -s * x + c * y
                T[:, [a, b]] = T[:, [a, b]] @ np.array([[c, -s], [s, c]])
        history.append(_varimax_criterion(A))
        if history[-1] - history[-2] < tol:
            return A, T, history
    raise NoConvergence(f"varimax did not converge within {max_sweeps} sweeps")


def varimax(L: LoadingsMatrix, kaiser_normalize: bool = True, tol: float = 1e-6,
            max_sweeps: int = 100) -> LoadingsMatrix:
    """Varimax rotation of a loadings matrix.

    Maximizes the summed per-factor variance of squared loadings over
    orthogonal rotations.  With ``kaiser_normalize`` the rows are scaled to
    unit communality before rotation and rescaled afterwards.  Row
    communalities are invariant under the rotation; the criterion never
    decreases across sweeps.  A single factor has nothing to rotate against,
    so one-factor loadings come back unchanged after zero sweeps.
    """
    if L.n_factors < 1:
        raise ValueError("varimax needs at least one factor")
    if L.n_factors == 1:
        return LoadingsMatrix(L.variable_labels, L.loadings, L.eigenvalues,
                              L.explained_variance_pct, rotation="varimax")
    A = np.array(L.loadings, dtype=float)
    comm = np.sqrt((A**2).sum(axis=1))
    if kaiser_normalize:
        safe = np.where(comm > 0, comm, 1.0)
        A = A / safe[:, None]
    rotated, _T, history = _varimax_sweeps(A, tol, max_sweeps)
    if kaiser_normalize:
        rotated = rotated * safe[:, None]
    rotated = _fix_column_signs(rotated)
    p = A.shape[0]
    pct = tuple(100.0 * float((rotated[:, j] ** 2).sum()) / p for j in range(rotated.shape[1]))
    return LoadingsMatrix(
        L.variable_labels,
        rotated,
        L.eigenvalues,
        pct,
        rotation="varimax",
        rotation_iterations=len(history) - 1,
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
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + [f"factor{j + 1}" for j in range(L.n_factors)])
    for label, row in zip(L.variable_labels, np.asarray(L.loadings)):
        writer.writerow([label] + [repr(float(v)) for v in row])
    return out.getvalue()


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
