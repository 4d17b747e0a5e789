"""Multidimensional scaling by SMACOF stress majorization.

The scaler accepts a :class:`~cocmap.matrices.ProximityMatrix` of either
kind: similarities are first turned upside down via
``dissimilarity = constant - similarity`` with the constant chosen as the
matrix maximum, after which both kinds follow the identical iteration, so
the two entry points produce the same configuration.

Proximities may be treated at three measurement levels.  At each outer
iteration the dissimilarities are optimally transformed into *disparities*:

* ``ratio``    -- ``d_hat = b * delta`` with ``b >= 0``;
* ``interval`` -- ``d_hat = a + b * delta`` with ``a, b >= 0`` (a non-negative
  fit, so disparities never need clamping);
* ``ordinal``  -- monotone (isotonic) regression of the configuration
  distances in ascending ``delta`` order, with tied proximities untied (tied
  blocks are ordered by current distance and may receive distinct values).
  The ``delta`` order is sorted once per fit; each iteration re-sorts only
  inside its tie blocks.

Disparities are rescaled every outer iteration so that their weighted sum
of squares equals ``n (n - 1) / 2``, which pins the stress denominator and
prevents the degenerate collapse solution in the nonmetric case.  The
reported badness of fit is normalized raw stress

    sigma_n = sum_w (d_hat - d(X))^2 / sum_w d_hat^2

over the upper-triangle pairs (diagonal weight 0, missing proximities
weight 0).  Note sigma_n is the square of Kruskal's stress-1 for the same
disparities, so cross-software comparisons must square or root accordingly.
Each majorization step cannot increase sigma_n, so the recorded stress
sequence is non-increasing.  Configuration distances are summed one axis
at a time, so they stay exact for nearly coincident points and every such
pair gets its push apart.  The iteration itself is a weighted SMACOF core
that the Kamada-Kawai layout of :mod:`cocmap.layout` shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    DimensionTooLarge,
)
from .factor import eigen_symmetric
from .matrices import ProximityMatrix, _freeze
from .proximity import to_dissimilarity

MEASUREMENT_LEVELS = ("ratio", "interval", "ordinal")


@dataclass(frozen=True)
class MdsConfig:
    """Settings for one scaling run.

    ``level`` is the measurement level of the proximities, one of
    :data:`MEASUREMENT_LEVELS`; the matrix itself carries no level.
    ``init`` is ``"classical"`` (Torgerson start, deterministic) or
    ``"random"``, which requires an explicit ``seed``.  ``epsilon`` is the
    stress-change convergence threshold.
    """

    dimensions: int = 2
    level: str = "ratio"
    init: str = "classical"
    seed: int | None = None
    max_iterations: int = 1000
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if self.level not in MEASUREMENT_LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.init not in ("classical", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "random" and self.seed is None:
            raise ValueError("random init requires an explicit seed")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True, eq=False)
class Configuration:
    """A fitted embedding: centered coordinates plus the final stress."""

    labels: tuple[str, ...]
    coords: np.ndarray
    stress: float
    iterations_used: int
    converged: bool
    stress_history: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(np.asarray(self.coords, dtype=float)))
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "stress_history", tuple(float(s) for s in self.stress_history))


def _pool_adjacent_violators(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Isotonic fit of ``y``, taken in the given order, with weights ``w > 0``.

    Numpy passes pool first: every run of adjacent blocks whose means do
    not increase shares one value in the fit, so each pass merges all such
    runs at once, summing their weights and weighted values with
    ``np.bincount``.  The solution is unique whatever the pooling order, so
    this is exact.  Passes alone are quadratic on a cascade such as
    ``[0, 1, ..., n - 2, -1e9]``, so once a pass pools fewer than one block
    in eight, the classic stack loop finishes over the surviving blocks.
    """
    n = len(y)
    means, sums, wsums = y, w * y, w
    first = np.arange(n)  # the position of each block's first element
    while len(means) > 1:
        new_block = np.concatenate(([True], means[1:] > means[:-1]))
        block = np.cumsum(new_block) - 1
        pooled = len(means) - 1 - int(block[-1])
        if pooled == 0:  # strictly increasing: this is the fit
            return np.repeat(means, np.diff(first, append=n))
        last_pass = 8 * pooled < len(means)
        sums = np.bincount(block, sums)
        wsums = np.bincount(block, wsums)
        first = first[new_block]
        means = sums / wsums
        if last_pass:
            break
    stack_m: list[float] = []
    stack_s: list[float] = []
    stack_w: list[float] = []
    stack_f: list[int] = []
    for m, s, wt, f in zip(means.tolist(), sums.tolist(), wsums.tolist(), first.tolist()):
        while stack_m and stack_m[-1] >= m:
            stack_m.pop()
            s += stack_s.pop()
            wt += stack_w.pop()
            f = stack_f.pop()
            m = s / wt
        stack_m.append(m)
        stack_s.append(s)
        stack_w.append(wt)
        stack_f.append(f)
    sizes = np.diff(np.array(stack_f, dtype=np.intp), append=n)
    return np.repeat(np.array(stack_m, dtype=float), sizes)


def monotone_regression(values, order=None, weights=None) -> np.ndarray:
    """Weighted isotonic (monotone non-decreasing) regression by PAVA.

    Fits the non-decreasing sequence closest in weighted least squares to
    ``values`` taken in ``order`` (a permutation of the positions of
    ``values``; identity when omitted), and returns the fitted values in the
    original positions.  ``ValueError`` unless the weights are finite,
    positive and one per value, and ``order`` is such a permutation.
    """
    y = np.asarray(values, dtype=float)
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape:
            raise ValueError(f"{len(w)} weights for {len(y)} values")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("weights must be finite and positive")
    if order is None:
        return _pool_adjacent_violators(y, w)
    order = np.asarray(order, dtype=int)
    if order.shape != y.shape or not np.array_equal(np.sort(order), np.arange(len(y))):
        raise ValueError(f"order must be a permutation of the {len(y)} value positions")
    out = np.empty_like(y)
    out[order] = _pool_adjacent_violators(y[order], w[order])
    return out


def classical_init(D, k: int) -> np.ndarray:
    """Torgerson double-centering start for SMACOF.

    The Gram matrix -0.5 * J D^2 J is eigendecomposed and the top-k
    eigenvectors are scaled by the square roots of their (non-negative)
    eigenvalues.  Deterministic: eigenvector signs are fixed so each
    column's largest-magnitude entry is positive.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if k >= n:
        raise DimensionTooLarge(f"cannot embed {n} points in {k} dimensions")
    D2 = D**2
    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * (J @ D2 @ J)
    B = (B + B.T) / 2.0
    values, vectors = eigen_symmetric(B)
    coords = vectors[:, :k] * np.sqrt(np.maximum(values[:k], 0.0))
    return coords - coords.mean(axis=0)


def procrustes_align(X, Y):
    """Align Y to X by translation, orthogonal transform, and isotropic scale.

    Returns ``(aligned_Y, congruence)`` where congruence is one minus the
    residual sum of squares over the total variance of X, so 1 means the
    configurations match exactly up to rotation/reflection/scale/shift.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ValueError("configurations must have matching shapes")
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    ssx = float((Xc**2).sum())
    ssy = float((Yc**2).sum())
    if ssx <= 0 or ssy <= 0:
        raise DegenerateConfiguration("cannot align a zero-variance configuration")
    U, sing, Vt = np.linalg.svd(Yc.T @ Xc)
    R = U @ Vt
    scale = float(sing.sum()) / ssy
    aligned = scale * (Yc @ R) + X.mean(axis=0)
    residual = ssx - float(sing.sum()) ** 2 / ssy
    congruence = 1.0 - residual / ssx
    return aligned, float(min(max(congruence, 0.0), 1.0))


def _distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``X``, exact near coincidence.

    The squared differences are summed one coordinate axis at a time, so the
    result is bitwise symmetric and a nearly coincident pair keeps its small
    distance; the Gram form ``sq_i + sq_j - 2 G_ij`` would cancel it to 0.
    """
    d2 = np.zeros((len(X), len(X)))
    for x in X.T:
        diff = x[:, None] - x
        diff *= diff
        d2 += diff
    return np.sqrt(d2, out=d2)


def _fit_nonneg_affine(delta, dist):
    """Least-squares fit of dist ~ a + b*delta with a, b >= 0."""
    sw = float(len(delta))
    swx = delta.sum()
    swy = dist.sum()
    swxx = (delta * delta).sum()
    swxy = (delta * dist).sum()
    det = sw * swxx - swx * swx
    candidates = []
    if det > 0:
        a = (swxx * swy - swx * swxy) / det
        b = (sw * swxy - swx * swy) / det
        if a >= 0 and b >= 0:
            candidates.append((a, b))
    if swxx > 0:
        candidates.append((0.0, max(swxy / swxx, 0.0)))
    if sw > 0:
        candidates.append((max(swy / sw, 0.0), 0.0))
    best, best_err = (0.0, 0.0), np.inf
    for a, b in candidates:
        err = float(((dist - a - b * delta) ** 2).sum())
        if err < best_err:
            best, best_err = (a, b), err
    return best


def _fixed_pairs(delta, mask, level: str):
    """The part of a disparity transformation that stays fixed during a fit.

    Returns ``(pairs, dv, ranks)``: the flat row-major indices of the masked
    ``i < j`` pairs, their dissimilarities, and, at the ordinal level only,
    ``ranks = (order, tied, groups)``: the stable ascending order of ``dv``,
    the positions in it whose value is shared with a neighbour, and the tie
    block number of each of those positions.
    """
    n = mask.shape[0]
    rows, cols = np.triu_indices(n, 1)
    sel = mask[rows, cols]
    pairs = rows[sel] * n + cols[sel]
    dv = delta.take(pairs)
    if level != "ordinal":
        return pairs, dv, None
    order = np.argsort(dv, kind="stable")
    ds = dv[order]
    same = ds[1:] == ds[:-1]
    tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    groups = np.cumsum(np.r_[True, ~same])[tied]
    return pairs, dv, (order, tied, groups)


def transform_disparities(delta, dist, level: str, mask, *, fixed=None) -> np.ndarray:
    """Optimal level-bound transformation of configuration distances.

    Given input dissimilarities ``delta`` and current configuration
    distances ``dist`` (both square), returns the unscaled disparity matrix
    for the requested measurement level over the pairs selected by ``mask``
    (symmetric boolean, diagonal False).  Ties in the ordinal case are
    untied: tied ``delta`` blocks are ordered by current distance.
    ``fixed`` is ``_fixed_pairs(delta, mask, level)``, which :func:`mds`
    computes once per fit; it is computed here when omitted.
    """
    pairs, dv, ranks = _fixed_pairs(delta, mask, level) if fixed is None else fixed
    xv = dist.take(pairs)
    if level == "ratio":
        denom = float((dv * dv).sum())
        b = float((dv * xv).sum()) / denom if denom > 0 else 0.0
        fitted = max(b, 0.0) * dv
    elif level == "interval":
        a, b = _fit_nonneg_affine(dv, xv)
        fitted = a + b * dv
    elif level == "ordinal":
        # untie: re-sort each tie block by current distance, then by index,
        # which is the order np.lexsort((xv, dv)) gives
        order, tied, groups = ranks
        if len(tied):
            order = order.copy()
            block = order[tied]
            order[tied] = block[np.lexsort((xv[block], groups))]
        fitted = np.empty_like(xv)
        fitted[order] = _pool_adjacent_violators(xv[order], np.ones_like(xv))
        fitted = np.maximum(fitted, 0.0)
    else:
        raise ValueError(f"unknown level {level!r}")
    if not np.any(fitted > 0):
        fitted = dv.copy()
    out = np.zeros(dist.size)
    out[pairs] = fitted
    out = out.reshape(dist.shape)
    return out + out.T


def _smacof(W, targets, X, epsilon: float, max_iterations: int, update=None):
    """Weighted SMACOF: minimize ``sum_{i<j} W_ij (targets_ij - d_ij(X))^2``.

    ``W`` is a symmetric non-negative weight matrix with a zero diagonal,
    ``targets`` the symmetric target distances and ``X`` the start.  Each
    iteration is one Guttman transform ``X = V+ B(X) X`` (``V`` the weighted
    Laplacian, ``V+`` its pseudo-inverse), whatever the weights, after which
    ``update(dist)``, when given, returns the targets for the new distances.
    Returns ``(X, history, iterations, converged)``: ``history`` holds the
    normalized raw stress ``sum_w (targets - d)^2 / sum_w targets^2`` at the
    start and after every iteration, and the run has converged once an
    iteration lowers it by less than ``epsilon``.
    """
    V = np.diag(W.sum(axis=1)) - W
    values, vectors = eigen_symmetric(V)
    inv = np.where(values > 1e-12 * max(values.max(), 1.0), 1.0 / np.where(values > 0, values, 1.0), 0.0)
    Vplus = (vectors * inv) @ vectors.T
    w = W.ravel()

    def weigh(T):
        # W * T, and sum_w T^2; full-matrix sums count every pair twice,
        # which cancels in the stress ratio
        WT = W * T
        return WT, float(np.dot(WT.ravel(), T.ravel()))

    def stress(T, dist, norm) -> float:
        r = T - dist
        r *= r
        return float(np.dot(w, r.ravel())) / norm

    T = targets
    WT, norm = weigh(T)
    dist = _distances(X)
    history = [stress(T, dist, norm)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # B(X) X, with B(X)_ij = -W_ij T_ij / d_ij off the diagonal, 0 where d_ij = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = WT / dist
        ratio[dist == 0] = 0.0
        BX = ratio.sum(axis=1)[:, None] * X - ratio @ X
        X = Vplus @ BX
        X -= X.mean(axis=0)
        dist = _distances(X)
        if update is not None:
            T = update(dist)
            WT, norm = weigh(T)
        history.append(stress(T, dist, norm))
        if history[-2] - history[-1] < epsilon:
            converged = True
            break
    return X, history, iterations, converged


def mds(P: ProximityMatrix, cfg: MdsConfig = MdsConfig()) -> Configuration:
    """Fit a k-dimensional configuration to a proximity matrix by SMACOF.

    Similarity inputs are converted internally (constant = matrix maximum)
    before fitting; dissimilarities are fitted directly.  ``cfg.level`` is
    the measurement level the fit assumes.  Returns a centered
    :class:`Configuration` whose ``stress_history`` records the normalized
    raw stress after every majorization step.  A point with no observed
    dissimilarity is named in a warning: nothing places it.  A fit that
    stops at ``cfg.max_iterations`` warns with its last stress change.
    """
    work = to_dissimilarity(P) if P.kind == "similarity" else P
    delta = np.array(work.data, dtype=float)
    n = delta.shape[0]
    k = cfg.dimensions
    if k >= n:
        raise DimensionTooLarge(f"cannot embed {n} points in {k} dimensions")
    mask = ~np.isnan(delta)
    np.fill_diagonal(mask, False)
    mask &= mask.T
    finite = np.where(mask, delta, 0.0)
    if not np.any(finite > 0):
        raise DegenerateInput("all off-diagonal dissimilarities are zero")
    unobserved = [work.labels[i] for i in np.flatnonzero(~mask.any(axis=1))]
    if unobserved:
        warnings.warn(f"points without any observed dissimilarity: {unobserved}",
                      stacklevel=2)
    W = mask.astype(float)
    fixed = _fixed_pairs(delta, mask, cfg.level)

    npairs = n * (n - 1) / 2.0

    def normalize(dh: np.ndarray) -> np.ndarray:
        return dh * np.sqrt(npairs / (float((W * dh * dh).sum()) / 2))

    dhat = normalize(finite)

    if cfg.init == "classical":
        fill = float(delta[mask].mean())
        D0 = np.where(mask, delta, fill)
        np.fill_diagonal(D0, 0.0)
        X = classical_init(D0, k)
    else:
        rng = np.random.default_rng(cfg.seed)
        X = rng.standard_normal((n, k))
        X -= X.mean(axis=0)
    dist = _distances(X)
    # optimal dilation of the start so the first stress is scale-free
    sxy = float((W * dhat * dist).sum())
    sxx = float((W * dist * dist).sum())
    if sxx > 0 and sxy > 0:
        X = X * (sxy / sxx)

    # with the fixed normalization, ratio disparities never move
    update = None if cfg.level == "ratio" else (
        lambda dist: normalize(transform_disparities(delta, dist, cfg.level, mask, fixed=fixed)))
    X, history, iterations, converged = _smacof(W, dhat, X, cfg.epsilon, cfg.max_iterations,
                                                update)
    if not converged:
        warnings.warn(f"SMACOF stopped at the cap of {iterations} iterations; the last "
                      f"stress change was {history[-2] - history[-1]:.3g}", stacklevel=2)
    return Configuration(
        labels=work.labels,
        coords=X,
        stress=history[-1],
        iterations_used=iterations,
        converged=converged,
        stress_history=tuple(history),
    )
