"""Multidimensional scaling by SMACOF stress majorization.

The scaler accepts a :class:`~cocmap.matrices.ProximityMatrix` of either
kind: similarities are first turned upside down via
``dissimilarity = constant - similarity`` with the constant chosen as the
matrix maximum, after which both kinds follow the identical iteration, so
the two entry points produce the same configuration.

Proximities may be treated at three measurement levels.  At every point
the fit scores, the dissimilarities are optimally transformed into
*disparities*:

* ``ratio``    -- ``d_hat = b * delta`` with ``b >= 0``;
* ``interval`` -- ``d_hat = a + b * delta`` with ``a, b >= 0`` (a non-negative
  fit, so disparities never need clamping);
* ``ordinal``  -- monotone (isotonic) regression of the configuration
  distances in ascending ``delta`` order, with tied proximities untied (tied
  blocks are ordered by current distance and may receive distinct values).
  The ``delta`` order is sorted once per fit; each transformation re-sorts
  only inside its tie blocks, and its pool-adjacent-violators fit starts
  from the previous transformation's blocks: a block is pooled at once when
  its own isotonic fit is a single block, which late in a fit every block
  is, and the other blocks are re-split before the usual passes finish the
  fit.

Disparities are rescaled at every point the fit scores so that their
weighted sum of squares equals ``n (n - 1) / 2``, which pins the stress
denominator and prevents the degenerate collapse solution in the nonmetric
case; the rescaling and the stress of interval and ordinal disparities are
taken on the vector of observed pairs, not on n x n matrices.  The
reported badness of fit is normalized raw stress

    sigma_n = sum_w (d_hat - d(X))^2 / sum_w d_hat^2

over the upper-triangle pairs (diagonal weight 0, missing proximities
weight 0).  Note sigma_n is the square of Kruskal's stress-1 for the same
disparities, so cross-software comparisons must square or root accordingly.
The majorization map is the Guttman transform ``G`` (de Leeuw 1988; Borg &
Groenen, *Modern MDS*, 2005, ch. 8), which cannot increase sigma_n but
converges only linearly, so the fit runs SQUAREM cycles on it (Varadhan &
Roland 2008): two plain steps, a squared extrapolation from their
differences, and one stabilizing step, with the extrapolation pulled back
toward the plain steps whenever the cycle would raise the stress.  The
recorded stress sequence, one entry per cycle, is non-increasing; a fit
converges once a cycle lowers sigma_n by less than ``epsilon``, and its
iteration count is the number of Guttman transforms taken.  Configuration
distances are summed one axis at a time, so they stay exact for nearly
coincident points and every such pair gets its push apart; an exactly
coincident pair is pushed apart along the first axis.  The iteration itself
is a weighted SMACOF core that the Kamada-Kawai layout of
:mod:`cocmap.layout` shares.  A matrix with every pair observed is fit with
unit weights, whose transform is ``G = B(X) X / n``: no weight matrix, no
inverse of ``V``.  A matrix with a missing pair is fit with weights 0 and 1
through the general ``G = V+ B(X) X``.  Interval and ordinal disparities are
written over the first step's targets, so a fit holds no separate disparity
matrix; ``B(X)`` is formed in the distances' scratch.
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
    ``"random"``, which requires an explicit ``seed``.  ``max_iterations``
    caps the Guttman transforms, three or more to a SQUAREM cycle, and
    ``epsilon`` is the convergence threshold on the stress change of one
    cycle.
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
    """A fitted embedding: centered coordinates ``X``, the final stress and
    the Guttman residual ``|X - G| / |G|`` of ``X`` (see :func:`mds`)."""

    labels: tuple[str, ...]
    coords: np.ndarray
    stress: float
    iterations_used: int
    converged: bool
    stress_history: tuple[float, ...] = ()
    residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(np.asarray(self.coords, dtype=float)))
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "stress_history", tuple(float(s) for s in self.stress_history))


def _block_sizes(first: np.ndarray, n: int) -> np.ndarray:
    """The lengths of the blocks that start at ``first`` in a sequence of ``n``."""
    return np.append(first[1:], n) - first


def _pool_blocks(means, sums, wsums, first, n: int):
    """Pool adjacent violators over blocks, each given by its mean, its sums
    of weighted values and of weights, and its first position in a sequence
    of ``n``.  Returns the isotonic fit and the start positions of its blocks.

    Numpy passes pool first: every run of adjacent blocks whose means do
    not increase shares one value in the fit, so each pass merges all such
    runs at once, summing their weights and weighted values with
    ``np.bincount``.  The solution is unique whatever the pooling order, so
    this is exact.  Passes alone are quadratic on a cascade such as
    ``[0, 1, ..., n - 2, -1e9]``, so once a pass pools fewer than one block
    in eight, the classic stack loop finishes over the surviving blocks.
    """
    while len(means) > 1:
        new_block = np.concatenate(([True], means[1:] > means[:-1]))
        block = np.cumsum(new_block) - 1
        pooled = len(means) - 1 - int(block[-1])
        if pooled == 0:  # strictly increasing: this is the fit
            return means.repeat(_block_sizes(first, n)), first
        last_pass = 8 * pooled < len(means)
        sums = np.bincount(block, sums)
        wsums = np.bincount(block, wsums)
        first = first[new_block]
        means = sums / wsums
        if last_pass:
            break
    # The stack loop visits a block only until one is pushed without a merge:
    # the rest of that increasing run cannot merge, so it is copied as is.
    runs = [0, *(np.flatnonzero(means[1:] <= means[:-1]) + 1).tolist(), len(means)]
    means, sums, wsums, first = means.tolist(), sums.tolist(), wsums.tolist(), first.tolist()
    stack_m: list[float] = []
    stack_s: list[float] = []
    stack_w: list[float] = []
    stack_f: list[int] = []
    for i, end in zip(runs, runs[1:]):
        while i < end:
            m, s, wt, f = means[i], sums[i], wsums[i], first[i]
            i += 1
            merged = bool(stack_m) and stack_m[-1] >= m
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
            if not merged:
                break
        stack_m += means[i:end]
        stack_s += sums[i:end]
        stack_w += wsums[i:end]
        stack_f += first[i:end]
    first = np.array(stack_f, dtype=np.intp)
    return np.array(stack_m, dtype=float).repeat(_block_sizes(first, n)), first


def _pool_adjacent_violators(y: np.ndarray, w: np.ndarray):
    """Isotonic fit of ``y``, taken in the given order, with weights ``w > 0``,
    pooled from singletons by :func:`_pool_blocks`; returns the fit and the
    start positions of its blocks."""
    return _pool_blocks(y, w * y, w, np.arange(len(y)), len(y))


_EPS = np.finfo(float).eps


def _broken_blocks(y: np.ndarray, first: np.ndarray, sizes: np.ndarray):
    """Which candidate blocks a unit-weight isotonic fit of ``y`` may not keep whole.

    The candidates start at ``first`` and hold ``sizes`` positions.  A
    candidate is whole when every proper prefix sum of ``y - m``, ``m`` its
    mean, is positive: exactly then is its own isotonic fit a single block.
    Returns a flag per candidate, set unless every such sum clearly exceeds
    the rounding of this computation, those prefix sums, and the sum of
    ``y`` over each candidate.
    """
    sums = np.add.reduceat(y, first)
    r = y - (sums / sizes).repeat(sizes)
    c = r.cumsum()
    c -= (c[first] - r[first]).repeat(sizes)  # r summed from the block start
    bad = c <= 8 * len(y) * _EPS * max(-y.min(), y.max())
    bad[first[1:] - 1] = False  # a whole block's sum is not a proper prefix
    bad[-1] = False
    return np.logical_or.reduceat(bad, first), c, sums


def _refit_isotonic(y: np.ndarray, first: np.ndarray):
    """Unit-weight isotonic fit of ``y`` that starts from the blocks of an
    earlier fit instead of from singletons.

    ``first`` holds the ascending start positions of the candidate blocks,
    beginning with 0.  Pooling a candidate whose own isotonic fit is a
    single block (see :func:`_broken_blocks`) is a sequence of legal PAVA
    moves, so the fit stays the unique one.  A broken candidate is cut
    after its lowest prefix sum, which splits it into the two blocks of its
    own fit when that has two, as it mostly has; each piece is tested in
    turn, and a broken piece is split into singletons.  :func:`_pool_blocks`
    pools the resulting blocks.  Returns the fit and the start positions of
    its blocks.
    """
    n = len(y)
    if len(first) == n:  # singletons: nothing to test
        return _pool_adjacent_violators(y, np.ones_like(y))
    sizes = _block_sizes(first, n)
    broken, c, sums = _broken_blocks(y, first, sizes)
    if broken.any():
        inside = np.flatnonzero(broken.repeat(sizes))
        sizes = sizes[broken]
        starts = np.cumsum(sizes) - sizes  # of the broken candidates, within inside
        c = c[inside]
        cut = np.zeros(len(inside) + 1, dtype=bool)
        cut[starts] = True
        cut[np.flatnonzero(c == np.minimum.reduceat(c, starts).repeat(sizes)) + 1] = True
        pieces = np.flatnonzero(cut[:-1])
        sizes = _block_sizes(pieces, len(inside))
        split = _broken_blocks(y[inside], pieces, sizes)[0].repeat(sizes)
        split[pieces] = True
        keep = np.zeros(n, dtype=bool)
        keep[first[~broken]] = True
        keep[inside[split]] = True
        first = np.flatnonzero(keep)
        sizes = _block_sizes(first, n)
        sums = np.add.reduceat(y, first)
    wsums = sizes.astype(float)
    return _pool_blocks(sums / wsums, sums, wsums, first, n)


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
        return _pool_adjacent_violators(y, w)[0]
    order = np.asarray(order, dtype=int)
    if order.shape != y.shape or not np.array_equal(np.sort(order), np.arange(len(y))):
        raise ValueError(f"order must be a permutation of the {len(y)} value positions")
    out = np.empty_like(y)
    out[order] = _pool_adjacent_violators(y[order], w[order])[0]
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
    # each n x n array is dropped once used; a D the caller passes without
    # keeping it is freed here
    D2 = D**2
    del D
    J = np.full((n, n), -1.0 / n)
    np.fill_diagonal(J, 1.0 - 1.0 / n)
    B = J @ D2
    del D2
    B = B @ J
    del J
    B *= -0.5
    values, vectors = eigen_symmetric(B)
    del B
    coords = vectors[:, :k] * np.sqrt(np.maximum(values[:k], 0.0))
    return coords - coords.mean(axis=0)


def _filled(delta, mask) -> np.ndarray:
    """``delta`` with every unobserved pair set to the mean observed value
    and a zero diagonal: the matrix the classical start of :func:`mds` scales."""
    D0 = np.where(mask, delta, float(delta[mask].mean()))
    np.fill_diagonal(D0, 0.0)
    return D0


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


def _distances(X: np.ndarray, out=None) -> np.ndarray:
    """Euclidean distances between the rows of ``X``, exact near coincidence.

    The squared differences are summed one coordinate axis at a time, so the
    result is bitwise symmetric and a nearly coincident pair keeps its small
    distance; the Gram form ``sq_i + sq_j - 2 G_ij`` would cancel it to 0.
    The axes are taken as contiguous copies, each difference is a broadcast
    subtraction (a quarter faster than ``np.subtract.outer``), and the sum
    is kept in place.  ``out``, when given, is a pair of n x n arrays: the
    result is written into the first, and the second is scratch.
    """
    d2, diff = (None, None) if out is None else out
    axes = np.ascontiguousarray(X.T)
    d2 = np.subtract(axes[0][:, None], axes[0], out=d2)
    d2 *= d2
    for x in axes[1:]:
        diff = np.subtract(x[:, None], x, out=diff)
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


class _FitPairs:
    """The pairs a disparity transformation fits, and what one call leaves for the next.

    ``upper`` and ``lower`` are the flat indices of the masked ``i < j``
    pairs in the upper and lower triangle, in row-major order except at the
    ordinal level, where they are in the stable ascending order of their
    dissimilarities; there ``tied`` holds the positions whose dissimilarity
    is shared with a neighbour and ``groups`` the tie block number of each.
    A call of :func:`transform_disparities` given this object leaves its
    distances and unscaled disparities in one pair order for
    :meth:`take_pairs` and, at the ordinal level, keeps in ``blocks`` the
    block starts of its isotonic fit, from which the next call's fit
    starts; the first call starts from singletons.
    """

    def __init__(self, delta, mask, level: str):
        n = mask.shape[0]
        rows, cols = np.triu_indices(n, 1)
        sel = mask[rows, cols]
        rows, cols = rows[sel], cols[sel]
        self.tied = self.groups = None
        if level == "ordinal":
            dv = delta[rows, cols]
            order = np.argsort(dv, kind="stable")
            rows, cols = rows[order], cols[order]
            same = dv[order[1:]] == dv[order[:-1]]
            self.tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
            self.groups = np.cumsum(np.r_[True, ~same])[self.tied]
        self.upper = rows * n + cols
        self.lower = cols * n + rows
        self.blocks = np.arange(len(rows))
        self.pairs = None

    def take_pairs(self):
        """The distances and unscaled disparities of the last call, as pair
        vectors in one order; they are handed over once and not kept."""
        pairs, self.pairs = self.pairs, None
        return pairs


def transform_disparities(delta, dist, level: str, mask, *, fixed=None, out=None) -> np.ndarray:
    """Optimal level-bound transformation of configuration distances.

    Given input dissimilarities ``delta`` and current configuration
    distances ``dist`` (both square), returns the unscaled disparity matrix
    for the requested measurement level over the pairs selected by ``mask``
    (symmetric boolean, diagonal False).  Ties in the ordinal case are
    untied: tied ``delta`` blocks are ordered by current distance.
    ``fixed`` is ``_FitPairs(delta, mask, level)``, which :func:`mds`
    builds once per fit and through which an ordinal fit starts from the
    previous call's blocks; it is built afresh when omitted.  ``out`` is
    a matrix that is zero off the ``mask`` pairs, such as one an earlier
    call with the same ``mask`` returned: the disparities are written into
    its pair cells, the only cells any call writes, and it is returned.  A
    zeroed matrix is made when it is omitted.
    """
    fp = _FitPairs(delta, mask, level) if fixed is None else fixed
    upper, lower = fp.upper, fp.lower
    xv = dist.take(upper)
    if level == "ratio":
        dv = delta.take(upper)
        denom = float((dv * dv).sum())
        b = float((dv * xv).sum()) / denom if denom > 0 else 0.0
        fitted = max(b, 0.0) * dv
    elif level == "interval":
        dv = delta.take(upper)
        a, b = _fit_nonneg_affine(dv, xv)
        fitted = a + b * dv
    elif level == "ordinal":
        if len(fp.tied):
            # untie: re-sort each tie block by current distance, then by
            # index, which is the order np.lexsort((xv, dv)) gives
            tied = fp.tied
            moved = tied[np.lexsort((xv[tied], fp.groups))]
            xv[tied] = xv[moved]
            upper, lower = upper.copy(), lower.copy()
            upper[tied] = upper[moved]
            lower[tied] = lower[moved]
        fitted, fp.blocks = _refit_isotonic(xv, fp.blocks)
        np.maximum(fitted, 0.0, out=fitted)
    else:
        raise ValueError(f"unknown level {level!r}")
    if not np.any(fitted > 0):
        fitted = delta.take(upper)
    fp.pairs = xv, fitted
    if out is None:
        out = np.zeros(dist.shape)
    flat = out.reshape(-1)  # a view of the contiguous matrix
    flat[upper] = fitted
    flat[lower] = fitted
    return out


def _components(W) -> np.ndarray:
    """The component of each point in the graph of the positive entries of
    ``W``, named by its first point."""
    n = len(W)
    adj = W > 0
    label = np.full(n, -1)
    for seed in range(n):
        if label[seed] < 0:
            reach = np.zeros(n, dtype=bool)
            reach[seed] = True
            frontier = reach
            while frontier.any():
                frontier = adj[frontier].any(axis=0) & ~reach
                reach |= frontier
            label[reach] = seed
    return label


def _smacof(W, targets, X, epsilon: float, max_iterations: int, update=None):
    """Weighted SMACOF: minimize ``sum_{i<j} W_ij (targets_ij - d_ij(X))^2``.

    ``W`` is a symmetric non-negative weight matrix with a zero diagonal, or
    None for unit weights on every pair; ``targets`` holds the symmetric
    target distances, with a zero diagonal, and ``X`` the start, which is
    centered first.  The map ``F`` is the Guttman transform
    ``G = V+ B(X) X`` (``V`` the weighted Laplacian, ``V+`` its
    pseudo-inverse).  For unit weights ``V = n I - 1 1'``, whose
    pseudo-inverse acts on the centered ``B(X) X`` as ``1 / n``, so
    ``G = B(X) X / n`` (de Leeuw 1988; Borg & Groenen 2005, ch. 8) and no
    n x n weight or ``V`` matrix is formed.  Every point the fit scores
    after the start is passed to ``update(dist, out)``, when given, which
    writes the new targets times ``W`` into ``out`` at every pair of
    positive weight and returns their normalized stress for the distances
    ``dist``.  ``out`` is zero at every other cell; it is the matrix that
    held ``W * targets`` for the first step, which for unit weights is
    ``targets`` itself: a fit with an update overwrites it, so its caller
    hands it over.  ``B(X)`` is formed apart from it, in the distances'
    scratch, so ``W * targets`` holds from one update to the next.  ``F``
    cannot raise the stress (de Leeuw 1988) but converges only linearly, so
    the fit runs SQUAREM cycles on it (Varadhan & Roland 2008, steplength
    SqS3).  A cycle takes two plain steps ``X1 = F(X)`` and ``X2 = F(X1)``,
    moves to ``X - 2 a r + a^2 v`` with ``r = X1 - X``,
    ``v = X2 - 2 X1 + X`` and ``a = min(-|r| / |v|, -1)``, and ends on one
    stabilizing step ``F`` from there.  Where that end has a
    higher stress than ``X``, the cycle takes one more transform from a
    steplength halfway to -1 (-1 itself from above -1.5); at ``a = -1`` the
    point is ``X2`` and the cycle three plain steps, which cannot raise the
    stress.  ``max_iterations`` caps the Guttman transforms; a cap that
    leaves a cycle too few for its stabilizing step ends it on its last
    plain step.  A cycle's end whose stress rose, which only rounding can
    do, is not kept.  With fixed targets (no ``update``) the fit takes the
    stress only of the points whose stress it reads, the ends of the
    cycles; an update runs at every point it scores, since it writes ``W * T``.
    Returns ``(X, history, iterations, converged, residual)``: ``history``
    holds the normalized raw stress ``sum_w (targets - d)^2 / sum_w targets^2``
    at the start and at the end of every cycle, ``iterations`` counts the
    Guttman transforms, and the run has converged once a cycle lowers the
    stress by less than ``epsilon``.  ``residual`` is ``|X - G| / |G|``, ``G``
    the Guttman transform of the returned ``X``, which ``iterations`` does
    not count: the stress gradient is ``2 V (X - G)``, so it is 0 at a
    stationary point, whatever its scale.
    """
    n = len(X)
    if W is None:
        Minv = None
        WT = targets
        # the squared residuals are summed against ones, which takes the
        # order of the weighted sum, so unit weights score a point as
        # W = 1 - I does to the last bit; np.dot(r, r) fuses each square into
        # the sum and moves the last digit
        w = np.ones(n * n)
    else:
        # V+ B(X) X = (V + E)^-1 B(X) X, where E_ij = 1 when i and j share a
        # component of the weight graph: (V + E)^-1 = V+ + sum_c 1_c 1_c' / |c|^2
        # and 1_c' B(X) = 0.  V + E is taken with its rows divided by its
        # diagonal s
        M = np.diag(W.sum(axis=1)) - W
        label = _components(W)
        M += label[:, None] == label
        del label
        s = M.diagonal().copy()
        M /= s[:, None]
        Minv = np.linalg.inv(M)
        del M  # the fit holds M^-1 alone
        WT = W * targets
        w = W.ravel()
    # sum_w targets^2 over the full matrix counts every pair twice, which
    # cancels in the stress ratio
    norm0 = float(np.dot(WT.ravel(), targets.ravel()))
    # the distances and their scratch reuse two n x n arrays; B(X) is formed in
    # the scratch, free from the stress of a point to the next point's distances
    buffers = (np.empty_like(WT), np.empty_like(WT))
    ratio = buffers[1]
    X = X - X.mean(axis=0)
    dist = _distances(X, buffers)

    def target_stress(dist) -> float:
        # the residuals go in the distances' scratch, free once they are taken
        r = np.subtract(targets, dist, out=buffers[1])
        r *= r
        return float(np.dot(w, r.ravel())) / norm0

    history = [target_stress(dist)]
    if update is not None:
        # moving targets: the update rewrites W * T; the first step's
        # targets are dropped
        targets = w = None

    def score(X, read=False):
        # the distances of X and, where it is read, their stress; an update
        # writes its W * T at every point, and returns the stress with it
        dist = _distances(X, buffers)
        if update is not None:
            return dist, update(dist, WT)
        return dist, target_stress(dist) if read else None

    def guttman(X, dist):
        # B(X) X, with B(X)_ij = -W_ij T_ij / d_ij off the diagonal, 0 where d_ij = 0
        zero = dist == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(WT, dist, out=ratio)
        ratio[zero] = 0.0
        BX = ratio.sum(axis=1)[:, None] * X - ratio @ X
        if np.count_nonzero(zero) > len(X):
            # a coincident pair i < j with a positive target: its distance is
            # minorized by x_i - x_j on the first axis instead, which pushes
            # the pair apart and still cannot raise the stress
            i, j = np.nonzero(np.triu(zero & (WT > 0), 1))
            push = WT[i, j]
            np.add.at(BX[:, 0], i, push)
            np.subtract.at(BX[:, 0], j, push)
        G = BX / n if Minv is None else Minv @ (BX / s[:, None])
        G -= G.mean(axis=0)
        return G

    converged = False
    iterations = 0
    while not converged and iterations < max_iterations:
        start = history[-1]
        Y = guttman(X, dist)
        iterations += 1
        dist, stress = score(Y, read=iterations == max_iterations)
        if iterations < max_iterations:
            X1, X2 = Y, guttman(Y, dist)
            iterations += 1
            # a retry needs X, r and v alone: the distances of X are dead
            r = X1 - X
            v = X2 - X1
            v -= r
            rr = float(np.dot(r.ravel(), r.ravel()))
            vv = float(np.dot(v.ravel(), v.ravel()))
            alpha = min(-np.sqrt(rr / vv), -1.0) if vv > 0 else -1.0
            while True:
                if iterations == max_iterations:
                    # no transform left to stabilize: the cycle ends on X2
                    Y = X2
                    dist, stress = score(Y, read=True)
                    break
                P = X2 if alpha == -1.0 else X - 2.0 * alpha * r + alpha * alpha * v
                Y = guttman(P, score(P)[0])
                iterations += 1
                dist, stress = score(Y, read=True)
                if stress <= start or alpha == -1.0:
                    break
                alpha = (alpha - 1.0) / 2.0 if alpha < -1.5 else -1.0
        # a point whose stress rose, which only rounding can do, is not kept
        if stress <= start:
            X, start = Y, stress
        history.append(start)
        converged = history[-2] - start < epsilon
    G = guttman(X, score(X)[0])
    return X, history, iterations, converged, float(np.linalg.norm(X - G) / np.linalg.norm(G))


def _normalized_targets(delta, mask, X) -> np.ndarray:
    """The observed dissimilarities, 0 off the ``mask`` pairs, scaled so that
    their sum of squares over the pairs is ``n (n - 1) / 2``: the targets
    :func:`mds` hands to :func:`_smacof`.  The start ``X`` is dilated in
    place to the scale that fits them best, so the first stress is
    scale-free."""
    n = len(delta)
    dhat = np.where(mask, delta, 0.0)
    dhat *= np.sqrt(n * (n - 1) / 2.0 / (float((dhat * dhat).sum()) / 2))
    # the start's distances with weight 0 off the pairs
    dist = _distances(X)
    dist *= mask
    sxy = float((dhat * dist).sum())
    dist *= dist
    sxx = float(dist.sum())
    if sxx > 0 and sxy > 0:
        X *= sxy / sxx
    return dhat


def mds(P: ProximityMatrix, cfg: MdsConfig = MdsConfig()) -> Configuration:
    """Fit a k-dimensional configuration to a proximity matrix by SMACOF.

    Similarity inputs are converted internally (constant = matrix maximum)
    before fitting; dissimilarities are fitted directly.  ``cfg.level`` is
    the measurement level the fit assumes.  Returns a centered
    :class:`Configuration` whose ``stress_history`` records the normalized
    raw stress at the start and after every SQUAREM cycle (the last entry
    is that of the point the fit returns), whose ``iterations_used``
    counts Guttman transforms and whose ``residual`` measures how far the
    returned point is from stationary.  A point with no observed
    dissimilarity is named in a warning: nothing places it.  A fit that stops at
    ``cfg.max_iterations`` warns with the stress change of its last cycle.
    """
    work = to_dissimilarity(P) if P.kind == "similarity" else P
    delta = work.data  # frozen float64: read, never copied
    n = delta.shape[0]
    k = cfg.dimensions
    if k >= n:
        raise DimensionTooLarge(f"cannot embed {n} points in {k} dimensions")
    mask = ~np.isnan(delta)
    np.fill_diagonal(mask, False)
    if not np.any(mask & (delta > 0)):
        raise DegenerateInput("all off-diagonal dissimilarities are zero")
    unobserved = [work.labels[i] for i in np.flatnonzero(~mask.any(axis=1))]
    if unobserved:
        warnings.warn(f"points without any observed dissimilarity: {unobserved}",
                      stacklevel=2)
    # a complete matrix is fit with unit weights, which the core takes
    # without a weight matrix; a missing pair gets weight 0
    W = None if np.count_nonzero(mask) == n * (n - 1) else mask.astype(float)

    if cfg.init == "classical":
        # the filled dissimilarities are handed over, for classical_init to drop
        X = classical_init(_filled(delta, mask), k)
    else:
        rng = np.random.default_rng(cfg.seed)
        X = rng.standard_normal((n, k))
        X -= X.mean(axis=0)

    update = None
    if cfg.level != "ratio":  # with the fixed normalization, ratio disparities never move
        fixed = _FitPairs(delta, mask, cfg.level)
        npairs = n * (n - 1) / 2.0

        def update(dist, out):
            # write the normalized disparities into the core's matrix, zero
            # off the pairs, and take their stress on the pair vectors
            transform_disparities(delta, dist, cfg.level, mask, fixed=fixed, out=out)
            xv, fitted = fixed.take_pairs()
            scale = np.sqrt(npairs / float(np.dot(fitted, fitted)))
            out *= scale
            fitted *= scale
            r = fitted - xv
            return float(np.dot(r, r)) / float(np.dot(fitted, fitted))

    # the targets are handed over, so a fit whose update moves them drops
    # them after its first step
    X, history, iterations, converged, residual = _smacof(
        W, _normalized_targets(delta, mask, X), X, cfg.epsilon, cfg.max_iterations, update)
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
        residual=residual,
    )
