"""Newton kernels shared by the planar and spherical solvers: the line
search and stop rule of every Newton run, ``damped_newton``, and the
planar inversive-distance system that its Gauss-Newton caller solves.

A planar configuration is one complex center and one radius per vertex.
Moves are taken in per-vertex coordinates: two for the center and log r
for the radius, so column 3v+k of the Jacobian belongs to coordinate k of
vertex v.  No gauge is pinned: inversive distances are Moebius invariant,
so the Moebius motions that keep every circle bounded span the Jacobian's
null space, and the minimum-norm step has no component there.

The Jacobian is kept as its nonzeros, six per edge row, as (rows, cols,
vals) triplets.  The step is x = J^T y with (J J^T) y = -f, and G = J J^T
is summed from products of entries that share a column, by an index plan
built once per Newton run.  Matrices up to order ``DENSE_MAX`` are
factorized by numpy's dense LU and larger ones by scipy's sparse LU, which
is imported only then; the curvature Newton of both solvers factorizes
its Jacobian by the same rule.  Dense ``lstsq`` is only the fallback on
rank loss.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .triples import EUCLIDEAN, inversive

LINE_SEARCH_HALVINGS = 30
DENSE_MAX = 600          # largest order factorized dense; scipy's splu above
REFINE_TOL = 1e-11       # relative residual ||J x + f|| / ||f|| refined once
RANK_TOL = 1e-8          # relative residual left after refinement that marks rank loss

Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]   # (rows, cols, vals)


def residual_and_jacobian(centers: np.ndarray, radii: np.ndarray, edges: np.ndarray,
                          target_cos: np.ndarray) -> Tuple[np.ndarray, Triplets]:
    """Residual I_e - cos(theta_e) of a planar configuration and its
    analytic Jacobian as triplets: dI/dz_u = (z_u - z_v) / (r_u r_v) and
    dI/dlog r_u = -r_u/r_v - I.  Row e has six entries, in columns
    3u..3u+2 and 3v..3v+2 of its edge (u, v), returned as (rows, cols,
    vals).
    """
    inv = inversive(EUCLIDEAN, centers, radii, edges)
    u, v = edges[:, 0], edges[:, 1]
    ru, rv = radii[u], radii[v]
    g = (centers[u] - centers[v]) / (ru * rv)
    grad = np.stack([g.real, g.imag], axis=1)
    log_u, log_v = -ru / rv - inv, -rv / ru - inv
    rows = np.repeat(np.arange(len(edges)), 6)
    cols = (3 * edges[:, [0, 0, 0, 1, 1, 1]] + np.array([0, 1, 2, 0, 1, 2])).ravel()
    vals = np.concatenate([grad, log_u[:, None], -grad, log_v[:, None]], axis=1).ravel()
    return inv - target_cos, (rows, cols, vals)


def retract(centers: np.ndarray, radii: np.ndarray,
            step: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Configuration reached by moving every vertex by its three
    coordinates: the center by the first two, the radius by the factor exp
    of the third."""
    d = step.reshape(-1, 3)
    return centers + (d[:, 0] + 1j * d[:, 1]), radii * np.exp(d[:, 2])


class Assembly:
    """Summation plan of triplets with fixed rows and columns into a square
    matrix of order ``size``: a dense array up to ``DENSE_MAX``, a CSC
    matrix above it.  Entries at one position are summed in input order,
    as ``np.add.at`` sums them."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        slots, self.slot_of = np.unique(cols.astype(np.int64) * size + rows,
                                        return_inverse=True)
        self.rows, self.cols = slots % size, slots // size
        self.indptr = np.searchsorted(self.cols, np.arange(size + 1))
        self.size = size

    def matrix(self, vals: np.ndarray):
        data = np.bincount(self.slot_of, weights=vals, minlength=len(self.rows))
        if self.size > DENSE_MAX:
            from scipy.sparse import csc_matrix
            return csc_matrix((data, self.rows, self.indptr), shape=(self.size, self.size))
        A = np.zeros((self.size, self.size))
        A[self.rows, self.cols] = data
        return A


def factorize(A) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of A x = b by LU: numpy's dense solver for an array, ``splu``
    with the COLAMD column order for a CSC matrix, whose factor serves
    every right-hand side.  A singular factor raises
    ``np.linalg.LinAlgError``, here or at the solve."""
    if isinstance(A, np.ndarray):
        return lambda b: np.linalg.solve(A, b)
    from scipy.sparse.linalg import splu
    try:
        return splu(A, permc_spec="COLAMD").solve
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from None


def to_dense(J: Triplets, shape: Tuple[int, int]) -> np.ndarray:
    """The matrix of triplets, duplicates summed."""
    rows, cols, vals = J
    out = np.zeros(shape)
    np.add.at(out, (rows, cols), vals)
    return out


class Gram:
    """Plan of G = J J^T for Jacobians with the nonzero pattern (rows,
    cols): G_ef sums the products of row e's and row f's entries in every
    column they share.  Without merged columns these are the dot products
    of the two edges' 3-vectors at each vertex they share.  The plan lists
    every pair of entries in one column, so it depends only on the
    pattern."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n_rows: int):
        order = np.argsort(cols, kind="stable")
        starts = np.flatnonzero(np.diff(cols[order], prepend=-1))
        sizes = np.diff(np.r_[starts, len(cols)])
        # pair k of a column with d entries from s on is (s + k // d, s + k % d)
        square = sizes * sizes
        k = np.arange(square.sum()) - np.repeat(np.cumsum(square) - square, square)
        s, d = np.repeat(starts, square), np.repeat(sizes, square)
        self.a, self.b = order[s + k // d], order[s + k % d]
        self.assembly = Assembly(rows[self.a], rows[self.b], n_rows)

    def matrix(self, vals: np.ndarray):
        return self.assembly.matrix(vals[self.a] * vals[self.b])


def min_norm_step(J: Triplets, f: np.ndarray, n_cols: int,
                  gram: Optional[Gram] = None) -> np.ndarray:
    """Least-norm solution x of J x = -f for J, given as triplets, with no
    more rows than columns.

    x = J^T y with (J J^T) y = -f: exact when J has full row rank, as the
    Jacobian of a triangulated sphere has (3n - 6 edges against the
    6-dimensional Moebius null space, 4-dimensional with tied radii).
    G = J J^T is assembled from the triplets by ``gram`` (a ``Gram`` of
    J's pattern, built here if not given) and factorized by ``factorize``:
    dense up to order ``DENSE_MAX``, sparse above it.  Forming G squares
    the condition number of J, so a residual ||J x + f|| above
    ``REFINE_TOL`` ||f|| gets one step of refinement, x += J^T G^-1 (-f -
    J x).  It brings the step to the accuracy of ``lstsq`` while
    cond(J)^2 eps < 1 (stack120 at theta = 0: 1e-5 relative error before,
    1e-10 after).  Any x = J^T y is free of the null space, so its error
    is at most that residual over the least singular value of J.
    ``lstsq`` on the dense J takes over when the factorization fails or
    the residual stays above ``RANK_TOL`` ||f||, the mark of rank loss.
    """
    rows, cols, vals = J
    G = (gram or Gram(rows, cols, len(f))).matrix(vals)

    def times(x):    # J x
        return np.bincount(rows, weights=vals * x[cols], minlength=len(f))

    def t_times(y):  # J^T y
        return np.bincount(cols, weights=vals * y[rows], minlength=n_cols)

    scale = np.linalg.norm(f)
    try:
        solve = factorize(G)
        x = t_times(solve(-f))
        r = -f - times(x)
        if np.linalg.norm(r) > REFINE_TOL * scale:
            x += t_times(solve(r))
            r = -f - times(x)
    except np.linalg.LinAlgError:
        r = None
    if r is None or not np.linalg.norm(r) <= RANK_TOL * scale:
        return np.linalg.lstsq(to_dense(J, (len(f), n_cols)), -f, rcond=None)[0]
    return x


def tie_columns(cols: np.ndarray, tied: Sequence[int]) -> np.ndarray:
    """Columns with the log-radius columns of ``tied[1:]`` moved onto that
    of ``tied[0]``: their entries are then summed, one column per group."""
    if len(tied) < 2:
        return cols
    return np.where(np.isin(cols, [3 * v + 2 for v in tied[1:]]), 3 * tied[0] + 2, cols)


def damped_newton(x, f, residual: Callable, step: Callable, move: Callable,
                  tol: float, max_iters: int):
    """Damped Newton from ``x``, whose residual vector is ``f``: each step
    ``step(x, f)`` is halved until ``move(x, lam * step)`` has a
    ``residual`` that is admissible (not None) and of lower norm.

    Stops when the largest residual is at most ``tol``, after ``max_iters``
    steps, or at the rounding floor: when ``step`` is None (no step can be
    taken), when no halving lowers the norm, or after the first step that
    is not a full step halving the largest residual.  Quadratic convergence
    rules out the last two above rounding level; a start outside the
    quadratic region stops the same way (the monotonicity test of
    Deuflhard, *Newton Methods for Nonlinear Problems*, 2004).

    Returns (x, iterations, largest residual before and after each step,
    why it stopped: "tolerance", "rounding floor" or "step limit").
    """
    trace = [float(np.max(np.abs(f))) if len(f) else 0.0]
    for it in range(max_iters):
        if trace[-1] <= tol:
            return x, it, trace, "tolerance"
        dx = step(x, f)
        if dx is None:
            return x, it, trace, "rounding floor"
        norm0, lam = np.linalg.norm(f), 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            cand = move(x, lam * dx)
            f_try = residual(cand)
            if f_try is not None and np.linalg.norm(f_try) < norm0:
                break
            lam *= 0.5
        else:
            return x, it, trace, "rounding floor"
        x, f = cand, f_try
        trace.append(float(np.max(np.abs(f))))
        if lam < 1.0 or trace[-1] > 0.5 * trace[-2]:
            return x, it + 1, trace, "rounding floor"
    return x, max_iters, trace, "tolerance" if trace[-1] <= tol else "step limit"


def gauss_newton(centers: np.ndarray, radii: np.ndarray, edges: np.ndarray,
                 target_cos: np.ndarray, tol: float, max_iters: int,
                 tied: Sequence[int] = ()):
    """Minimum-norm Gauss-Newton on the planar I_e = cos(theta_e), by
    ``damped_newton``.

    Each step is the least-norm solution of the linearized system, and
    moves the configuration by ``retract``; a candidate whose residual is
    not finite (a radius driven to the end of its range) is not admissible.
    The radii of the ``tied`` vertices are scaled by one common factor per
    step, so equal radii among them stay exactly equal: their log-radius
    columns are merged into the first one.

    Returns (centers, radii, converged, iterations, largest residual, why
    it stopped: "tolerance", "rounding floor" or "step limit").
    """
    tied_cols = [3 * v + 2 for v in tied]
    f, (rows, cols, _) = residual_and_jacobian(centers, radii, edges, target_cos)
    cols = tie_columns(cols, tied)
    gram = Gram(rows, cols, len(f))

    def step(x, f):
        vals = residual_and_jacobian(*x, edges, target_cos)[1][2]
        dx = min_norm_step((rows, cols, vals), f, 3 * len(radii), gram)
        dx[tied_cols[1:]] = dx[tied_cols[:1]]
        return dx

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def residual(x):
        f = inversive(EUCLIDEAN, *x, edges) - target_cos
        return f if np.all(np.isfinite(f)) else None

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def move(x, dx):
        return retract(*x, dx)

    (centers, radii), steps, trace, stop = damped_newton(
        (centers, radii), f, residual, step, move, tol, max_iters)
    return centers, radii, trace[-1] <= tol, steps, trace[-1], stop
