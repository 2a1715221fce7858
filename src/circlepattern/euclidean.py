"""Euclidean circle-pattern solver for the interstice regime.

Radii are found by the curvature Newton of ``_newton``, from equal radii
with the three marked-face radii pinned equal, laid out by its developing
map and polished here by minimum-norm Gauss-Newton on the inversive
distances; the realized angles then decide whether it found a pattern, by
the test that ``verify`` applies, ``triples.angle_errors``.

The polish moves each vertex by its center and log r (Jacobian columns
3v..3v+2) and pins no gauge: the Moebius motions span the Jacobian's null
space, which the minimum-norm step avoids.  The Jacobian is kept as (rows,
cols, vals) triplets, six per edge row; the step is x = J^T y with
(J J^T) y = -f, and ``lstsq`` is only the fallback on rank loss.
"""
from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .conditions import classify
from .configurations import CurvatureReport, EuclideanConfiguration
from .errors import ConditionsViolated, LayoutInconsistent, Stalled
from .options import SolveOptions
from .triangulation import AngleAssignment, Triangulation, face_sums
from . import triples
from ._newton import (Assembly, _CurvatureMap, _curvature_newton, damped_newton, factorize,
                      layout_euclidean, resolve_marked_face)

POLISH_TOL = 1e-14
POLISH_ITERS = 8
REFINE_TOL = 1e-11       # relative residual ||J x + f|| / ||f|| refined once
RANK_TOL = 1e-8          # relative residual left after refinement that marks rank loss

Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]   # (rows, cols, vals)


def pick_marked_face(t: Triangulation, theta: AngleAssignment) -> int:
    """Deterministic auto-mark: the face of smallest angle sum (lowest id
    breaking ties); it must qualify for the interstice regime."""
    sums, cmp = face_sums(t, theta.array())
    best = int(np.argmin(sums))
    if cmp[best] >= 0:
        raise ConditionsViolated("no face has angle sum below pi")
    return best


def solve_euclidean(t: Triangulation, theta: AngleAssignment, marked_face,
                    opts: SolveOptions = SolveOptions()
                    ) -> Tuple[EuclideanConfiguration, CurvatureReport]:
    """Solve for a planar pattern realizing the angle data, the marked face
    hosting the interstice at infinity.

    The marked radii stay pinned at 1 during iteration; the final
    configuration is normalized (marked center at the origin, next marked
    center on the positive axis, radii summing to one).

    The curvature Newton stops at ``opts.tol_K``, at its rounding floor or
    after ``opts.max_iters`` steps, as the report's first note says.  The
    last raises Stalled; the others are laid out, polished and accepted
    when the realized angles pass ``triples.angle_errors`` at
    ``opts.tol_angle``, the test of ``verify_pattern``, else Stalled, as is
    a layout that fails.  Stalled carries the stop reason and the collapse
    suspects of the failing radii.
    """
    report = classify(t, theta, "g5")
    if not report.passed:
        raise ConditionsViolated("angle data is not in the interstice class", report=report)
    fid, face = resolve_marked_face(t, marked_face)
    sums, cmp = face_sums(t, theta.array())
    if cmp[fid] >= 0:
        raise ConditionsViolated(
            f"marked face {face} has angle sum {float(sums[fid])} >= pi; "
            "choose a face in the interstice regime"
        )

    cmap = _CurvatureMap(t, theta, fid)
    point, it, trace, stop = _curvature_newton(cmap, opts.tol_K, opts.max_iters)
    res, radii = trace[-1], cmap.base if point is None else point.radii
    newton = f"curvature residual {res} ({stop}) leaves"
    if point is None or stop == "step limit":
        failure = f"no convergence after {it} iterations (residual {res}, {stop})"
    else:
        try:
            centers = layout_euclidean(t, theta, radii, fid, tol_layout=opts.tol_layout)
        except LayoutInconsistent as exc:
            failure = f"{newton} no layout: {exc}"
        else:
            centers, radii, polish_note = _polish(t, theta, centers, radii, face)
            centers, radii = _normalize(centers, radii, face)
            angle_residual, radians, ok = triples.angle_errors(
                triples.EUCLIDEAN, centers, radii, t.edge_array, theta.array(), opts.tol_angle)
            failure = None if ok else (f"{newton} angle residual {angle_residual} on cosines, "
                                       f"{radians} in radians, above {opts.tol_angle}")
    if failure:
        from .degeneration import sublevel_suspects  # loaded only by a failing solve

        raise Stalled(failure, residual=res, suspects=sublevel_suspects(
            t, theta, radii, opts.diag_max, avoid=face, top=5))

    sigma = cmap.sigma(radii)
    rep = CurvatureReport(
        sigma={v: float(sigma[v]) for v in cmap.free},
        curvature={v: 2.0 * np.pi - sigma[v] for v in cmap.free}, max_abs_K=res, iterations=it,
        residual_trace=trace, angle_residual=angle_residual,
        notes=[f"newton: {it} steps, residual {res:.2e}, stop: {stop}", polish_note],
    )
    cfg = EuclideanConfiguration(centers, radii, face, {"y4": True, "y5": True, "y6": True})
    return cfg, rep


# ---------------------------------------------------------------------------
# inversive-distance polish
# ---------------------------------------------------------------------------

def residual_and_jacobian(centers: np.ndarray, radii: np.ndarray, edges: np.ndarray,
                          target_cos: np.ndarray) -> Tuple[np.ndarray, Triplets]:
    """Residual I_e - cos(theta_e) of a planar configuration and its
    analytic Jacobian as triplets: dI/dz_u = (z_u - z_v) / (r_u r_v) and
    dI/dlog r_u = -r_u/r_v - I.  Row e has six entries, in columns
    3u..3u+2 and 3v..3v+2 of its edge (u, v), returned as (rows, cols,
    vals).
    """
    inv = triples.inversive(triples.EUCLIDEAN, centers, radii, edges)
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
    def move(x, dx):
        x = retract(*x, dx)
        f = triples.inversive(triples.EUCLIDEAN, *x, edges) - target_cos
        return (x, f) if np.all(np.isfinite(f)) else None

    (centers, radii), steps, trace, stop = damped_newton(
        (centers, radii), f, step, move, tol, max_iters)
    return centers, radii, trace[-1] <= tol, steps, trace[-1], stop


def _polish(t: Triangulation, theta: AngleAssignment, centers: np.ndarray, radii: np.ndarray,
            tied) -> Tuple[np.ndarray, np.ndarray, str]:
    """Newton polish of the planar configuration in inversive-distance space.

    The curvature iteration leaves a residual that the developing map can
    amplify on circles far smaller than the pattern (the per-edge angle
    error scales with position error over radius product).  Gauss-Newton on
    I_e(z, r) = cos(theta_e) drives the dimensionless residuals to rounding
    level.  The Moebius motions stay free for the caller's normalization;
    the marked radii are ``tied`` to move together, which keeps them equal.
    Returns the polished centers and radii and a one-line account of the
    polish.
    """
    centers, radii, _, steps, res, stop = gauss_newton(
        centers, radii, np.asarray(t.edges, dtype=int),
        np.cos(theta.array()), POLISH_TOL, POLISH_ITERS, tied=tied,
    )
    return centers, radii, f"polish: {steps} steps, residual {res:.2e}, stop: {stop}"


def _normalize(centers: np.ndarray, radii: np.ndarray, face) -> Tuple[np.ndarray, np.ndarray]:
    """Marked center at 0, second marked center on the positive axis, third
    in the upper half-plane, radii summing to 1."""
    a, b, c = face
    z = centers - centers[a]
    rot = z[b]
    if abs(rot) > 0:
        z = z * (abs(rot) / rot)
    if z[c].imag < 0:
        z = np.conj(z)
    scale = float(np.sum(radii))
    return z / scale, radii / scale
