"""Inversive-distance Newton kernel shared by the planar and spherical
solvers.

A configuration is one center per vertex (complex numbers in the plane,
unit 3-vectors on the sphere) and one radius per vertex.  Moves are taken
in per-vertex coordinates: two tangent coordinates for the center and one
log-radius coordinate (log r in the plane, log tan(r/2) on the sphere), so
column 3v+k of the Jacobian belongs to coordinate k of vertex v.  No gauge
is pinned: inversive distances are Moebius invariant, so the Moebius
motions (in the plane, those keeping every circle bounded) span the
Jacobian's null space, and the minimum-norm step has no component there.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from . import triples
from .triples import EUCLIDEAN

LINE_SEARCH_HALVINGS = 30


def inversive(mode: str, centers: np.ndarray, radii: np.ndarray,
              edges: np.ndarray) -> np.ndarray:
    """Inversive distance of every listed center pair (u, v)."""
    u, v = edges[:, 0], edges[:, 1]
    ru, rv = radii[u], radii[v]
    if mode == EUCLIDEAN:
        d = centers[u] - centers[v]
        return (d.real * d.real + d.imag * d.imag - ru * ru - rv * rv) / (2.0 * ru * rv)
    dots = np.einsum("ij,ij->i", centers[u], centers[v])
    return (np.cos(ru) * np.cos(rv) - dots) / (np.sin(ru) * np.sin(rv))


def residual_and_jacobian(mode: str, centers: np.ndarray, radii: np.ndarray,
                          edges: np.ndarray, target_cos: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Residual I_e - cos(theta_e) and its analytic Jacobian.

    Plane: dI/dz_u = (z_u - z_v) / (r_u r_v) and dI/dlog r_u = -r_u/r_v - I.
    Sphere: dI/dc_u = -c_v / (sin r_u sin r_v), projected to the tangent
    frame of c_u, and dI/drho_u = -(sin r_u cot r_v + I cos r_u), where
    rho = log tan(r/2).
    """
    inv = inversive(mode, centers, radii, edges)
    u, v = edges[:, 0], edges[:, 1]
    ru, rv = radii[u], radii[v]
    if mode == EUCLIDEAN:
        g = (centers[u] - centers[v]) / (ru * rv)
        grad_u = np.stack([g.real, g.imag], axis=1)
        grad_v = -grad_u
        log_u, log_v = -ru / rv - inv, -rv / ru - inv
    else:
        e1, e2 = triples.tangent_frames(centers)
        su, sv = np.sin(ru), np.sin(rv)
        gu = -centers[v] / (su * sv)[:, None]
        gv = -centers[u] / (su * sv)[:, None]
        grad_u = np.stack([np.einsum("ij,ij->i", gu, e1[u]),
                           np.einsum("ij,ij->i", gu, e2[u])], axis=1)
        grad_v = np.stack([np.einsum("ij,ij->i", gv, e1[v]),
                           np.einsum("ij,ij->i", gv, e2[v])], axis=1)
        log_u = -(su * np.cos(rv) / sv + inv * np.cos(ru))
        log_v = -(sv * np.cos(ru) / su + inv * np.cos(rv))
    rows = np.arange(len(edges))
    J = np.zeros((len(edges), 3 * len(radii)))
    for k in range(2):
        J[rows, 3 * u + k] = grad_u[:, k]
        J[rows, 3 * v + k] = grad_v[:, k]
    J[rows, 3 * u + 2] = log_u
    J[rows, 3 * v + 2] = log_v
    return inv - target_cos, J


def retract(mode: str, centers: np.ndarray, radii: np.ndarray,
            step: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Configuration reached by moving every vertex by its three coordinates:
    centers along the tangent frame (renormalized onto the sphere), radii by
    the factor exp (on tan(r/2) for the sphere)."""
    d = step.reshape(-1, 3)
    if mode == EUCLIDEAN:
        return centers + (d[:, 0] + 1j * d[:, 1]), radii * np.exp(d[:, 2])
    e1, e2 = triples.tangent_frames(centers)
    moved = centers + d[:, :1] * e1 + d[:, 1:2] * e2
    moved /= np.linalg.norm(moved, axis=1)[:, None]
    return moved, 2.0 * np.arctan(np.tan(0.5 * radii) * np.exp(d[:, 2]))


def min_norm_step(J: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Least-norm solution x of J x = -f for J with no more rows than
    columns.

    From J^T = QR, x = Q R^-T (-f): exact when J has full row rank, as the
    Jacobian of a triangulated sphere has (3n - 6 edges against the
    6-dimensional Moebius null space, 4-dimensional with tied radii).
    ``lstsq`` takes over when the diagonal of R shows rank loss.
    """
    q, r = np.linalg.qr(J.T)
    d = np.abs(np.diag(r))
    if len(d) and d.min() <= d.max() * max(J.shape) * np.finfo(float).eps:
        return np.linalg.lstsq(J, -f, rcond=None)[0]
    return q @ np.linalg.solve(r.T, -f)


def gauss_newton(mode: str, centers: np.ndarray, radii: np.ndarray,
                 edges: np.ndarray, target_cos: np.ndarray, tol: float,
                 max_iters: int, tied: Sequence[int] = ()):
    """Damped minimum-norm Gauss-Newton on I_e = cos(theta_e).

    Each step is the least-norm solution of the linearized system, halved
    until the residual norm drops; a candidate whose residual is not finite
    (a radius driven to the end of its range) is rejected before any norm
    is taken.  Stops when the largest residual is at most ``tol``, after
    ``max_iters`` steps, or at the rounding floor: after the first step
    that is not a full step halving the largest residual, or when no
    halving lowers the residual norm.  Quadratic convergence rules both out
    above rounding level; a start outside the quadratic region stops the
    same way, and a continuation caller then shortens its step.  The radii
    of the ``tied`` vertices are scaled by one common factor per step, so
    equal radii among them stay exactly equal.

    Returns (centers, radii, converged, iterations, largest residual, why
    it stopped: "tolerance", "rounding floor" or "step limit").
    """
    tied_cols = [3 * v + 2 for v in tied]
    f, J = residual_and_jacobian(mode, centers, radii, edges, target_cos)
    res = float(np.max(np.abs(f)))
    for it in range(max_iters):
        if res <= tol:
            return centers, radii, True, it, res, "tolerance"
        if tied_cols:
            J[:, tied_cols[0]] = J[:, tied_cols].sum(axis=1)
            J[:, tied_cols[1:]] = 0.0
        step = min_norm_step(J, f)
        if tied_cols:
            step[tied_cols[1:]] = step[tied_cols[0]]
        norm0 = np.linalg.norm(f)
        lam = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                c_try, r_try = retract(mode, centers, radii, lam * step)
                f_try = inversive(mode, c_try, r_try, edges) - target_cos
            if np.all(np.isfinite(f_try)) and np.linalg.norm(f_try) < norm0:
                break
            lam *= 0.5
        else:
            return centers, radii, False, it, res, "rounding floor"
        new_res = float(np.max(np.abs(f_try)))
        if lam < 1.0 or new_res > 0.5 * res:
            return c_try, r_try, new_res <= tol, it + 1, new_res, "rounding floor"
        centers, radii, res = c_try, r_try, new_res
        f, J = residual_and_jacobian(mode, centers, radii, edges, target_cos)
    return centers, radii, res <= tol, max_iters, res, "step limit"
