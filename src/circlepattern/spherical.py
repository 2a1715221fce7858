"""Spherical circle-pattern solver for the no-interstice regime, and the
stereographic lift of planar patterns to the sphere.

The solver starts from the tangency packing (every angle zero), which the
Euclidean solver finds from a convex problem, lifts it to the sphere and
centers it by Lorentz boosts.  It then follows theta_s = s * theta from
s = 0 to s = 1, correcting every step with the Gauss-Newton kernel of
``_newton`` and keeping only embedded configurations.  The result is moved
in closed form, by one boost and one orthonormal frame, into the gauge
that pins the marked face: its three radii at pi/4, its first center at
the south pole, its second on the x >= 0 meridian, its third at y >= 0.

Circles are also handled as de Sitter vectors (c, cos r) / sin r in
R^{3,1} with <x, y> = x1 y1 + x2 y2 + x3 y3 - x4 y4: Moebius maps act on
them as Lorentz transformations, and <p_u, p_v> = -I_uv.  The lift of a
planar disk is such a vector in closed form.
"""
from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .conditions import AngleAssignment, classify
from .configurations import CurvatureReport, EuclideanConfiguration, SphericalConfiguration
from .degeneration import sublevel_suspects
from .errors import (
    BaseSolveFailed,
    CirclePatternError,
    ConditionsViolated,
    ContinuationStuck,
    DomainError,
)
from .euclidean import pick_marked_face, resolve_marked_face, solve_euclidean
from .options import SolveOptions
from .triangulation import Triangulation
from . import triples
from ._newton import gauss_newton
from .triples import inversive

PI = math.pi
SOUTH = np.array([0.0, 0.0, -1.0])
NEWTON_TOL = 1e-13       # corrector tolerance on |I_e - cos(theta_e)|
FLOOR_TOL = 1e-11        # accepted when the corrector stops at its rounding floor
CORRECTOR_ITERS = 60
CENTERING_TOL = 1e-9     # mean cap center norm accepted as centered
CENTERING_ITERS = 100


# ---------------------------------------------------------------------------
# stereographic lift
# ---------------------------------------------------------------------------

def lift_to_sphere(cfg: EuclideanConfiguration) -> SphericalConfiguration:
    """Inverse stereographic image of every disk of a planar configuration,
    0 going to the south pole.

    The image of the disk (c, r) is the cap with de Sitter vector
    (2 Re c, 2 Im c, k - 1, k + 1) / 2r, k = |c|^2 - r^2.  Inversive
    distances are Moebius invariants, so the lifted pattern realizes the
    same exterior angles.
    """
    c, r = np.asarray(cfg.centers, dtype=complex), np.asarray(cfg.radii, dtype=float)
    k = np.abs(c) ** 2 - r ** 2
    p = np.stack([2.0 * c.real, 2.0 * c.imag, k - 1.0, k + 1.0], axis=1) / (2.0 * r)[:, None]
    centers, radii = _from_de_sitter(p)
    return SphericalConfiguration(
        centers=centers,
        radii=radii,
        marked_face=cfg.marked_face,
        normalized={"x5": False, "x6": False},
    )


# ---------------------------------------------------------------------------
# de Sitter vectors and Lorentz boosts
# ---------------------------------------------------------------------------

def _de_sitter(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    s = np.sin(radii)[:, None]
    return np.hstack([centers / s, np.cos(radii)[:, None] / s])


def _from_de_sitter(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x = p[:, :3]
    norm = np.linalg.norm(x, axis=1)
    return x / norm[:, None], np.arctan2(1.0, p[:, 3])


def _boost(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Lorentz boost taking the Klein-model point u (|u| < 1) to the origin,
    applied to the rows of p."""
    uu = float(u @ u)
    if uu == 0.0:
        return p
    gamma = 1.0 / math.sqrt(1.0 - uu)
    x, t = p[:, :3], p[:, 3]
    ux = x @ u
    x_new = x + ((gamma - 1.0) * ux / uu - gamma * t)[:, None] * u
    return np.hstack([x_new, (gamma * (t - ux))[:, None]])


def _minkowski(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[:3] @ b[:3] - a[3] * b[3])


def _centered(centers: np.ndarray, radii: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Boost until the mean cap center is at the origin, so that no cap is
    much smaller than the rest."""
    p = _de_sitter(centers, radii)
    for _ in range(CENTERING_ITERS):
        mean = np.mean(_from_de_sitter(p)[0], axis=0)
        if np.linalg.norm(mean) <= CENTERING_TOL:
            break
        p = _boost(p, mean)
    return _from_de_sitter(p)


def _tangency_start(t: Triangulation, opts: SolveOptions) -> Tuple[np.ndarray, np.ndarray]:
    """The lifted and centered tangency packing (theta = 0)."""
    zero = AngleAssignment.constant(t, 0.0)
    try:
        cfg, _ = solve_euclidean(t, zero, pick_marked_face(t, zero), opts)
    except CirclePatternError as exc:
        raise BaseSolveFailed(f"tangency packing failed: {exc}") from exc
    sph = lift_to_sphere(cfg)
    return _centered(sph.centers, sph.radii)


def _into_gauge(centers: np.ndarray, radii: np.ndarray,
                face: Tuple[int, int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """The Moebius image with the marked radii at pi/4, first marked center
    at the south pole, second on the x >= 0 meridian and third at y >= 0.

    A cap has radius pi/4 after the boost taking the timelike unit w to the
    time axis exactly when -<p, w> = 1.  On the three marked circles that is
    a 3x4 linear system; with <w, w> = -1 it leaves a quadratic along the
    system's null direction k.  The quadratic is linear when k is lightlike,
    which happens when the marked face's angle sum is exactly pi.  After the
    boost one orthonormal frame (x, y, z) maps the centers into place: a
    rotation, or a reflection when y is flipped towards the third center.
    """
    p = _de_sitter(centers, radii)
    rows = p[list(face)] * np.array([1.0, 1.0, 1.0, -1.0])
    U, S, Vt = np.linalg.svd(rows)
    w0 = Vt[:3].T @ ((U.T @ -np.ones(3)) / S)
    k = Vt[3]
    a = _minkowski(k, k)
    b = 2.0 * _minkowski(w0, k)
    c = _minkowski(w0, w0) + 1.0
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    # the stable pair of roots; with k nearly lightlike q / a runs off to
    # infinity, so the future-pointing root nearest w0 is the gauge
    roots = [c / q] + ([q / a] if a != 0.0 else [])
    lam = min((x for x in roots if w0[3] + x * k[3] > 0.0), key=abs)
    w = w0 + lam * k
    centers, radii = _from_de_sitter(_boost(p, w[:3] / w[3]))
    first, second, third = face
    z = -centers[first]
    x = centers[second] - (centers[second] @ z) * z
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    if centers[third] @ y < 0.0:
        y = -y
    centers = centers @ np.array([x, y, z]).T
    centers[first] = SOUTH
    centers[second, 1] = 0.0
    centers[second] /= math.hypot(centers[second, 0], centers[second, 2])
    radii[list(face)] = PI / 4.0
    return centers, radii


# ---------------------------------------------------------------------------
# embeddedness
# ---------------------------------------------------------------------------

def _cone_angles(t: Triangulation, centers: np.ndarray) -> np.ndarray:
    """Angle sums at every vertex of the geodesic triangulation spanned by
    the centers; DomainError when a face is degenerate beyond rounding."""
    faces = np.asarray(t.faces, dtype=int)
    pts = centers[faces]
    dots = np.stack([np.einsum("ij,ij->i", pts[:, j], pts[:, k])
                     for j, k in ((1, 2), (2, 0), (0, 1))], axis=1)
    lengths = np.arccos(np.clip(dots, -1.0, 1.0))
    alphas = triples.inner_angles_from_lengths(triples.SPHERICAL, lengths)
    sigma = np.zeros(t.vertex_count)
    np.add.at(sigma, faces.ravel(), alphas.ravel())
    return sigma


def _is_genuine(t: Triangulation, centers: np.ndarray, radii: np.ndarray,
                k_tol: float = 1e-6, overlap_tol: float = 1e-7) -> bool:
    """Cheap embeddedness test separating true patterns from the spurious
    solutions of the angle system: cone angles must close up to 2*pi at
    every vertex, realized faces must be uniformly oriented, and disks of
    non-adjacent vertices must not overlap."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = _cone_angles(t, centers)
    except DomainError:
        return False
    if not np.max(np.abs(2.0 * PI - sigma)) <= k_tol:
        return False
    dets = np.linalg.det(centers[np.asarray(t.faces, dtype=int)])
    if not (np.all(dets > 0.0) or np.all(dets < 0.0)):
        return False
    cr, sr = np.cos(radii), np.sin(radii)
    inv = (np.outer(cr, cr) - centers @ centers.T) / np.outer(sr, sr)
    far = np.ones_like(inv, dtype=bool)
    np.fill_diagonal(far, False)
    edges = np.asarray(t.edges, dtype=int)
    far[edges[:, 0], edges[:, 1]] = far[edges[:, 1], edges[:, 0]] = False
    return not np.any(inv[far] < 1.0 - overlap_tol)


# ---------------------------------------------------------------------------
# continuation driver
# ---------------------------------------------------------------------------

def solve_spherical(
    t: Triangulation,
    theta: AngleAssignment,
    opts: SolveOptions = SolveOptions(),
    marked_face=0,
) -> Tuple[SphericalConfiguration, CurvatureReport]:
    """Produce a normalized spherical configuration realizing the angles.

    Path: solve the tangency packing (theta = 0) in the plane, lift it to
    the sphere, center it by Lorentz boosts, then follow theta_s = s * theta
    from s = 0 to 1 with adaptive steps, correcting each by minimum-norm
    Gauss-Newton and rejecting any step that leaves the embedded branch.

    Every theta_s is admissible: conditions c1-c4 bound sums of angles from
    above, so scaling by s in (0, 1] preserves them, and each theta_s has
    either some face sum below pi (a planar pattern with an interstice
    exists and lifts) or every face sum at least pi (the no-interstice
    class).  A pattern therefore exists along the whole path.

    Raises BaseSolveFailed when the tangency packing cannot be solved, and
    ContinuationStuck when the step falls below ``opts.min_step`` or the
    final angle residual exceeds ``opts.tol_angle``, with the collapse
    suspects of the last accepted radii.
    """
    report = classify(t, theta, "m5")
    if not report.passed:
        raise ConditionsViolated("angle data is not in the no-interstice class", report=report)
    _, face = resolve_marked_face(t, marked_face)
    centers, radii = _tangency_start(t, opts)
    edges = np.asarray(t.edges, dtype=int)
    target = theta.array()

    trace: List[float] = []
    s, ds = 0.0, 0.1
    while s < 1.0:
        s_try = min(1.0, s + ds)
        c_new, r_new, ok, iters, res, stop = gauss_newton(
            triples.SPHERICAL, centers, radii, edges, np.cos(s_try * target),
            NEWTON_TOL, CORRECTOR_ITERS,
        )
        # small caps (n=642 and up) hold the floor above NEWTON_TOL
        ok = ok or (stop == "rounding floor" and res <= FLOOR_TOL)
        if ok and _is_genuine(t, c_new, r_new):  # never jump to a spurious branch
            s, centers, radii = s_try, c_new, r_new
            trace.append(res)
            if iters <= 3:
                ds = min(0.25, 2.0 * ds)
        else:
            ds *= 0.5
            if ds < opts.min_step:
                raise ContinuationStuck(
                    f"step fell below {opts.min_step} at t={s}",
                    t_reached=s,
                    suspects=sublevel_suspects(t, theta, radii, opts.diag_max, avoid=face, top=5),
                )

    centers, radii = _into_gauge(centers, radii, face)
    cfg = SphericalConfiguration(
        centers=centers,
        radii=radii,
        marked_face=face,
        normalized={"x5": True, "x6": True},
    )
    rep = _spherical_report(t, theta, cfg, trace)
    if rep.angle_residual is not None and rep.angle_residual > opts.tol_angle:
        raise ContinuationStuck(
            f"final angle residual {rep.angle_residual} exceeds {opts.tol_angle}",
            t_reached=1.0,
            suspects=sublevel_suspects(t, theta, radii, opts.diag_max, avoid=face, top=5),
        )
    return cfg, rep


def _spherical_report(t, theta, cfg, trace) -> CurvatureReport:
    inv = inversive(triples.SPHERICAL, cfg.centers, cfg.radii, np.asarray(t.edges, dtype=int))
    cos_err = float(np.max(np.abs(inv - np.cos(theta.array()))))
    # cone angles of the realized geodesic triangulation (diagnostic: they
    # are automatically 2*pi for an embedded spherical pattern)
    sigma = _cone_angles(t, cfg.centers)
    curv = {v: 2.0 * PI - float(sigma[v]) for v in range(cfg.vertex_count)}
    return CurvatureReport(
        sigma={v: float(sigma[v]) for v in range(cfg.vertex_count)},
        curvature=curv,
        max_abs_K=float(max(abs(k) for k in curv.values())),
        iterations=len(trace),
        residual_trace=trace,
        angle_residual=cos_err,
    )
