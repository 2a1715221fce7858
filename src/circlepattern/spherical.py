"""Spherical circle-pattern solver for the no-interstice regime, and the
stereographic lift of planar patterns to the sphere.

The solver starts from the tangency packing (every angle zero), which the
Euclidean solver finds from a convex problem, lifts it to the sphere and
centers it by Lorentz boosts.  It then follows theta_s = s * theta from
s = 0 to s = 1, correcting the radii at every step with the curvature
Newton of ``euclidean`` (three cap radii held to fix the boosts) and
keeping only embedded layouts; one inversive Gauss-Newton polish follows
at s = 1.  The result is moved in closed form, by one boost and one
orthonormal frame, into the gauge that pins the marked face: its three
radii at pi/4, its first center at the south pole, its second on the
x >= 0 meridian, its third at y >= 0.

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
from .configurations import (CurvatureReport, EuclideanConfiguration, SphericalConfiguration,
                             near_pairs)
from .degeneration import sublevel_suspects
from .errors import BaseSolveFailed, CirclePatternError, ConditionsViolated, ContinuationStuck
from .euclidean import (_CurvatureMap, _angle_residual, _curvature_newton, _develop, _polish,
                        pick_marked_face, resolve_marked_face, solve_euclidean)
from .options import SolveOptions
from .triangulation import Triangulation
from . import triples
from .triples import inversive

PI = math.pi
SOUTH = np.array([0.0, 0.0, -1.0])
NEWTON_TOL = 1e-10       # corrector tolerance on the curvatures 2*pi - sigma_v
CORRECTOR_ITERS = 60
SIGMA_TOL = 1e-8         # largest |2*pi - sigma_v| of an accepted step, held caps included
LAYOUT_TOL = 1e-8        # largest chord between two placements of a center
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
    return SphericalConfiguration(centers, radii, cfg.marked_face,
                                  normalized={"x5": False, "x6": False})


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
# continuation driver
# ---------------------------------------------------------------------------

def _is_genuine(t: Triangulation, centers: np.ndarray, radii: np.ndarray,
                overlap_tol: float = 1e-7) -> bool:
    """Cheap embeddedness test of a layout: realized faces must be
    uniformly oriented, and disks of non-adjacent vertices must not
    overlap."""
    dets = np.linalg.det(centers[t.face_array])
    if not (np.all(dets > 0.0) or np.all(dets < 0.0)):
        return False
    u, v = near_pairs(triples.SPHERICAL, centers, 2.0 * np.sin(0.5 * radii))
    far = np.column_stack([u, v])[t.edge_ids(u, v) < 0]
    return not np.any(inversive(triples.SPHERICAL, centers, radii, far) < 1.0 - overlap_tol)


def _held_caps(centers: np.ndarray, first: int) -> Tuple[int, int, int]:
    """Three vertices whose radii pin the boosts: ``first``, the vertex whose
    center is nearest to orthogonal to its center, and the vertex farthest
    from the plane of those two centers."""
    second = int(np.argmin(np.abs(centers @ centers[first])))
    normal = np.cross(centers[first], centers[second])
    return first, second, int(np.argmax(np.abs(centers @ normal)))


def solve_spherical(t: Triangulation, theta: AngleAssignment, opts: SolveOptions = SolveOptions(),
                    marked_face=0) -> Tuple[SphericalConfiguration, CurvatureReport]:
    """Produce a normalized spherical configuration realizing the angles.

    Path: solve the tangency packing (theta = 0) in the plane, lift it to
    the sphere, center it by Lorentz boosts, then follow theta_s = s * theta
    from s = 0 to 1 with adaptive steps.  Each step corrects the radii by
    the curvature Newton of ``euclidean``, three caps held (``_held_caps``),
    and develops them; it is kept when the corrector converged, every cone
    angle closes up to ``SIGMA_TOL`` and the layout is embedded.  At s = 1
    one inversive Gauss-Newton polish runs before the gauge.

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

    def stuck(message, reached):
        suspects = sublevel_suspects(t, theta, radii, opts.diag_max, avoid=face, top=5)
        return ContinuationStuck(message, t_reached=reached, suspects=suspects)

    trace: List[float] = []
    s, ds, rejected = 0.0, 0.1, 0
    while s < 1.0:
        s_try = s + ds if s + ds < 1.0 - opts.min_step else 1.0
        step = _homotopy_step(t, theta, s_try, centers, radii, face[0])
        if step is not None:
            centers, radii, iters, stop, res = step
            s = s_try
            trace.append(res)
            if iters <= 3:
                ds = min(0.25, 2.0 * ds)
        else:
            rejected += 1
            ds *= 0.5
            if ds < opts.min_step:
                raise stuck(f"step fell below {opts.min_step} at t={s}", s)

    centers, radii, polish_note = _polish(t, theta, centers, radii, mode=triples.SPHERICAL)
    centers, radii = _into_gauge(centers, radii, face)
    cfg = SphericalConfiguration(centers, radii, face, normalized={"x5": True, "x6": True})
    rep = _spherical_report(t, theta, cfg, trace, [
        f"homotopy: {len(trace)} steps accepted, {rejected} rejected",
        f"newton: {iters} steps, residual {trace[-1]:.2e}, stop: {stop}", polish_note])
    if rep.angle_residual > opts.tol_angle:
        raise stuck(f"final angle residual {rep.angle_residual} exceeds {opts.tol_angle}", 1.0)
    return cfg, rep


def _homotopy_step(t, theta, s, centers, radii, first):
    """The last accepted radii corrected for theta_s and laid out: (centers,
    radii, corrector steps, stop, residual), or None when the step is
    rejected.  A residual that no corrector step reduced is not converged:
    near s = 0 the curvatures move as s squared, so a short step can start
    within tolerance."""
    cmap = _CurvatureMap(t, theta, None, triples.SPHERICAL, radii,
                         _held_caps(centers, first), s)
    if cmap.min_margin(cmap.start()) <= 0.0:  # a face of the last radii does not close up
        return None
    u, iters, residuals, stop = _curvature_newton(cmap, NEWTON_TOL, CORRECTOR_ITERS)
    radii = cmap.radii_from(u)
    if (iters == 0 or stop == "step limit"
            or not np.max(np.abs(2.0 * PI - cmap.sigma(radii))) <= SIGMA_TOL):
        return None
    centers, disagree = _develop(t, theta, radii, mode=triples.SPHERICAL, s=s)
    if disagree <= LAYOUT_TOL and _is_genuine(t, centers, radii):
        return centers, radii, iters, stop, residuals[-1]
    return None


def _spherical_report(t, theta, cfg, trace, notes) -> CurvatureReport:
    sigma = _CurvatureMap(t, theta, None, triples.SPHERICAL, cfg.radii).sigma(cfg.radii).tolist()
    curv = [2.0 * PI - x for x in sigma]
    return CurvatureReport(
        sigma=dict(enumerate(sigma)), curvature=dict(enumerate(curv)),
        max_abs_K=max(map(abs, curv)), iterations=len(trace), residual_trace=trace,
        angle_residual=_angle_residual(t, theta, cfg.centers, cfg.radii, triples.SPHERICAL),
        notes=notes)
