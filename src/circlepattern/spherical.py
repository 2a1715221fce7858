"""Spherical circle-pattern solver for the no-interstice regime.

The solver starts from the tangency packing (every angle zero), which the
curvature Newton and developing map of ``_newton`` find in the plane,
lifts it to the sphere and centers it by Lorentz boosts.  It then follows
theta_s = s * theta from s = 0 to s = 1 in long steps, predicting the
radii at each step by a secant and correcting them with the same curvature
Newton (three cap radii held to fix the boosts), and keeps only embedded
layouts; at s = 1 the corrector runs to its rounding floor, and its layout
is the pattern.  That is moved in closed form, by one boost and one
orthonormal frame, into the gauge that pins the marked face: its three
radii at pi/4, its first center at the south pole, its second on the
x >= 0 meridian, its third at y >= 0.  The corrector is the one damped
Newton loop of ``_newton``, and the result is accepted by the angle test of
``verify``, ``triples.angle_errors``.

Circles are also handled as de Sitter vectors (c, cos r) / sin r in
R^{3,1} with <x, y> = x1 y1 + x2 y2 + x3 y3 - x4 y4: Moebius maps act on
them as Lorentz transformations, and <p_u, p_v> = -I_uv.
"""
from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .conditions import classify
from .configurations import (CurvatureReport, EuclideanConfiguration, SphericalConfiguration,
                             _from_de_sitter, chords, lift_to_sphere, near_pairs)
from .errors import (BaseSolveFailed, ConditionsViolated, ContinuationStuck, LayoutInconsistent,
                     Stalled)
from .options import SolveOptions
from .triangulation import AngleAssignment, Triangulation
from . import triples
from .triples import inversive
from ._newton import (_CurvatureMap, _curvature_newton, _develop, layout_euclidean,
                      resolve_marked_face)

PI = math.pi
SOUTH = np.array([0.0, 0.0, -1.0])
NEWTON_TOL = 1e-10       # corrector tolerance on the curvatures 2*pi - sigma_v before s = 1
FINAL_TOL = 1e-10        # largest curvature left by the corrector at s = 1, run to its floor
CORRECTOR_ITERS = 10     # corrector steps a homotopy step may take before it is rejected
FIRST_STEP = 0.5         # the homotopy's first step in s; later ones double up to 1 - s
SIGMA_TOL = 1e-8         # largest |2*pi - sigma_v| of an accepted step, held caps included
LAYOUT_TOL = 1e-8        # largest chord between two placements of a center
OVERLAP_TOL = 1e-7       # disks of non-adjacent vertices overlap at I below 1 - OVERLAP_TOL
CENTERING_TOL = 1e-9     # mean cap center norm accepted as centered
CENTERING_ITERS = 100


# ---------------------------------------------------------------------------
# de Sitter vectors and Lorentz boosts
# ---------------------------------------------------------------------------

def _de_sitter(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    s = np.sin(radii)[:, None]
    return np.hstack([centers / s, np.cos(radii)[:, None] / s])


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


def _tangency_start(t: Triangulation) -> Tuple[np.ndarray, np.ndarray]:
    """The lifted and centered tangency packing (theta = 0): the curvature
    Newton and the layout of the planar solve at its defaults, face 0
    marked, with no polish and no normalization."""
    zero, opts = AngleAssignment.constant(t, 0.0), SolveOptions()
    cmap = _CurvatureMap(t, zero, 0)
    u, it, trace, stop = _curvature_newton(cmap, opts.tol_K, opts.max_iters)
    radii = cmap.radii_from(u)
    try:
        if stop == "step limit":
            raise Stalled(f"no convergence after {it} iterations (residual {trace[-1]})")
        centers = layout_euclidean(t, zero, radii, 0, opts.tol_layout)
    except (Stalled, LayoutInconsistent) as exc:
        raise BaseSolveFailed(f"tangency packing failed: {exc}") from exc
    sph = lift_to_sphere(EuclideanConfiguration(centers, radii, t.faces[0]))
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

def _is_genuine(t: Triangulation, centers: np.ndarray, radii: np.ndarray) -> bool:
    """Cheap embeddedness test of a layout: realized faces must be
    uniformly oriented, and disks of non-adjacent vertices must not
    overlap."""
    dets = np.linalg.det(centers[t.face_array])
    if not (np.all(dets > 0.0) or np.all(dets < 0.0)):
        return False
    u, v = near_pairs(triples.SPHERICAL, centers, chords(triples.SPHERICAL, radii))
    far = np.column_stack([u, v])[t.edge_ids(u, v) < 0]
    return not np.any(inversive(triples.SPHERICAL, centers, radii, far) < 1.0 - OVERLAP_TOL)


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

    Path: lay out the tangency packing (theta = 0) in the plane
    (``_tangency_start``), lift it to the sphere, center it by Lorentz boosts,
    then follow theta_s = s * theta from s = 0 to 1.  The first step is
    ``FIRST_STEP``; a step whose corrector took at most three steps doubles
    the next, up to 1 - s, and a rejected step is halved.  Each step starts
    from the radii that ``_predicted`` extrapolates from the last two
    accepted ones (the last accepted radii at the first step), corrects them
    by the curvature Newton of ``_newton`` in at most ``CORRECTOR_ITERS``
    steps, three caps held (``_held_caps``), and develops them; it is kept
    when the corrector converged, every cone angle closes up to
    ``SIGMA_TOL`` and the layout is embedded.  At s = 1 the corrector runs to
    its rounding floor, and that layout is the pattern, moved into the
    gauge.  The tangency packing and two steps, s = 0.5 and 1, are the
    usual run.  Of ``opts`` only ``tol_angle``, ``min_step`` and ``diag_max``
    apply.

    Every theta_s is admissible: conditions c1-c4 bound sums of angles from
    above, so scaling by s in (0, 1] preserves them, and each theta_s has
    either some face sum below pi (a planar pattern with an interstice
    exists and lifts) or every face sum at least pi (the no-interstice
    class).  A pattern therefore exists along the whole path.

    Raises BaseSolveFailed when the tangency packing cannot be solved, and
    ContinuationStuck when the step falls below ``opts.min_step`` or the
    realized angles fail ``triples.angle_errors`` at ``opts.tol_angle``, the
    test of ``verify_pattern``, with the collapse suspects of the last
    accepted radii.
    """
    report = classify(t, theta, "m5")
    if not report.passed:
        raise ConditionsViolated("angle data is not in the no-interstice class", report=report)
    _, face = resolve_marked_face(t, marked_face)
    centers, radii = _tangency_start(t)

    def stuck(message, reached):
        from .degeneration import sublevel_suspects  # loaded only by a failing solve

        suspects = sublevel_suspects(t, theta, radii, opts.diag_max, avoid=face, top=5)
        return ContinuationStuck(message, t_reached=reached, suspects=suspects)

    trace: List[float] = []
    s, ds, rejected, last = 0.0, FIRST_STEP, 0, None
    while s < 1.0:
        s_try = s + ds if s + ds < 1.0 - opts.min_step else 1.0
        guess = radii if last is None else _predicted(*last, s, radii, s_try)
        step = _homotopy_step(t, theta, s_try, centers, guess, face[0])
        if step is not None:
            last = (s, radii)
            centers, radii, iters, stop, res = step
            s = s_try
            trace.append(res)
            if iters <= 3:
                ds = min(1.0 - s, 2.0 * ds)
        else:
            rejected += 1
            ds *= 0.5
            if ds < opts.min_step:
                raise stuck(f"step fell below {opts.min_step} at t={s}", s)

    centers, radii = _into_gauge(centers, radii, face)
    angle_residual, radians, ok = triples.angle_errors(
        triples.SPHERICAL, centers, radii, t.edge_array, theta.array(), opts.tol_angle)
    if not ok:
        raise stuck(f"final angle residual {angle_residual} on cosines, {radians} in radians, "
                    f"exceeds {opts.tol_angle}", 1.0)
    sigma = _CurvatureMap(t, theta, None, triples.SPHERICAL, radii).sigma(radii).tolist()
    curv = [2.0 * PI - x for x in sigma]
    rep = CurvatureReport(
        sigma=dict(enumerate(sigma)), curvature=dict(enumerate(curv)),
        max_abs_K=max(map(abs, curv)), iterations=len(trace), residual_trace=trace,
        angle_residual=angle_residual, notes=[
            f"homotopy: {len(trace)} steps accepted, {rejected} rejected",
            f"newton: {iters} steps, residual {trace[-1]:.2e}, stop: {stop}"])
    return SphericalConfiguration(centers, radii, face, normalized={"x5": True, "x6": True}), rep


def _predicted(s0, r0, s1, r1, s):
    """Radii at ``s`` on the secant through the accepted radii ``r0`` at
    ``s0`` and ``r1`` at ``s1``, in u = log tan(r/2) over s^2.  The angles
    enter the curvatures only through cos(s theta), so along the path u is
    a smooth function of s^2."""
    u0, u1 = np.log(np.tan(0.5 * r0)), np.log(np.tan(0.5 * r1))
    w = (s * s - s1 * s1) / (s1 * s1 - s0 * s0)
    return 2.0 * np.arctan(np.exp(u1 + w * (u1 - u0)))


def _homotopy_step(t, theta, s, centers, radii, first):
    """The predicted ``radii`` corrected for theta_s and laid out: (centers,
    radii, corrector steps, stop, residual), or None when the step is
    rejected.  The three held caps are picked from ``centers``, the last
    accepted layout.  The corrector stops at ``NEWTON_TOL`` before s = 1 and
    at its rounding floor at s = 1, where a stop above ``FINAL_TOL``
    rejects; a corrector still short of either after ``CORRECTOR_ITERS``
    steps rejects too.  A residual that no corrector step reduced is not
    converged: near s = 0 the curvatures move as s squared, so a short step
    can start within tolerance."""
    cmap = _CurvatureMap(t, theta, None, triples.SPHERICAL, radii,
                         _held_caps(centers, first), s)
    if cmap.min_margin(cmap.start()) <= 0.0:  # a face of the predicted radii does not close up
        return None
    tol = NEWTON_TOL if s < 1.0 else 0.0
    u, iters, residuals, stop = _curvature_newton(cmap, tol, CORRECTOR_ITERS)
    radii = cmap.radii_from(u)
    if (iters == 0 or stop == "step limit" or (s == 1.0 and residuals[-1] > FINAL_TOL)
            or not np.max(np.abs(2.0 * PI - cmap.sigma(radii))) <= SIGMA_TOL):
        return None
    centers, disagree = _develop(t, theta, radii, mode=triples.SPHERICAL, s=s)
    if disagree <= LAYOUT_TOL and _is_genuine(t, centers, radii):
        return centers, radii, iters, stop, residuals[-1]
    return None
