"""Closed-form geometry of three-circle configurations, the one copy of
each pair and triple formula: ``inversive_distance`` here and the calls of
``triple_records`` are one-row calls of the kernels that the solvers use.
This module defines no record type, so a solve compiles none it never
builds.

Two metric modes are supported: ``"euclidean"`` (disks in the plane,
radii are lengths) and ``"spherical"`` (caps on the unit sphere, radii
are arc lengths in (0, pi)).  Angles are exterior intersection angles in
radians.

Index convention: the quantity with index ``i`` belongs to the *pair*
``(j, k)``.  So ``angles[0]`` is the exterior angle between circles 1
and 2, and ``lengths[0]`` is the distance between their centers.

All array functions broadcast over a leading batch dimension; the last
axis always has size 3.  The placed-disk relations take rows of three
disks: centers of shape (m, 3), complex in the plane, or (m, 3, 3), unit
vectors on the sphere, and radii of shape (m, 3); their per-pair results
have one column per third disk k, for the pair ``OPPOSITE[k]``.  They work
in chords, |x - c| <= 2 sin(r/2) on the sphere: each relation is the planar
formula, plus one curvature term on the sphere.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import CoversSphere, DomainError

# the mode names of ``configurations``, spelled out so that probe-triple
# loads no pattern module (equal literal names are one interned object)
EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"

# arccos arguments may drift this far outside [-1, 1] and still be clamped
CLAMP_EPS = 1e-9
# sign tests on constructed points (lens corners, extremes): a length
GEOM_EPS = 1e-10
# below this the radian angle chart is ill-conditioned
SMALL_ANGLE = 1e-3
ANGLE_TOL = 1e-8  # the acceptance test's default tolerance, in the solvers and verify
LENS_TOL = 1e-9   # lens-relation slack, on angles and a single point's distance
# the indices j and k of each index i: x[..., NEXT] equals np.roll(x, -1, axis=-1),
# at a fraction of its cost
NEXT, AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _check_mode(mode: str) -> None:
    if mode not in (EUCLIDEAN, SPHERICAL):
        raise ValueError(f"unknown mode {mode!r}")


def clamped_acos(x, eps: float = CLAMP_EPS):
    """arccos that tolerates tiny domain excursions.

    Arguments farther than ``eps`` outside [-1, 1] raise DomainError:
    that is a disjoint/nested circle pair, not rounding noise.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + eps):
        worst = float(np.max(np.abs(x)))
        raise DomainError(f"arccos argument {worst} outside [-1, 1] beyond {eps}")
    out = np.arccos(np.clip(x, -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# edge lengths, feasibility, inner angles
# ---------------------------------------------------------------------------

def edge_lengths(mode: str, radii, angles) -> np.ndarray:
    """Center distances of the three circle pairs, one per opposite index."""
    _check_mode(mode)
    r = np.asarray(radii, dtype=float)
    th = np.asarray(angles, dtype=float)
    rj, rk = r[..., NEXT], r[..., AFTER]
    if mode == EUCLIDEAN:
        return np.sqrt(rj * rj + rk * rk + 2.0 * np.cos(th) * rj * rk)
    # hav l = hav(r_j + r_k) - sin r_j sin r_k hav theta, accurate on short arcs
    hav = np.sin(0.5 * (rj + rk)) ** 2 - np.sin(rj) * np.sin(rk) * np.sin(0.5 * th) ** 2
    return 2.0 * np.arcsin(np.sqrt(np.clip(hav, 0.0, 1.0)))


def _lambdas(angles) -> np.ndarray:
    """lambda_i = cos(theta_i) + cos(theta_j) cos(theta_k), cyclically."""
    c = np.cos(np.asarray(angles, dtype=float))
    return c + c[..., NEXT] * c[..., AFTER]


def feasibility_margin(mode: str, radii, angles) -> np.ndarray:
    """Positivity quantity deciding whether the three circles close up.

    Positive exactly when the three pairwise center distances satisfy the
    strict triangle inequalities (and, spherically, have perimeter < 2*pi).
    Evaluated in the expanded polynomial form to avoid cancellation near
    degeneracy.
    """
    _check_mode(mode)
    r = np.asarray(radii, dtype=float)
    th = np.asarray(angles, dtype=float)
    lam = _lambdas(th)
    s2 = np.sin(th) ** 2
    if mode == EUCLIDEAN:
        rj, rk = r[..., NEXT], r[..., AFTER]
        quad = s2 * rj * rj * rk * rk
        cross = 2.0 * lam * rj * rk * r * r
        return np.sum(quad, axis=-1) + np.sum(cross, axis=-1)
    a, x = np.cos(r), np.sin(r)
    aj, ak = a[..., NEXT], a[..., AFTER]
    xj, xk = x[..., NEXT], x[..., AFTER]
    c = np.cos(th)
    zeta = np.sum(s2, axis=-1) - 2.0 - 2.0 * np.prod(c, axis=-1)
    quad = s2 * a * a * xj * xj * xk * xk
    cross = 2.0 * lam * aj * ak * xj * xk * x * x
    prod2 = np.prod(x, axis=-1) ** 2
    return np.sum(quad, axis=-1) + np.sum(cross, axis=-1) + zeta * prod2


def inner_angles_from_lengths(mode: str, lengths) -> np.ndarray:
    """Angles of the center triangle, one at each circle center."""
    _check_mode(mode)
    l = np.asarray(lengths, dtype=float)
    lj, lk = l[..., NEXT], l[..., AFTER]
    if mode == EUCLIDEAN:
        arg = (lj * lj + lk * lk - l * l) / (2.0 * lj * lk)
        return clamped_acos(arg)
    # half-angle law, stable for small triangles and angles near 0 and pi;
    # sin^2 and cos^2 of alpha/2 may dip below 0 as far as clamped_acos allows
    p, q = 0.5 * (l + lj + lk), np.sin(lj) * np.sin(lk)
    sin2, cos2 = np.sin(p - lj) * np.sin(p - lk) / q, np.sin(p) * np.sin(p - l) / q
    if np.min(np.minimum(sin2, cos2), initial=0.0) < -0.5 * CLAMP_EPS:
        raise DomainError("the lengths fail the triangle inequality beyond rounding")
    return 2.0 * np.arctan2(np.sqrt(np.maximum(sin2, 0.0)), np.sqrt(np.maximum(cos2, 0.0)))


# ---------------------------------------------------------------------------
# inversive distance
# ---------------------------------------------------------------------------

def inversive_distance(mode: str, center_i, r_i: float, center_j, r_j: float) -> float:
    """Moebius-invariant quantity of a circle pair; cos of the exterior
    angle when in [-1, 1].  Out-of-range values are returned raw: > 1 is
    disjoint, < -1 is nested; one row of ``inversive``."""
    _check_mode(mode)
    centers = np.array([center_i, center_j], dtype=complex if mode == EUCLIDEAN else float)
    return float(inversive(mode, centers, np.array([r_i, r_j], float), np.array([[0, 1]]))[0])


def inversive(mode: str, centers: np.ndarray, radii: np.ndarray,
              edges: np.ndarray) -> np.ndarray:
    """Inversive distance of every listed center pair (u, v)."""
    u, v = edges[:, 0], edges[:, 1]
    ru, rv = radii[u], radii[v]
    if mode == EUCLIDEAN:
        d = centers[u] - centers[v]
        return (d.real * d.real + d.imag * d.imag - ru * ru - rv * rv) / (2.0 * ru * rv)
    # (cos r_u cos r_v - c_u . c_v) / (sin r_u sin r_v) in chords, v = 1 - cos r,
    # from the smaller caps: each flipped cap changes the sign
    (cu, ru, fu), (cv, rv, fv) = _smaller_cap(centers[u], ru), _smaller_cap(centers[v], rv)
    d = cu - cv
    vu, vv = 2.0 * np.sin(0.5 * ru) ** 2, 2.0 * np.sin(0.5 * rv) ** 2
    inv = (0.5 * np.einsum("ij,ij->i", d, d) - vu - vv + vu * vv) / (np.sin(ru) * np.sin(rv))
    return np.where(fu != fv, -inv, inv)


def _smaller_cap(c, r):
    """Each circle (c, r) on the sphere as the cap of radius at most pi/2
    that it bounds, (c, r) or (-c, pi - r), and whether it was flipped: its
    chords are at most sqrt 2, where a cap near pi has a chord near 2."""
    flip = r > 0.5 * math.pi
    return np.where(flip[..., None], -c, c), np.where(flip, math.pi - r, r), flip


def angle_from_inversive(inv: float, eps: float = CLAMP_EPS) -> float:
    """Realized exterior angle arccos(I), clamping only within ``eps``."""
    return float(clamped_acos(inv, eps))


def angle_errors(mode: str, centers: np.ndarray, radii: np.ndarray, edges: np.ndarray,
                 theta: np.ndarray, tol: float) -> Tuple[float, Optional[float], bool]:
    """The acceptance test of the realized angles of ``edges``: (largest
    error on cosines, in radians, whether both are at most ``tol``).  The
    radian chart leaves out angles below ``SMALL_ANGLE`` and inversive
    distances past [-1, 1] by more than ``CLAMP_EPS``; if empty, None."""
    realized = inversive(mode, centers, radii, edges)
    cos_err = float(np.max(np.abs(realized - np.cos(theta))))
    chart = (theta >= SMALL_ANGLE) & (np.abs(realized) <= 1.0 + CLAMP_EPS)
    rad_errs = np.abs(np.arccos(np.clip(realized[chart], -1.0, 1.0)) - theta[chart])
    rad_err = float(np.max(rad_errs)) if chart.any() else None
    return cos_err, rad_err, cos_err <= tol and (rad_err is None or rad_err <= tol)


def tangent_frames(normals) -> Tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent frames (e1, e2) at unit vectors, one per row.

    e1 is normal x k for the coordinate axis k least aligned with the
    normal, and e2 = normal x e1, so (e1, e2, normal) is right-handed.
    """
    n = np.atleast_2d(np.asarray(normals, dtype=float))
    k = np.zeros_like(n)
    k[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
    e1 = np.cross(n, k)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return e1, np.cross(n, e1)


def cap_plane_points(centers, radii) -> Tuple[np.ndarray, np.ndarray]:
    """The common point x of the planes c_i . x = cos r_i of each row of
    three caps (centers of shape (m, 3, 3), radii (m, 3)), by Cramer's rule
    in chords from the smallest cap c_0, as the planar radical centre: x =
    c_0 + z, c_0 . z = -v_0, (c_i - c_0) . z = |c_i - c_0|^2 / 2 + v_0 - v_i.
    Returns (det * x, det), det = det[c_0, c_1, c_2] (the roll to c_0 is
    cyclic), so that rows with coplanar centers (det = 0) stay finite."""
    roll = (np.argmin(radii, axis=1)[:, None] + np.arange(3)) % 3
    c = np.take_along_axis(np.asarray(centers, dtype=float), roll[..., None], axis=1)
    v = 2.0 * np.sin(0.5 * np.take_along_axis(np.asarray(radii, dtype=float), roll, axis=1)) ** 2
    m = np.concatenate([c[:, :1], c[:, 1:] - c[:, :1]], axis=1)  # c_0, c_1 - c_0, c_2 - c_0
    rhs = np.column_stack((-v[:, 0], 0.5 * _dot(m[:, 1:], m[:, 1:]) + v[:, :1] - v[:, 1:]))
    cof = np.cross(m[:, NEXT], m[:, AFTER])
    det = _dot(m[:, 0], cof[:, 0])
    return det[:, None] * m[:, 0] + np.einsum("ij,ijk->ik", rhs, cof), det


# ---------------------------------------------------------------------------
# canonical placement, and the triangle apex of the developing map
# ---------------------------------------------------------------------------

def _third_point(z0: complex, z1: complex, d0: float, d2: float) -> complex:
    """Apex of the positively oriented triangle with base z0 -> z1 and
    side lengths |p - z0| = d0, |p - z1| = d2."""
    base = z1 - z0
    d = abs(base)
    x = (d * d + d0 * d0 - d2 * d2) / (2.0 * d)
    y2 = d0 * d0 - x * x
    y = math.sqrt(max(y2, 0.0))
    return z0 + (x + 1j * y) * (base / d)


def _third_point_on_sphere(a, b, h0: float, h2: float):
    """Apex p of the positively oriented spherical triangle with base a -> b
    (unit 3-tuples) and hav|ap| = h0, hav|bp| = h2, from chords only, so a
    short arc keeps its relative accuracy: with d = b - a, h = |d|^2 / 4,
    n = a x d and s = |n|, p - a = 2 (h x / s - h0) a + (x / s) d + (y / s) n."""
    (ax, ay, az), (bx, by, bz) = a, b
    dx, dy, dz = bx - ax, by - ay, bz - az
    h = 0.25 * (dx * dx + dy * dy + dz * dz)
    nx, ny, nz = ay * dz - az * dy, az * dx - ax * dz, ax * dy - ay * dx
    s = math.sqrt(nx * nx + ny * ny + nz * nz)
    x = 2.0 * (h0 + h - h2 - 2.0 * h * h0) / s
    y = math.sqrt(max(4.0 * h0 * (1.0 - h0) - x * x, 0.0))
    ka, kd, kn = 2.0 * (h * x / s - h0), x / s, y / s
    return (ax + (ka * ax + kd * dx + kn * nx), ay + (ka * ay + kd * dy + kn * ny),
            az + (ka * az + kd * dz + kn * nz))


def place_by_lengths(mode: str, lengths):
    """Place three centers with the given pairwise distances.

    Euclidean: returns three complex numbers with center 0 at the origin
    and center 1 on the positive real axis.  Spherical: returns three unit
    3-vectors with center 0 at the north pole.
    """
    _check_mode(mode)
    l0, l1, l2 = (float(v) for v in lengths)
    if mode == EUCLIDEAN:
        z0, z1 = 0.0 + 0.0j, complex(l2, 0.0)  # d(z0, z1) = l2
        return z0, z1, _third_point(z0, z1, l1, l0)
    n0, n1 = (0.0, 0.0, 1.0), (math.sin(l2), 0.0, math.cos(l2))
    n2 = _third_point_on_sphere(n0, n1, math.sin(0.5 * l1) ** 2, math.sin(0.5 * l0) ** 2)
    return np.array(n0), np.array(n1), np.array(n2)


# ---------------------------------------------------------------------------
# placed-disk relations, over rows of three disks
# ---------------------------------------------------------------------------

# the pair (a, b), a < b, of the two disks other than each third disk k
OPPOSITE = np.array([[1, 2], [0, 2], [0, 1]])


class LensRelations(NamedTuple):
    """Per row of three disks and per third disk k (the columns), the lens
    of the pair opposite k (see ``OPPOSITE``) tested against disk k."""

    inv: np.ndarray            # inversive distance of the pair
    intersecting: np.ndarray   # per row: all three pairs meet, |inv| <= 1 + CLAMP_EPS
    meets: np.ndarray          # the pair's boundary circles meet
    single: np.ndarray         # ... in one point: the lens is that point
    contained: np.ndarray      # the lens lies in disk k
    lhs: np.ndarray            # angle(a, k) + angle(b, k)
    rhs: np.ndarray            # pi + angle(a, b), or pi for a single point
    holds: np.ndarray          # lhs >= rhs - tol
    concurrent: np.ndarray     # the single point lies on circle k, to tol


def _dot(x, y):
    return np.einsum("...j,...j->...", x, y)


def _contains(mode, c, r, p, slack):
    """Closed-disk membership |p - c| <= chord - slack of the points p in
    the disks (c, r); the signed slack (positive shrinks) is a length."""
    from .configurations import chords, distances  # probe-triple loads no pattern module

    return distances(p - c) <= chords(mode, r) - slack


def _corners(mode, c1, r1, c2, r2, eps):
    """Where the circles (c1, r1) and (c2, r2) meet: (meets, tangent, p, q),
    p = q where they are tangent to within eps of the degenerate root.  In
    chords rho, for both geometries: p = c1 + a c1 + b u +- h n, a = 0 in
    the plane and -rho1^2 / 2 on the sphere, u along the part w of c2 - c1
    normal to c1, b = (d^2 + rho1^2 - rho2^2 - 2 a g) / 2|w|, d = |c2 - c1|,
    g = (c2 - c1) . c1, h^2 = rho1^2 - a^2 - b^2, n = i u or c1 x u.  On the
    sphere each circle is read from its smaller cap."""
    from .configurations import chords, distances

    if mode == SPHERICAL:
        (c1, r1, _), (c2, r2, _) = _smaller_cap(c1, r1), _smaller_cap(c2, r2)
    r1, r2, w = chords(mode, r1), chords(mode, r2), c2 - c1
    d, a, g = distances(w), 0.0, 0.0
    if mode == SPHERICAL:  # g measured, not -d^2 / 2, keeps w normal to c1
        a, g = -0.5 * r1 * r1, _dot(w, c1)
        w = w - g[..., None] * c1
    s = distances(w)
    b = (d * d + r1 * r1 - r2 * r2 - 2.0 * a * g) / (2.0 * s)
    h2, scale = r1 * r1 - a * a - b * b, np.maximum(np.maximum(r1, r2), d) ** 2
    meets, tangent = (s > eps) & (h2 >= -eps * scale), h2 <= eps * scale
    h = np.sqrt(np.where(tangent, 0.0, h2))
    if mode == EUCLIDEAN:
        u = w / s
        base, off = c1 + b * u, 1j * h * u
    else:
        u = w / s[..., None]
        base, off = c1 + (a[..., None] * c1 + b[..., None] * u), h[..., None] * np.cross(c1, u)
    return meets, tangent, base + off, base - off


def _far_points(mode, c_arc, r_arc, c_ref):
    """The point of each circle (c_arc, r_arc) farthest from c_ref, and
    where it is defined (the centres are not concentric)."""
    if mode == EUCLIDEAN:
        d = np.abs(c_arc - c_ref)
        return d > GEOM_EPS, c_arc + r_arc * (c_arc - c_ref) / d
    w = c_ref - _dot(c_ref, c_arc)[..., None] * c_arc
    nw = np.linalg.norm(w, axis=-1)[..., None]
    return nw[..., 0] > GEOM_EPS, np.cos(r_arc)[..., None] * c_arc - np.sin(r_arc)[..., None] * (w / nw)


@np.errstate(divide="ignore", invalid="ignore")
def lens_relations(mode: str, centers, radii, tol: float = LENS_TOL) -> LensRelations:
    """The lens containments among rows of three disks, and the angle
    relation each one forces.

    For a lens of disks a, b inside disk k the relation is angle(a,k) +
    angle(b,k) >= pi + angle(a,b); a single-point lens inside k forces
    angle(a,k) + angle(b,k) >= pi, with equality exactly when the three
    boundaries share a point.  A lens lies in k when its corners do and,
    per bounding arc, the arc's point farthest from k does if it lies on
    the lens side.  Rows that are not ``intersecting`` carry no decision.
    """
    from .configurations import chords, distances

    c, r = np.asarray(centers), np.asarray(radii, dtype=float)
    pairs = (3 * np.arange(len(r))[:, None, None] + OPPOSITE).reshape(-1, 2)
    inv = inversive(mode, c.reshape((-1,) + c.shape[2:]), r.ravel(), pairs).reshape(-1, 3)
    ang = np.arccos(np.clip(inv, -1.0, 1.0))
    i, j = OPPOSITE.T
    meets, tangent, p, q = _corners(mode, c[:, i], r[:, i], c[:, j], r[:, j], GEOM_EPS)
    single = meets & tangent
    arcs_ok = np.ones_like(single)
    for arc, other in OPPOSITE.T, OPPOSITE[:, ::-1].T:
        far, f = _far_points(mode, c[:, arc], r[:, arc], c)
        arcs_ok &= ~(far & _contains(mode, c[:, other], r[:, other], f, -GEOM_EPS)
                     & ~_contains(mode, c, r, f, -GEOM_EPS))
    contained = (meets & _contains(mode, c, r, p, -GEOM_EPS)
                 & _contains(mode, c, r, q, -GEOM_EPS) & (single | arcs_ok))
    lhs = ang[:, NEXT] + ang[:, AFTER]
    rhs = np.where(single, math.pi, math.pi + ang)
    off = np.abs(distances(p - c) - chords(mode, r))
    return LensRelations(inv, (np.abs(inv) <= 1.0 + CLAMP_EPS).all(axis=1), meets, single,
                         contained, lhs, rhs, lhs >= rhs - tol, single & (off <= tol))


def _nonempty(mode, c, r, eps):
    """Per row, a witness of a common point: a centre in the two other
    disks (this covers nested rows, whose circles need not meet), a
    corner of a pair's lens in the third disk, or else a point of a circle
    in the two other disks: an intersection without corners is bounded by
    whole circles (concentric or antipodal pairs have no corners)."""
    e1 = None if mode == EUCLIDEAN else tangent_frames(c.reshape(-1, 3))[0].reshape(c.shape)
    on = c + r if mode == EUCLIDEAN else np.cos(r)[..., None] * c + np.sin(r)[..., None] * e1
    own, circle = (_contains(mode, c[:, :, None], r[:, :, None], x[:, None, :], -eps)
                   for x in (c, on))  # [disk, centre or circle]
    i, j = OPPOSITE.T
    meets, _, p, q = _corners(mode, c[:, i], r[:, i], c[:, j], r[:, j], eps)
    corner = meets & (_contains(mode, c, r, p, -eps) | _contains(mode, c, r, q, -eps))
    circle |= np.eye(3, dtype=bool)  # each point is on its own circle
    return (own.all(axis=1) | circle.all(axis=1)).any(axis=1) | corner.any(axis=1)


@np.errstate(divide="ignore", invalid="ignore")
def triple_intersections_empty(mode: str, centers, radii, eps: float = GEOM_EPS) -> np.ndarray:
    """Exact arrangement test: per row, is the triple intersection of the
    three closed disks empty?

    Spherical mode raises CoversSphere when the three open disks of some
    row cover the sphere (the query is then outside its precondition):
    exactly when their closed complements have an empty intersection.
    """
    c, r = np.asarray(centers), np.asarray(radii, dtype=float)
    if mode == SPHERICAL and not _nonempty(mode, -c, math.pi - r, eps).all():
        raise CoversSphere("open disks cover the sphere")
    return ~_nonempty(mode, c, r, eps)
