"""Closed-form geometry of three-circle configurations.

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
have one column per third disk k, for the pair ``OPPOSITE[k]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CoversSphere,
    DomainError,
    Infeasible,
    NotMutuallyIntersecting,
)

# the mode names of ``configurations``, spelled out so that probe-triple
# loads this module alone (equal literal names are one interned object)
EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"

# arccos arguments may drift this far outside [-1, 1] and still be clamped
CLAMP_EPS = 1e-9
# sign tests on constructed points (lens corners, extremes)
GEOM_EPS = 1e-10


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
    rj, rk = np.roll(r, -1, axis=-1), np.roll(r, -2, axis=-1)
    if mode == EUCLIDEAN:
        return np.sqrt(rj * rj + rk * rk + 2.0 * np.cos(th) * rj * rk)
    arg = np.cos(rj) * np.cos(rk) - np.cos(th) * np.sin(rj) * np.sin(rk)
    return clamped_acos(arg)


def _lambdas(angles) -> np.ndarray:
    """lambda_i = cos(theta_i) + cos(theta_j) cos(theta_k), cyclically."""
    c = np.cos(np.asarray(angles, dtype=float))
    return c + np.roll(c, -1, axis=-1) * np.roll(c, -2, axis=-1)


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
        rj, rk = np.roll(r, -1, axis=-1), np.roll(r, -2, axis=-1)
        quad = s2 * rj * rj * rk * rk
        cross = 2.0 * lam * rj * rk * r * r
        return np.sum(quad, axis=-1) + np.sum(cross, axis=-1)
    a, x = np.cos(r), np.sin(r)
    aj, ak = np.roll(a, -1, axis=-1), np.roll(a, -2, axis=-1)
    xj, xk = np.roll(x, -1, axis=-1), np.roll(x, -2, axis=-1)
    c = np.cos(th)
    zeta = np.sum(s2, axis=-1) - 2.0 - 2.0 * np.prod(c, axis=-1)
    quad = s2 * a * a * xj * xj * xk * xk
    cross = 2.0 * lam * aj * ak * xj * xk * x * x
    prod2 = np.prod(x, axis=-1) ** 2
    return np.sum(quad, axis=-1) + np.sum(cross, axis=-1) + zeta * prod2


def _margin_scalar(mode: str, radii, angles) -> float:
    """Compensated-summation scalar version of feasibility_margin."""
    ri, rj, rk = (float(v) for v in radii)
    ti, tj, tk = (float(v) for v in angles)
    ci, cj, ck = math.cos(ti), math.cos(tj), math.cos(tk)
    si, sj, sk = math.sin(ti), math.sin(tj), math.sin(tk)
    l_i, l_j, l_k = ci + cj * ck, cj + ck * ci, ck + ci * cj
    if mode == EUCLIDEAN:
        terms = [
            si * si * rj * rj * rk * rk,
            sj * sj * rk * rk * ri * ri,
            sk * sk * ri * ri * rj * rj,
            2.0 * l_i * rj * rk * ri * ri,
            2.0 * l_j * rk * ri * rj * rj,
            2.0 * l_k * ri * rj * rk * rk,
        ]
        return math.fsum(terms)
    ai, aj, ak = math.cos(ri), math.cos(rj), math.cos(rk)
    xi, xj, xk = math.sin(ri), math.sin(rj), math.sin(rk)
    zeta = si * si + sj * sj + sk * sk - 2.0 - 2.0 * ci * cj * ck
    terms = [
        si * si * ai * ai * xj * xj * xk * xk,
        sj * sj * aj * aj * xk * xk * xi * xi,
        sk * sk * ak * ak * xi * xi * xj * xj,
        zeta * xi * xi * xj * xj * xk * xk,
        2.0 * l_i * aj * ak * xj * xk * xi * xi,
        2.0 * l_j * ak * ai * xk * xi * xj * xj,
        2.0 * l_k * ai * aj * xi * xj * xk * xk,
    ]
    return math.fsum(terms)


def inner_angles_from_lengths(mode: str, lengths) -> np.ndarray:
    """Angles of the center triangle, one at each circle center."""
    _check_mode(mode)
    l = np.asarray(lengths, dtype=float)
    lj, lk = np.roll(l, -1, axis=-1), np.roll(l, -2, axis=-1)
    if mode == EUCLIDEAN:
        arg = (lj * lj + lk * lk - l * l) / (2.0 * lj * lk)
    else:
        arg = (np.cos(l) - np.cos(lj) * np.cos(lk)) / (np.sin(lj) * np.sin(lk))
    return clamped_acos(arg)


# ---------------------------------------------------------------------------
# triple-level operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleSpec:
    """Radii and pairwise exterior angles of a prospective circle triple."""

    mode: str
    radii: Tuple[float, float, float]
    angles: Tuple[float, float, float]

    def __post_init__(self):
        _check_mode(self.mode)
        if len(self.radii) != 3 or len(self.angles) != 3:
            raise ValueError("need exactly three radii and three angles")
        for r in self.radii:
            if not (r > 0.0) or (self.mode == SPHERICAL and not r < math.pi):
                raise ValueError(f"radius {r} outside mode domain")
        lo_open = self.mode == SPHERICAL
        for t in self.angles:
            if not math.isfinite(t) or t >= math.pi or t < 0.0 or (lo_open and t == 0.0):
                raise ValueError(f"angle {t} outside mode domain")


@dataclass(frozen=True)
class TripleGeometry:
    """Derived geometry of a feasible (or not) circle triple."""

    edge_lengths: Tuple[float, float, float]
    inner_angles: Optional[Tuple[float, float, float]]
    feasibility_margin: float
    lambdas: Tuple[float, float, float]
    angle_triangle_sides: Optional[Tuple[float, float, float]]


def edge_length(spec: TripleSpec, which: int) -> float:
    """Center distance of the circle pair opposite index ``which``."""
    return float(edge_lengths(spec.mode, spec.radii, spec.angles)[which])


def feasibility(spec: TripleSpec) -> Tuple[bool, float]:
    """Whether the triple closes up, with the signed margin."""
    margin = _margin_scalar(spec.mode, spec.radii, spec.angles)
    return margin > 0.0, margin


def inner_angles(spec: TripleSpec) -> Tuple[float, float, float]:
    """Center-triangle angles; raises Infeasible when the triple cannot close."""
    ok, margin = feasibility(spec)
    if not ok:
        raise Infeasible(f"margin {margin} <= 0")
    l = edge_lengths(spec.mode, spec.radii, spec.angles)
    return tuple(inner_angles_from_lengths(spec.mode, l))


def triple_geometry(spec: TripleSpec) -> TripleGeometry:
    l = edge_lengths(spec.mode, spec.radii, spec.angles)
    ok, margin = feasibility(spec)
    alphas = tuple(inner_angles_from_lengths(spec.mode, l)) if ok else None
    lams = _lambdas(spec.angles)
    phis = None
    if sum(spec.angles) > math.pi:
        s = np.sin(spec.angles)
        args = lams / (np.roll(s, -1) * np.roll(s, -2))
        if np.all(np.abs(args) <= 1.0 + CLAMP_EPS):
            phis = tuple(clamped_acos(args))
    return TripleGeometry(
        edge_lengths=tuple(float(v) for v in l),
        inner_angles=alphas,
        feasibility_margin=margin,
        lambdas=tuple(float(v) for v in lams),
        angle_triangle_sides=phis,
    )


# ---------------------------------------------------------------------------
# inversive distance
# ---------------------------------------------------------------------------

def inversive_distance(mode: str, center_i, r_i: float, center_j, r_j: float) -> float:
    """Moebius-invariant quantity of a circle pair; cos of the exterior
    angle when in [-1, 1].  Out-of-range values are returned raw: > 1 is
    disjoint, < -1 is nested."""
    _check_mode(mode)
    if mode == EUCLIDEAN:
        d2 = abs(complex(center_i) - complex(center_j)) ** 2
        return (d2 - r_i * r_i - r_j * r_j) / (2.0 * r_i * r_j)
    dot = float(np.dot(np.asarray(center_i, float), np.asarray(center_j, float)))
    return (math.cos(r_i) * math.cos(r_j) - dot) / (math.sin(r_i) * math.sin(r_j))


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


def angle_from_inversive(inv: float, eps: float = CLAMP_EPS) -> float:
    """Realized exterior angle arccos(I), clamping only within ``eps``."""
    return float(clamped_acos(inv, eps))


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
    three caps (centers of shape (m, 3, 3), radii (m, 3)), by Cramer's rule.

    Returns (det * x, det) with det = det[c_0, c_1, c_2], so that rows with
    coplanar centers (det = 0) stay finite.
    """
    c, cos_r = np.asarray(centers, dtype=float), np.cos(radii)
    x = (cos_r[:, :1] * np.cross(c[:, 1], c[:, 2]) + cos_r[:, 1:2] * np.cross(c[:, 2], c[:, 0])
         + cos_r[:, 2:] * np.cross(c[:, 0], c[:, 1]))
    return x, np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2]))


# ---------------------------------------------------------------------------
# canonical placement (used by round-trip checks and the seed of layouts)
# ---------------------------------------------------------------------------

def place_by_lengths(mode: str, lengths):
    """Place three centers with the given pairwise distances.

    Euclidean: returns three complex numbers with center 0 at the origin
    and center 1 on the positive real axis.  Spherical: returns three unit
    3-vectors with center 0 at the north pole.
    """
    _check_mode(mode)
    l0, l1, l2 = (float(v) for v in lengths)
    if mode == EUCLIDEAN:
        z0 = 0.0 + 0.0j
        z1 = complex(l2, 0.0)  # d(z0, z1) = l2
        x = (l2 * l2 + l1 * l1 - l0 * l0) / (2.0 * l2)
        y2 = l1 * l1 - x * x
        z2 = complex(x, math.sqrt(max(y2, 0.0)))
        return z0, z1, z2
    # angle at center 0 between the arcs to centers 1 and 2
    arg = (math.cos(l0) - math.cos(l1) * math.cos(l2)) / (math.sin(l1) * math.sin(l2))
    alpha = float(clamped_acos(arg))
    n0 = np.array([0.0, 0.0, 1.0])
    n1 = np.array([math.sin(l2), 0.0, math.cos(l2)])
    n2 = np.array(
        [math.sin(l1) * math.cos(alpha), math.sin(l1) * math.sin(alpha), math.cos(l1)]
    )
    return n0, n1, n2


def place_triple(spec: TripleSpec):
    """Centers of a feasible triple, via its edge lengths."""
    ok, margin = feasibility(spec)
    if not ok:
        raise Infeasible(f"margin {margin} <= 0")
    return place_by_lengths(spec.mode, edge_lengths(spec.mode, spec.radii, spec.angles))


# ---------------------------------------------------------------------------
# shrinking-radius limit diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitProfile:
    """Convergence record of center-triangle angles along a shrinking family."""

    mode: str
    shrink: Tuple[int, ...]
    scales: Tuple[float, ...]
    gaps: Tuple[float, ...]
    limit_value: float
    monotone_decreasing: bool

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]


def limit_profile(mode: str, radii, angles, shrink: Sequence[int], scales) -> LimitProfile:
    """Drive the listed radii to zero and watch the matching angle limit.

    One shrinking radius i: alpha_i -> pi - theta_i.  Two shrinking radii
    i, j: alpha_i + alpha_j -> pi.  All three: alpha_i + alpha_j + alpha_k
    -> pi.
    """
    shrink = tuple(sorted(set(int(s) for s in shrink)))
    if not 1 <= len(shrink) <= 3:
        raise ValueError("shrink must list one, two, or three indices")
    base = np.asarray(radii, dtype=float)
    th = np.asarray(angles, dtype=float)
    gaps = []
    for s in scales:
        r = base.copy()
        r[list(shrink)] = base[list(shrink)] * float(s)
        spec = TripleSpec(mode, tuple(r), tuple(th))
        alphas = inner_angles(spec)
        if len(shrink) == 1:
            i = shrink[0]
            limit = math.pi - th[i]
            gaps.append(abs(alphas[i] - limit))
        elif len(shrink) == 2:
            limit = math.pi
            gaps.append(abs(alphas[shrink[0]] + alphas[shrink[1]] - limit))
        else:
            limit = math.pi
            gaps.append(abs(sum(alphas) - limit))
    mono = all(b < a for a, b in zip(gaps, gaps[1:]))
    return LimitProfile(
        mode=mode,
        shrink=shrink,
        scales=tuple(float(s) for s in scales),
        gaps=tuple(gaps),
        limit_value=limit,
        monotone_decreasing=mono,
    )


# ---------------------------------------------------------------------------
# placed-disk relations, over rows of three disks
# ---------------------------------------------------------------------------

# the pair (a, b), a < b, of the two disks other than each third disk k
OPPOSITE = np.array([[1, 2], [0, 2], [0, 1]])


@dataclass(frozen=True)
class ContainmentRecord:
    """Result of testing one lens D_a * D_b against the third disk."""

    pair: Tuple[int, int]
    third: int
    contained: bool
    single_point: bool
    lhs: Optional[float] = None          # angle(a,3rd) + angle(b,3rd)
    rhs: Optional[float] = None          # pi + angle(a,b) (or pi when tangent)
    slack: Optional[float] = None
    relation_holds: Optional[bool] = None
    boundary_concurrent: Optional[bool] = None


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
    """Closed-disk membership of the points p in the disks (c, r), with
    signed slack (positive slack shrinks)."""
    if mode == EUCLIDEAN:
        return np.abs(p - c) <= r - slack
    return _dot(p, c) >= np.cos(r) + slack


def _corners(mode, c, r, eps):
    """Per row and third disk k, where the circles of the pair opposite k
    meet: (meets, tangent, p, q), with p = q where the two are tangent to
    within eps of the degenerate root (read ``tangent`` with ``meets``)."""
    i, j = OPPOSITE.T
    c1, c2, r1, r2 = c[:, i], c[:, j], r[:, i], r[:, j]
    if mode == EUCLIDEAN:
        d = np.abs(c2 - c1)
        a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
        h2, scale = r1 * r1 - a * a, np.maximum(np.maximum(r1, r2), d) ** 2
        meets, tangent = (d > eps) & (h2 >= -eps * scale), h2 <= eps * scale
        u = (c2 - c1) / d
        base, off = c1 + a * u, 1j * np.sqrt(np.where(tangent, 0.0, h2)) * u
        return meets, tangent, base + off, base - off
    dot = _dot(c1, c2)
    det, cr1, cr2 = 1.0 - dot * dot, np.cos(r1), np.cos(r2)
    a, b = (cr1 - cr2 * dot) / det, (cr2 - cr1 * dot) / det
    g2 = (1.0 - (a * a + b * b + 2.0 * a * b * dot)) / det
    meets, tangent = (det > eps) & (g2 >= -eps), g2 <= eps
    base = a[..., None] * c1 + b[..., None] * c2
    base = np.where(tangent[..., None], base / np.linalg.norm(base, axis=-1)[..., None], base)
    off = np.sqrt(np.where(tangent, 0.0, g2))[..., None] * np.cross(c1, c2)
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
def lens_relations(mode: str, centers, radii, tol: float = 1e-9) -> LensRelations:
    """The lens containments among rows of three disks, and the angle
    relation each one forces.

    For a lens of disks a, b inside disk k the relation is angle(a,k) +
    angle(b,k) >= pi + angle(a,b); a single-point lens inside k forces
    angle(a,k) + angle(b,k) >= pi, with equality exactly when the three
    boundaries share a point.  A lens lies in k when its corners do and,
    per bounding arc, the arc's point farthest from k does if it lies on
    the lens side.  Rows that are not ``intersecting`` carry no decision.
    """
    c, r = np.asarray(centers), np.asarray(radii, dtype=float)
    pairs = (3 * np.arange(len(r))[:, None, None] + OPPOSITE).reshape(-1, 2)
    inv = inversive(mode, c.reshape((-1,) + c.shape[2:]), r.ravel(), pairs).reshape(-1, 3)
    ang = np.arccos(np.clip(inv, -1.0, 1.0))
    meets, tangent, p, q = _corners(mode, c, r, GEOM_EPS)
    single = meets & tangent
    arcs_ok = np.ones_like(single)
    for arc, other in OPPOSITE.T, OPPOSITE[:, ::-1].T:
        far, f = _far_points(mode, c[:, arc], r[:, arc], c)
        arcs_ok &= ~(far & _contains(mode, c[:, other], r[:, other], f, -GEOM_EPS)
                     & ~_contains(mode, c, r, f, -GEOM_EPS))
    contained = (meets & _contains(mode, c, r, p, -GEOM_EPS)
                 & _contains(mode, c, r, q, -GEOM_EPS) & (single | arcs_ok))
    lhs = np.roll(ang, -1, axis=1) + np.roll(ang, -2, axis=1)
    rhs = np.where(single, math.pi, math.pi + ang)
    off = np.abs(np.abs(p - c) - r) if mode == EUCLIDEAN else np.abs(_dot(p, c) - np.cos(r))
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
    meets, _, p, q = _corners(mode, c, r, eps)
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


def _one_row(mode, centers, radii):
    """Three disks as the one row the row-wise relations take."""
    _check_mode(mode)
    if mode == EUCLIDEAN:
        return np.array([[complex(x) for x in centers]]), np.array([radii], dtype=float)
    c = np.array([centers], dtype=float)
    if np.any(np.abs(np.linalg.norm(c, axis=-1) - 1.0) > 1e-8):
        raise ValueError("spherical centers must be unit vectors")
    return c, np.array([radii], dtype=float)


def containment_angle_check(mode: str, centers, radii, tol: float = 1e-9):
    """``lens_relations`` of one row of three mutually intersecting disks:
    one ContainmentRecord per pair whose circles meet, in the order of the
    third disk."""
    rel = lens_relations(mode, *_one_row(mode, centers, radii), tol)
    inv = rel.inv[0]
    for k in (2, 1, 0):  # the pairs (0, 1), (0, 2), (1, 2)
        if abs(inv[k]) > 1.0 + CLAMP_EPS:
            a, b = OPPOSITE[k]
            raise NotMutuallyIntersecting(f"disks {a},{b} have inversive distance {inv[k]}")
    records = []
    for k in np.flatnonzero(rel.meets[0]).tolist():
        pair, single = tuple(OPPOSITE[k].tolist()), bool(rel.single[0, k])
        if not rel.contained[0, k]:
            records.append(ContainmentRecord(pair, k, False, single))
            continue
        lhs, rhs = float(rel.lhs[0, k]), float(rel.rhs[0, k])
        records.append(ContainmentRecord(
            pair, k, True, single, lhs, rhs, lhs - rhs, bool(rel.holds[0, k]),
            bool(rel.concurrent[0, k]) if single else None))
    return records


def triple_intersection_empty(mode: str, centers, radii, eps: float = GEOM_EPS) -> bool:
    """``triple_intersections_empty`` of one row of three disks."""
    return bool(triple_intersections_empty(mode, *_one_row(mode, centers, radii), eps)[0])
