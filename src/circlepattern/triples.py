"""Closed-form geometry of three-circle configurations.

Two metric modes are supported: ``"euclidean"`` (disks in the plane,
radii are lengths) and ``"spherical"`` (caps on the unit sphere, radii
are arc lengths in (0, pi)).  Angles are exterior intersection angles in
radians.

Index convention: the quantity with index ``i`` belongs to the *pair*
``(j, k)``.  So ``angles[0]`` is the exterior angle between circles 1
and 2, and ``lengths[0]`` is the distance between their centers.

All array functions broadcast over a leading batch dimension; the last
axis always has size 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CoversSphere,
    DomainError,
    Infeasible,
    NotMutuallyIntersecting,
)

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
# placed-disk predicates and arrangements
# ---------------------------------------------------------------------------

def _as_disks(mode, centers, radii):
    if mode == EUCLIDEAN:
        cs = [complex(c) for c in centers]
    else:
        cs = [np.asarray(c, dtype=float) for c in centers]
        for c in cs:
            n = np.linalg.norm(c)
            if abs(n - 1.0) > 1e-8:
                raise ValueError("spherical centers must be unit vectors")
    return cs, [float(r) for r in radii]


def disk_contains(mode: str, center, radius: float, point, slack: float = 0.0) -> bool:
    """Closed-disk membership with signed slack (positive slack shrinks)."""
    if mode == EUCLIDEAN:
        return abs(complex(point) - complex(center)) <= radius - slack
    dot = float(np.dot(np.asarray(point, float), np.asarray(center, float)))
    return dot >= math.cos(radius) + slack


def circle_pair_points(mode: str, c1, r1: float, c2, r2: float, eps: float = GEOM_EPS):
    """Intersection points of two boundary circles (0, 1, or 2 points).

    A tangency (within eps of the degenerate root) yields one point.
    Returns None when the boundaries do not meet.
    """
    _check_mode(mode)
    if mode == EUCLIDEAN:
        c1, c2 = complex(c1), complex(c2)
        d = abs(c2 - c1)
        if d <= eps:
            return None
        a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
        h2 = r1 * r1 - a * a
        scale = max(r1, r2, d) ** 2
        if h2 < -eps * scale:
            return None
        u = (c2 - c1) / d
        base = c1 + a * u
        if h2 <= eps * scale:
            return (base,)
        h = math.sqrt(h2)
        return (base + 1j * h * u, base - 1j * h * u)
    n1 = np.asarray(c1, float)
    n2 = np.asarray(c2, float)
    cr1, cr2 = math.cos(r1), math.cos(r2)
    dot = float(np.dot(n1, n2))
    det = 1.0 - dot * dot
    if det <= eps:
        return None
    a = (cr1 - cr2 * dot) / det
    b = (cr2 - cr1 * dot) / det
    cross = np.cross(n1, n2)
    g2 = (1.0 - (a * a + b * b + 2.0 * a * b * dot)) / det
    if g2 < -eps:
        return None
    base = a * n1 + b * n2
    if g2 <= eps:
        p = base / np.linalg.norm(base)
        return (p,)
    g = math.sqrt(g2)
    return (base + g * cross, base - g * cross)


def _pair_intersects(mode, c1, r1, c2, r2, eps=GEOM_EPS) -> bool:
    """Proper intersection: boundaries cross or touch (|I| <= 1)."""
    inv = inversive_distance(mode, c1, r1, c2, r2)
    return abs(inv) <= 1.0 + eps


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


def _far_point(mode, c_arc, r_arc, c_ref):
    """Point of the circle (c_arc, r_arc) farthest from disk (c_ref, .)."""
    if mode == EUCLIDEAN:
        c_arc, c_ref = complex(c_arc), complex(c_ref)
        d = abs(c_arc - c_ref)
        if d <= GEOM_EPS:
            return None
        return c_arc + r_arc * (c_arc - c_ref) / d
    n = np.asarray(c_arc, float)
    m = np.asarray(c_ref, float)
    w = m - float(np.dot(m, n)) * n
    nw = np.linalg.norm(w)
    if nw <= GEOM_EPS:
        return None
    return math.cos(r_arc) * n - math.sin(r_arc) * (w / nw)


def _lens_in_disk(mode, ca, ra, cb, rb, cc, rc, corners, eps) -> bool:
    """Is the lens of disks a, b inside disk c?

    Sign tests on the two corner points plus, per bounding arc, the point
    of that arc farthest from disk c when it lies on the lens side.
    """
    for p in corners:
        if not disk_contains(mode, cc, rc, p, slack=-eps):
            return False
    for (c1, r1, c2, r2) in ((ca, ra, cb, rb), (cb, rb, ca, ra)):
        f = _far_point(mode, c1, r1, cc)
        if f is None:
            # concentric with the reference: arc dist to c is constant
            if not disk_contains(mode, cc, rc, corners[0], slack=-eps):
                return False
            continue
        if disk_contains(mode, c2, r2, f, slack=-eps) and not disk_contains(
            mode, cc, rc, f, slack=-eps
        ):
            return False
    return True


def containment_angle_check(mode: str, centers, radii, tol: float = 1e-9):
    """Detect lens containments among three mutually intersecting disks and
    check the angle relation each one forces.

    For a contained lens of disks a, b inside disk c the relation is
    angle(a,c) + angle(b,c) >= pi + angle(a,b).  A single-point lens inside
    c forces angle(a,c) + angle(b,c) >= pi, with equality exactly when the
    three boundaries share a point.
    """
    cs, rs = _as_disks(mode, centers, radii)
    invs = {}
    for a in range(3):
        for b in range(a + 1, 3):
            inv = inversive_distance(mode, cs[a], rs[a], cs[b], rs[b])
            if abs(inv) > 1.0 + CLAMP_EPS:
                raise NotMutuallyIntersecting(
                    f"disks {a},{b} have inversive distance {inv}"
                )
            invs[(a, b)] = min(1.0, max(-1.0, inv))

    def angle(a, b):
        return math.acos(invs[(min(a, b), max(a, b))])

    records = []
    for c in range(3):
        a, b = [m for m in range(3) if m != c]
        corners = circle_pair_points(mode, cs[a], rs[a], cs[b], rs[b])
        if corners is None:
            # one disk inside the other would have been caught above
            continue
        single = len(corners) == 1
        if single:
            p = corners[0]
            if not disk_contains(mode, cs[c], rs[c], p, slack=-GEOM_EPS):
                records.append(ContainmentRecord((a, b), c, False, True))
                continue
            on_boundary = _on_circle(mode, cs[c], rs[c], p, tol)
            lhs = angle(a, c) + angle(b, c)
            records.append(
                ContainmentRecord(
                    pair=(a, b),
                    third=c,
                    contained=True,
                    single_point=True,
                    lhs=lhs,
                    rhs=math.pi,
                    slack=lhs - math.pi,
                    relation_holds=lhs >= math.pi - tol,
                    boundary_concurrent=on_boundary,
                )
            )
            continue
        contained = _lens_in_disk(
            mode, cs[a], rs[a], cs[b], rs[b], cs[c], rs[c], corners, GEOM_EPS
        )
        if not contained:
            records.append(ContainmentRecord((a, b), c, False, False))
            continue
        lhs = angle(a, c) + angle(b, c)
        rhs = math.pi + angle(a, b)
        records.append(
            ContainmentRecord(
                pair=(a, b),
                third=c,
                contained=True,
                single_point=False,
                lhs=lhs,
                rhs=rhs,
                slack=lhs - rhs,
                relation_holds=lhs >= rhs - tol,
            )
        )
    return records


def _on_circle(mode, center, radius, point, tol) -> bool:
    if mode == EUCLIDEAN:
        return abs(abs(complex(point) - complex(center)) - radius) <= tol
    dot = float(np.dot(np.asarray(point, float), np.asarray(center, float)))
    return abs(dot - math.cos(radius)) <= tol


def triple_intersection_empty(mode: str, centers, radii, eps: float = GEOM_EPS) -> bool:
    """Exact arrangement test: is the triple intersection of the closed
    disks empty?

    Spherical mode raises CoversSphere when the three open disks cover the
    sphere (the query is then outside its precondition).
    """
    cs, rs = _as_disks(mode, centers, radii)
    if mode == SPHERICAL:
        # complement caps: open disks cover the sphere iff the closed
        # complements have empty intersection
        comp_c = [-c for c in cs]
        comp_r = [math.pi - r for r in rs]
        if _triple_nonempty(mode, comp_c, comp_r, eps) is False:
            raise CoversSphere("open disks cover the sphere")
    return not _triple_nonempty(mode, cs, rs, eps)


def _triple_nonempty(mode, cs, rs, eps) -> bool:
    # a center inside the two other disks witnesses nonemptiness (covers
    # nested configurations with no boundary corners)
    for m in range(3):
        others = [x for x in range(3) if x != m]
        if all(disk_contains(mode, cs[o], rs[o], cs[m], slack=-eps)
               for o in others):
            return True
    # otherwise some corner of a pairwise lens must lie in the third disk
    for c in range(3):
        a, b = [m for m in range(3) if m != c]
        pts = circle_pair_points(mode, cs[a], rs[a], cs[b], rs[b], eps)
        if not pts:
            continue
        for p in pts:
            if disk_contains(mode, cs[c], rs[c], p, slack=-eps):
                return True
    return False
