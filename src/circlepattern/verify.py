"""Independent post-hoc verification of a claimed circle pattern.

Every check works only from the circles and the combinatorial data, never
from solver internals: realized angles are recomputed from inversive
distances, coverage properties are sampled at a configurable resolution,
and the three-circle relations are tested with the exact arrangement
primitives.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .conditions import AngleAssignment, compare
from .configurations import EuclideanConfiguration, SphericalConfiguration
from .errors import MalformedPattern
from .triangulation import Triangulation
from . import triples

PI = math.pi
DISJOINT_EPS = 1e-9      # inversive slack distinguishing overlap from contact
SMALL_ANGLE = 1e-3       # below this the radian angle chart is ill-conditioned


@dataclass
class CirclePattern:
    """A configuration bound to its combinatorics and target angles."""

    triangulation: Triangulation
    theta: AngleAssignment
    mode: str
    centers: np.ndarray
    radii: np.ndarray
    marked_face: Optional[Tuple[int, int, int]] = None

    def __post_init__(self):
        self.centers = np.asarray(self.centers)
        self.radii = np.asarray(self.radii, dtype=float)
        n = self.triangulation.vertex_count
        if len(self.radii) != n or len(self.centers) != n:
            raise MalformedPattern("circle count does not match vertex count")
        if np.any(~np.isfinite(self.radii)) or np.any(self.radii <= 0):
            raise MalformedPattern("radii must be positive and finite")
        if self.mode == triples.SPHERICAL:
            if self.centers.shape != (n, 3):
                raise MalformedPattern("spherical centers must be unit 3-vectors")
            if np.any(self.radii >= PI):
                raise MalformedPattern("spherical radii must lie in (0, pi)")
            norms = np.linalg.norm(self.centers, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-8):
                raise MalformedPattern("spherical centers must be unit vectors")
        elif self.mode == triples.EUCLIDEAN:
            self.centers = self.centers.astype(complex)
            if self.centers.shape != (n,):
                raise MalformedPattern("planar centers must be complex scalars")
        else:
            raise MalformedPattern(f"unknown mode {self.mode!r}")

    @classmethod
    def from_euclidean(cls, t: Triangulation, theta: AngleAssignment,
                       cfg: EuclideanConfiguration) -> "CirclePattern":
        return cls(t, theta, triples.EUCLIDEAN, cfg.centers, cfg.radii, cfg.marked_face)

    @classmethod
    def from_spherical(cls, t: Triangulation, theta: AngleAssignment,
                       cfg: SphericalConfiguration) -> "CirclePattern":
        return cls(t, theta, triples.SPHERICAL, cfg.centers, cfg.radii, cfg.marked_face)

    # -- pairwise quantities -------------------------------------------

    def inversive_matrix(self) -> np.ndarray:
        n = len(self.radii)
        if self.mode == triples.EUCLIDEAN:
            d2 = np.abs(self.centers[:, None] - self.centers[None, :]) ** 2
            r2 = self.radii * self.radii
            out = (d2 - r2[:, None] - r2[None, :]) / (2.0 * np.outer(self.radii, self.radii))
        else:
            dots = self.centers @ self.centers.T
            cr, sr = np.cos(self.radii), np.sin(self.radii)
            out = (np.outer(cr, cr) - dots) / np.outer(sr, sr)
        np.fill_diagonal(out, -1.0)
        return out

    def realized_cos(self) -> np.ndarray:
        inv = self.inversive_matrix()
        return np.array([inv[u, v] for (u, v) in self.triangulation.edges])

    def classify_pair(self, inv: float) -> str:
        if inv > 1.0 + DISJOINT_EPS:
            return "disjoint"
        if inv >= 1.0 - DISJOINT_EPS:
            return "tangent"
        if inv > -1.0 + DISJOINT_EPS:
            return "overlapping"
        return "nested"

    def point_in_disks(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Boolean (num points, num disks) closed-disk membership matrix."""
        if self.mode == triples.EUCLIDEAN:
            d = np.abs(points[:, None] - self.centers[None, :])
            return d <= self.radii[None, :] - slack
        dots = points @ self.centers.T
        return dots >= np.cos(self.radii)[None, :] + slack


@dataclass
class VerificationReport:
    angle_max_err: float
    angle_max_err_radians: Optional[float]
    contact_graph_ok: bool
    contact_missing: List[Tuple[int, int]]
    contact_extra: List[Tuple[int, int]]
    non_adjacent_disjoint_ok: bool
    offending_pairs: List[Tuple[int, int]]
    irreducible_ok: bool
    irreducibility_witnesses: Dict[int, object]
    interstice_count: int
    interstice_samples: List[object]
    flower_ok: bool
    flower_failures: Dict[int, object]
    lens_relation_ok: bool
    lens_records: List[dict]
    empty_triple_ok: bool
    triple_failures: List[Tuple[int, int, int]]
    resolution: Dict[str, int]
    passed: bool

    def to_dict(self) -> dict:
        def point(p):
            if p is None:
                return None
            if isinstance(p, complex):
                return [p.real, p.imag]
            if isinstance(p, np.ndarray):
                return [float(x) for x in p]
            return p

        return {
            "angle_max_err": self.angle_max_err,
            "angle_max_err_radians": self.angle_max_err_radians,
            "contact_graph_ok": self.contact_graph_ok,
            "contact_missing": [list(e) for e in self.contact_missing],
            "contact_extra": [list(e) for e in self.contact_extra],
            "non_adjacent_disjoint_ok": self.non_adjacent_disjoint_ok,
            "offending_pairs": [list(e) for e in self.offending_pairs],
            "irreducible_ok": self.irreducible_ok,
            "irreducibility_witnesses": {
                str(k): point(v) for k, v in self.irreducibility_witnesses.items()
            },
            "interstice_count": self.interstice_count,
            "interstice_samples": [point(p) for p in self.interstice_samples],
            "flower_ok": self.flower_ok,
            "flower_failures": {str(k): point(v) for k, v in self.flower_failures.items()},
            "lens_relation_ok": self.lens_relation_ok,
            "lens_records": self.lens_records,
            "empty_triple_ok": self.empty_triple_ok,
            "triple_failures": [list(f) for f in self.triple_failures],
            "resolution": dict(self.resolution),
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# contact graph
# ---------------------------------------------------------------------------

def contact_graph(p: CirclePattern, eps: float = DISJOINT_EPS):
    """Edges = properly intersecting pairs (nested pairs excluded); the flag
    is true iff this equals the triangulation's edge set vertex-for-vertex."""
    inv = p.inversive_matrix()
    n = len(p.radii)
    edges: Set[Tuple[int, int]] = set()
    nested: List[Tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            if inv[u, v] < -1.0 + eps:
                nested.append((u, v))
            elif inv[u, v] <= 1.0 + eps:
                edges.add((u, v))
    want = set(p.triangulation.edges)
    missing = sorted(want - edges)
    extra = sorted(edges - want)
    return edges, not missing and not extra, missing, extra, nested


# ---------------------------------------------------------------------------
# flower cover
# ---------------------------------------------------------------------------

def _boundary_points(p: CirclePattern, v: int, count: int) -> np.ndarray:
    if p.mode == triples.EUCLIDEAN:
        ang = 2.0 * PI * np.arange(count) / count
        return p.centers[v] + p.radii[v] * np.exp(1j * ang)
    n = p.centers[v]
    k = np.zeros(3)
    k[int(np.argmin(np.abs(n)))] = 1.0
    e1 = np.cross(n, k)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    ang = 2.0 * PI * np.arange(count) / count
    circ = (
        math.cos(p.radii[v]) * n[None, :]
        + math.sin(p.radii[v]) * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)
    )
    return circ


def _interior_points(p: CirclePattern, v: int, grid: int) -> np.ndarray:
    if p.mode == triples.EUCLIDEAN:
        s = np.linspace(-1.0, 1.0, grid)
        xx, yy = np.meshgrid(s, s)
        mask = xx * xx + yy * yy < 1.0
        pts = (xx[mask] + 1j * yy[mask]) * p.radii[v] + p.centers[v]
        return pts
    # disk-parameter grid mapped to the cap by arc radius scaling
    s = np.linspace(-1.0, 1.0, grid)
    xx, yy = np.meshgrid(s, s)
    mask = xx * xx + yy * yy < 1.0
    rr = np.sqrt(xx[mask] ** 2 + yy[mask] ** 2) * p.radii[v]
    ph = np.arctan2(yy[mask], xx[mask])
    n = p.centers[v]
    k = np.zeros(3)
    k[int(np.argmin(np.abs(n)))] = 1.0
    e1 = np.cross(n, k)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return (
        np.cos(rr)[:, None] * n[None, :]
        + np.sin(rr)[:, None] * (np.cos(ph)[:, None] * e1 + np.sin(ph)[:, None] * e2)
    )


def _in_open_star(p: CirclePattern, v: int, points: np.ndarray, eps: float) -> np.ndarray:
    """Membership in the open star of v in the realized geodesic
    triangulation: inside some incident face, where the two spoke sides may
    be touched but the link side must be strictly inside."""
    t = p.triangulation
    out = np.zeros(len(points), dtype=bool)
    skip = None
    if p.mode == triples.EUCLIDEAN and p.marked_face is not None:
        skip = t.face_id_of(p.marked_face)
    for fid in t.vertex_faces[v]:
        if fid == skip:
            continue
        face = t.faces[fid]
        i = face.index(v)
        a, b = face[(i + 1) % 3], face[(i + 2) % 3]
        out |= _in_fan_triangle(p, v, a, b, points, eps)
    if skip is not None and v in p.marked_face:
        # the unbounded complement acts as the face at infinity: points of
        # no laid-out face belong to the boundary vertex's star
        out |= ~_in_any_face(p, points, eps)
    return out


def _in_fan_triangle(p, v, a, b, points, eps) -> np.ndarray:
    if p.mode == triples.EUCLIDEAN:
        A, B, C = p.centers[v], p.centers[a], p.centers[b]
        sigma = _cross2(B - A, C - A)
        scale = abs(sigma) if sigma != 0 else 1.0
        s1 = _cross2v(B - A, points - A) * np.sign(sigma)
        s2 = _cross2v(C - B, points - B) * np.sign(sigma)
        s3 = _cross2v(A - C, points - C) * np.sign(sigma)
        tol = eps * scale
        return (s1 >= -tol) & (s3 >= -tol) & (s2 > tol)
    A, B, C = p.centers[v], p.centers[a], p.centers[b]
    sigma = np.sign(np.linalg.det(np.stack([A, B, C])))
    if sigma == 0:
        return np.zeros(len(points), dtype=bool)
    s1 = points @ np.cross(A, B) * sigma
    s2 = points @ np.cross(B, C) * sigma
    s3 = points @ np.cross(C, A) * sigma
    return (s1 >= -eps) & (s3 >= -eps) & (s2 > eps)


def _in_any_face(p: CirclePattern, points, eps) -> np.ndarray:
    t = p.triangulation
    skip = t.face_id_of(p.marked_face) if p.marked_face is not None else None
    out = np.zeros(len(points), dtype=bool)
    for fid in range(t.face_count):
        if fid == skip:
            continue
        a, b, c = t.faces[fid]
        A, B, C = p.centers[a], p.centers[b], p.centers[c]
        sigma = _cross2(B - A, C - A)
        scale = abs(sigma) if sigma != 0 else 1.0
        tol = eps * scale
        s1 = _cross2v(B - A, points - A) * np.sign(sigma)
        s2 = _cross2v(C - B, points - B) * np.sign(sigma)
        s3 = _cross2v(A - C, points - C) * np.sign(sigma)
        out |= (s1 >= -tol) & (s2 >= -tol) & (s3 >= -tol)
    return out


def _cross2(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _cross2v(a: complex, b: np.ndarray) -> np.ndarray:
    return a.real * b.imag - a.imag * b.real


def flower_check(p: CirclePattern, v: int, boundary_samples: int = 4096,
                 interior_grid: int = 64, eps: float = 1e-9):
    """Sampled test of the flower inclusion at vertex v: every point of the
    disk must lie in a neighbor's open disk or in v's open star region.
    Returns (ok, witness point or None)."""
    t = p.triangulation
    nbrs = list(t.neighbors(v))
    pts_b = _boundary_points(p, v, boundary_samples)
    pts_i = _interior_points(p, v, interior_grid)
    pts = np.concatenate([pts_b, pts_i])
    in_nbr = p.point_in_disks(pts, slack=eps)[:, nbrs].any(axis=1)
    remaining = ~in_nbr
    if not remaining.any():
        return True, None
    rest = pts[remaining]
    in_star = _in_open_star(p, v, rest, eps)
    if in_star.all():
        return True, None
    witness = rest[~in_star][0]
    return False, witness


# ---------------------------------------------------------------------------
# coverage sampling
# ---------------------------------------------------------------------------

def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _euclidean_grid(p: CirclePattern, grid: int) -> Tuple[np.ndarray, int, float]:
    lo_x = float(np.min(p.centers.real - p.radii))
    hi_x = float(np.max(p.centers.real + p.radii))
    lo_y = float(np.min(p.centers.imag - p.radii))
    hi_y = float(np.max(p.centers.imag + p.radii))
    pad = 0.02 * max(hi_x - lo_x, hi_y - lo_y)
    xs = np.linspace(lo_x - pad, hi_x + pad, grid)
    ys = np.linspace(lo_y - pad, hi_y + pad, grid)
    xx, yy = np.meshgrid(xs, ys)
    return (xx + 1j * yy).ravel(), grid, float(xs[1] - xs[0])


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _clearance(p: CirclePattern, pts) -> np.ndarray:
    """Distance from each sample point to the nearest disk (negative inside)."""
    if p.mode == triples.EUCLIDEAN:
        d = np.abs(pts[:, None] - p.centers[None, :]) - p.radii[None, :]
        return d.min(axis=1)
    ang = np.arccos(np.clip(pts @ p.centers.T, -1.0, 1.0)) - p.radii[None, :]
    return ang.min(axis=1)


def count_interstices(p: CirclePattern, grid: int = 256, sphere_samples: int = 20000):
    """Connected components of the uncovered region, sampled.

    A component only counts when it contains a point farther than 1.5
    sample steps from every disk: thinner slivers (e.g. wedges pinching
    into a tangency point) are below the resolution and attach to some
    resolvable interstice in the true arrangement.  Euclidean mode counts
    the unbounded outer component as one interstice.  Returns (count, one
    deep sample point per component).
    """
    if p.mode == triples.EUCLIDEAN:
        pts, g, step = _euclidean_grid(p, grid)
        clear = _clearance(p, pts)
        free = clear > 0.0
        uf = _UnionFind(len(pts))
        idx = np.arange(len(pts)).reshape(g, g)
        freem = free.reshape(g, g)
        right = freem[:, :-1] & freem[:, 1:]
        down = freem[:-1, :] & freem[1:, :]
        for r, c in zip(*np.nonzero(right)):
            uf.union(idx[r, c], idx[r, c + 1])
        for r, c in zip(*np.nonzero(down)):
            uf.union(idx[r, c], idx[r + 1, c])
        deep_threshold = 1.5 * step
    else:
        pts = _fibonacci_sphere(sphere_samples)
        clear = _clearance(p, pts)
        free = clear > 0.0
        free_idx = np.flatnonzero(free)
        if len(free_idx) == 0:
            return 0, []
        spacing = math.sqrt(4.0 * PI / sphere_samples)
        sub = pts[free_idx]
        m = len(sub)
        uf = _UnionFind(len(pts))
        if m <= 4000:
            dots = sub @ sub.T
            thresh = math.cos(2.5 * spacing)
            ii, jj = np.nonzero(np.triu(dots > thresh, k=1))
            for a, b in zip(ii, jj):
                uf.union(int(free_idx[a]), int(free_idx[b]))
        else:
            # hash into coarse latitude bands to avoid the full m^2 matrix
            order = np.argsort(sub[:, 2])
            thresh = math.cos(2.5 * spacing)
            zs = sub[order, 2]
            for a_pos, a in enumerate(order):
                z = zs[a_pos]
                b_pos = a_pos + 1
                while b_pos < m and zs[b_pos] - z < 3.0 * spacing:
                    b = order[b_pos]
                    if float(sub[a] @ sub[b]) > thresh:
                        uf.union(int(free_idx[a]), int(free_idx[b]))
                    b_pos += 1
        deep_threshold = 1.5 * spacing

    comps: Dict[int, Tuple[float, int]] = {}
    for i in np.flatnonzero(free):
        root = uf.find(int(i))
        best = comps.get(root)
        if best is None or clear[i] > best[0]:
            comps[root] = (float(clear[i]), int(i))
    counted = [(depth, i) for depth, i in comps.values() if depth > deep_threshold]
    counted.sort(key=lambda x: -x[0])
    return len(counted), [pts[i] for _, i in counted]


def _irreducibility_witnesses(p: CirclePattern, boundary_samples: int,
                              interior_grid: int):
    """For each vertex v, a sampled point of D_v uncovered by every other
    disk (the pattern is reducible exactly when some vertex's complement
    covers the whole sphere)."""
    n = len(p.radii)
    witnesses: Dict[int, object] = {}
    ok = True
    for v in range(n):
        pts_b = _boundary_points(p, v, boundary_samples)
        pts_i = _interior_points(p, v, interior_grid)
        pts = np.concatenate([pts_b, pts_i])
        others = [u for u in range(n) if u != v]
        covered = p.point_in_disks(pts, slack=-1e-12)[:, others].any(axis=1)
        free = np.flatnonzero(~covered)
        if len(free):
            witnesses[v] = pts[free[0]]
        else:
            witnesses[v] = None
            ok = False
    return ok, witnesses


# ---------------------------------------------------------------------------
# the full verification
# ---------------------------------------------------------------------------

def verify_pattern(p: CirclePattern, tol: float = 1e-8,
                   boundary_samples: int = 4096, interior_grid: int = 256,
                   sphere_samples: int = 20000) -> VerificationReport:
    """Check a claimed pattern against its defining properties.

    (a) realized exterior angles match the prescription (cosine chart, with
        the radian chart additionally checked away from tangency);
    (b) non-adjacent disk pairs are disjoint;
    (c) irreducibility, by the one-vertex-removed reduction, at sampling
        resolution;
    (d) interstice count by uncovered-region sampling;
    (e) flower cover at every vertex;
    (f) lens containments among adjacent triples obey the angle relation;
    (g) face triples with angle sum below pi have empty triple intersection.
    """
    t = p.triangulation
    inv = p.inversive_matrix()

    target = p.theta.array()
    realized = np.array([inv[u, v] for (u, v) in t.edges])
    cos_err = float(np.max(np.abs(realized - np.cos(target))))
    rad_errs = []
    for eid, (u, v) in enumerate(t.edges):
        if target[eid] >= SMALL_ANGLE and abs(realized[eid]) <= 1.0 + triples.CLAMP_EPS:
            rad_errs.append(
                abs(math.acos(min(1.0, max(-1.0, realized[eid]))) - target[eid])
            )
    rad_err = float(max(rad_errs)) if rad_errs else None
    angle_ok = cos_err <= tol and (rad_err is None or rad_err <= tol)

    _, graph_ok, missing, extra, _nested = contact_graph(p)

    offending = []
    for u in range(t.vertex_count):
        for v in range(u + 1, t.vertex_count):
            if not t.has_edge(u, v) and inv[u, v] < 1.0 - DISJOINT_EPS:
                offending.append((u, v))
    disjoint_ok = not offending

    interstice_count, samples = count_interstices(
        p, grid=interior_grid, sphere_samples=sphere_samples
    )

    if p.mode == triples.EUCLIDEAN:
        # bounded disks never cover the sphere: the point at infinity
        # witnesses irreducibility for every one-removed subfamily
        irr_ok = True
        _, witnesses = _irreducibility_witnesses(p, boundary_samples // 8,
                                                 interior_grid // 4)
    else:
        irr_ok, witnesses = _irreducibility_witnesses(
            p, boundary_samples, interior_grid
        )

    flower_failures: Dict[int, object] = {}
    for v in range(t.vertex_count):
        ok, witness = flower_check(p, v, boundary_samples=boundary_samples // 4,
                                   interior_grid=max(24, interior_grid // 8))
        if not ok:
            flower_failures[v] = witness
    flower_ok = not flower_failures

    lens_records = []
    lens_ok = True
    for tri in _adjacent_triples(t):
        cs = [p.centers[v] for v in tri]
        rs = [p.radii[v] for v in tri]
        try:
            records = triples.containment_angle_check(p.mode, cs, rs, tol=1e-9)
        except triples.NotMutuallyIntersecting:
            continue
        for rec in records:
            if rec.contained:
                entry = {
                    "triple": list(tri),
                    "pair": [tri[rec.pair[0]], tri[rec.pair[1]]],
                    "third": tri[rec.third],
                    "lhs": rec.lhs,
                    "rhs": rec.rhs,
                    "holds": rec.relation_holds,
                }
                lens_records.append(entry)
                if not rec.relation_holds:
                    lens_ok = False

    triple_failures = []
    for fid in range(t.face_count):
        face = t.faces[fid]
        s = sum(p.theta[e] for e in t.face_edge_ids(fid))
        if compare(s, PI) < 0:
            cs = [p.centers[v] for v in face]
            rs = [p.radii[v] for v in face]
            if not triples.triple_intersection_empty(p.mode, cs, rs):
                triple_failures.append(face)
    triple_ok = not triple_failures

    passed = (
        angle_ok and graph_ok and disjoint_ok and irr_ok and flower_ok
        and lens_ok and triple_ok
    )
    return VerificationReport(
        angle_max_err=cos_err,
        angle_max_err_radians=rad_err,
        contact_graph_ok=graph_ok,
        contact_missing=list(missing),
        contact_extra=list(extra),
        non_adjacent_disjoint_ok=disjoint_ok,
        offending_pairs=offending,
        irreducible_ok=irr_ok,
        irreducibility_witnesses=witnesses,
        interstice_count=interstice_count,
        interstice_samples=samples[:16],
        flower_ok=flower_ok,
        flower_failures=flower_failures,
        lens_relation_ok=lens_ok,
        lens_records=lens_records,
        empty_triple_ok=triple_ok,
        triple_failures=triple_failures,
        resolution={
            "boundary_samples": boundary_samples,
            "interior_grid": interior_grid,
            "sphere_samples": sphere_samples,
        },
        passed=passed,
    )


def _adjacent_triples(t: Triangulation) -> List[Tuple[int, int, int]]:
    """All 3-cliques of the 1-skeleton (faces and separating triangles)."""
    out = []
    for u in range(t.vertex_count):
        nbrs = [w for w in t.neighbors(u) if w > u]
        for a, b in itertools.combinations(sorted(nbrs), 2):
            if t.has_edge(a, b):
                out.append((u, a, b))
    return out
