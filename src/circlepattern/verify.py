"""Independent post-hoc verification of a claimed circle pattern.

Every check works only from the circles and the combinatorial data, never
from solver internals: realized angles are recomputed from inversive
distances, interstices are certified face by face at the radical centre
of the face's three circles, irreducibility is decided exactly by arc
coverage (one test point per arc of the circle arrangement near each
disk), the flower cover is sampled at a configurable resolution, and the
three-circle relations are tested with the exact arrangement primitives.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .conditions import AngleAssignment, compare
from .configurations import EuclideanConfiguration, SphericalConfiguration
from .errors import MalformedPattern
from .triangulation import Triangulation, cycle_arrays
from . import triples

PI = math.pi
DISJOINT_EPS = 1e-9      # inversive slack distinguishing overlap from contact
COVER_SLACK = 1e-12      # a sample this close to another disk counts as covered
WITNESS_ROUNDING = 8.0 * np.finfo(float).eps  # planar witness slack, relative to |p|+|c|+r
SMALL_ANGLE = 1e-3       # below this the radian angle chart is ill-conditioned
FACE_TEST_CHUNK = 1 << 16  # face-sample pairs tested at once in _in_any_face


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
        return self.inversive_matrix()[tuple(self.triangulation.edge_array.T)]

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
        return _in_disks(self, points, np.arange(len(self.radii)), slack)


def _in_disks(p: CirclePattern, points: np.ndarray, disks, slack: float) -> np.ndarray:
    """Columns ``disks`` of ``p.point_in_disks(points, slack)``, for those disks only."""
    if p.mode == triples.EUCLIDEAN:
        d = np.abs(points[:, None] - p.centers[None, disks])
        return d <= p.radii[None, disks] - slack
    # BLAS rounds a one-column product unlike a column of a wider one: pad to two
    cols = np.resize(disks, max(len(disks), 2)) if len(disks) else disks
    dots = (points @ p.centers[cols].T)[:, :len(disks)]
    return dots >= np.cos(p.radii[disks])[None, :] + slack


def _upper_pairs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """The pairs (u, v), u < v, where the square ``mask`` holds, row-major."""
    iu, iv = np.triu_indices(len(mask), 1)
    keep = mask[iu, iv]
    return list(zip(iu[keep].tolist(), iv[keep].tolist()))


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
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(x):
    """JSON-ready copy: points and tuples become lists, dict keys strings."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return [float(c) for c in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# contact graph
# ---------------------------------------------------------------------------

def contact_graph(p: CirclePattern, eps: float = DISJOINT_EPS):
    """Edges = properly intersecting pairs (nested pairs excluded); the flag
    is true iff this equals the triangulation's edge set vertex-for-vertex."""
    inv = p.inversive_matrix()
    is_nested = inv < -1.0 + eps
    nested = _upper_pairs(is_nested)
    edges: Set[Tuple[int, int]] = set(_upper_pairs(~is_nested & (inv <= 1.0 + eps)))
    want = set(p.triangulation.edges)
    missing = sorted(want - edges)
    extra = sorted(edges - want)
    return edges, not missing and not extra, missing, extra, nested


# ---------------------------------------------------------------------------
# flower cover
# ---------------------------------------------------------------------------

def _boundary_points(p: CirclePattern, v: int, count: int) -> np.ndarray:
    ang = 2.0 * PI * np.arange(count) / count
    if p.mode == triples.EUCLIDEAN:
        return p.centers[v] + p.radii[v] * np.exp(1j * ang)
    n = p.centers[v]
    (e1,), (e2,) = triples.tangent_frames(n)
    return (
        math.cos(p.radii[v]) * n[None, :]
        + math.sin(p.radii[v]) * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)
    )


@functools.lru_cache(maxsize=8)
def _unit_disk_grid(grid: int) -> Tuple[np.ndarray, ...]:
    """The grid points inside the open unit disk, as complex numbers, with
    their polar radius and the cosine and sine of their polar angle."""
    s = np.linspace(-1.0, 1.0, grid)
    xx, yy = np.meshgrid(s, s)
    mask = xx * xx + yy * yy < 1.0
    x, y = xx[mask], yy[mask]
    ph = np.arctan2(y, x)
    out = (x + 1j * y, np.sqrt(x ** 2 + y ** 2), np.cos(ph), np.sin(ph))
    for a in out:
        a.flags.writeable = False  # shared by every caller
    return out


def _interior_points(p: CirclePattern, v: int, grid: int) -> np.ndarray:
    unit, rho, cos_ph, sin_ph = _unit_disk_grid(grid)
    if p.mode == triples.EUCLIDEAN:
        return unit * p.radii[v] + p.centers[v]
    # disk-parameter grid mapped to the cap by arc radius scaling
    rr = rho * p.radii[v]
    n = p.centers[v]
    (e1,), (e2,) = triples.tangent_frames(n)
    cos_rr, sin_rr = np.cos(rr), np.sin(rr)
    out = np.empty((len(rr), 3))
    for k in range(3):  # column by column: cheaper than (m, 1) x (3,) broadcasts
        out[:, k] = cos_rr * n[k] + sin_rr * (cos_ph * e1[k] + sin_ph * e2[k])
    return out


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
        s1, s2, s3, tol = _planar_sides(p.centers[[v, a, b]], points, eps)
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
    """Membership in some closed laid-out face, for all faces at once (a
    face per row, in chunks of about FACE_TEST_CHUNK entries).  Per chunk,
    only the faces that can hold a point of the chunk's bounding box are
    tested."""
    t = p.triangulation
    skip = t.face_id_of(p.marked_face) if p.marked_face is not None else None
    corners = p.centers[[f for fid, f in enumerate(t.faces) if fid != skip]].T[:, :, None]
    step = max(1, FACE_TEST_CHUNK // corners.shape[1])
    out = np.zeros(len(points), dtype=bool)
    for lo in range(0, len(points), step):
        chunk = points[lo:lo + step]
        s1, s2, s3, tol = _planar_sides(corners[:, _faces_meeting_box(corners, chunk, eps)],
                                        chunk, eps)
        out[lo:lo + step] = ((s1 >= -tol) & (s2 >= -tol) & (s3 >= -tol)).any(axis=0)
    return out


def _faces_meeting_box(corners, points, eps) -> np.ndarray:
    """The faces whose three side functions, as in ``_planar_sides``, reach
    their tolerance somewhere on the bounding box of ``points``.  A side
    function is linear, so its largest value on the box is at one corner;
    the margin bounds the rounding of evaluating it there and at a point."""
    A, B, C = (x[:, 0] for x in corners)
    sigma = _cross2(B - A, C - A)
    sign, tol = np.sign(sigma), eps * np.where(sigma != 0, np.abs(sigma), 1.0)
    x0, x1, y0, y1 = points.real.min(), points.real.max(), points.imag.min(), points.imag.max()
    reach = max(abs(x0), abs(x1), abs(y0), abs(y1))
    keep = np.ones(len(A), dtype=bool)
    for P, Q in ((A, B), (B, C), (C, A)):
        a, b = sign * (Q - P).real, -sign * (Q - P).imag
        top = a * (np.where(a > 0, y1, y0) - P.imag) + b * (np.where(b > 0, x1, x0) - P.real)
        margin = 8.0 * np.finfo(float).eps * (np.abs(a) + np.abs(b)) * (reach + np.abs(P))
        keep &= top >= -tol - margin
    return keep


def _planar_sides(corners, points, eps):
    """Cross products of the sides AB, BC, CA of the triangle ABC with the
    points, signed positive inside, and ``eps`` scaled by the triangle.
    The corners may be columns of triangles, one triangle per row."""
    A, B, C = corners
    sigma = _cross2(B - A, C - A)
    sign = np.sign(sigma)
    return (_cross2(B - A, points - A) * sign, _cross2(C - B, points - B) * sign,
            _cross2(A - C, points - C) * sign, eps * np.where(sigma != 0, np.abs(sigma), 1.0))


def _cross2(a, b):
    return a.real * b.imag - a.imag * b.real


def flower_check(p: CirclePattern, v: int, boundary_samples: int = 4096,
                 interior_grid: int = 64, eps: float = 1e-9):
    """Sampled test of the flower inclusion at vertex v: every point of the
    disk must lie in a neighbor's open disk or in v's open star region.
    Returns (ok, witness point or None)."""
    pts = np.concatenate([_boundary_points(p, v, boundary_samples),
                          _interior_points(p, v, interior_grid)])
    rest = pts[~_in_disks(p, pts, np.array(p.triangulation.neighbors(v)), eps).any(axis=1)]
    if not len(rest):
        return True, None
    in_star = _in_open_star(p, v, rest, eps)
    if in_star.all():
        return True, None
    witness = rest[~in_star][0]
    return False, witness


# ---------------------------------------------------------------------------
# interstices
# ---------------------------------------------------------------------------

def _face_witnesses(p: CirclePattern) -> List[object]:
    """Per face, a point of the face's interstice, or None.

    The candidate is the radical centre of the face's three circles: in
    the plane the point of equal power, from two linear equations relative
    to the centre of the face's smallest circle; on the sphere the unit point over the solution x
    of c . x = cos r, on the side of the centres for a positively oriented
    face and on the far side for a negatively oriented one.  It lies
    outside the three disks exactly when their triple intersection is
    empty, and it witnesses the face when no disk covers it.  In the plane
    the marked face is the unbounded region, witnessed by a point beyond
    every disk.  Faces whose centres are collinear (plane) or coplanar
    with the origin (sphere) have no radical centre and no witness.
    """
    t = p.triangulation
    faces = np.array(t.faces)
    c, r = p.centers[faces], p.radii[faces]
    if p.mode == triples.EUCLIDEAN:
        # relative to the face's smallest circle, near which the point lies:
        # from a big circle's centre the system is ill-conditioned when the
        # other two are tiny, and the rounding exceeds the interstice
        roll = (np.argmin(r, axis=1)[:, None] + np.arange(3)) % 3
        c, r = np.take_along_axis(c, roll, axis=1), np.take_along_axis(r, roll, axis=1)
        a, b = c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
        pa = 0.5 * (np.abs(a) ** 2 + r[:, 0] ** 2 - r[:, 1] ** 2)
        pb = 0.5 * (np.abs(b) ** 2 + r[:, 0] ** 2 - r[:, 2] ** 2)
        det = _cross2(a, b)
        ok = det != 0
        pts = np.zeros(len(c), dtype=complex)
        pts[ok] = c[ok, 0] + 1j * (pb[ok] * a[ok] - pa[ok] * b[ok]) / det[ok]
        fid = t.face_id_of(p.marked_face or ())
        if fid is not None:
            pts[fid], ok[fid] = np.max(p.centers.real + 2.0 * p.radii), True
    else:
        x, det = triples.cap_plane_points(c, r)
        norm = np.linalg.norm(x, axis=1)
        ok = (det != 0) & (norm > 0)
        pts = np.zeros((len(c), 3))
        pts[ok] = x[ok] * (np.sign(det[ok]) / norm[ok])[:, None]
        flip = np.einsum("ij,ij->i", pts, c.sum(axis=1)) * det < 0
        pts[flip] *= -1.0
    # every disk, in chunks of about FACE_TEST_CHUNK face-disk pairs; in the
    # plane to rounding, as interstices by tiny circles are thinner than COVER_SLACK
    rows, step = np.flatnonzero(ok), max(1, FACE_TEST_CHUNK // len(p.radii))
    for lo in range(0, len(rows), step):
        part, slack = rows[lo:lo + step], -COVER_SLACK
        if p.mode == triples.EUCLIDEAN:
            slack = -WITNESS_ROUNDING * (np.abs(pts[part])[:, None] + np.abs(p.centers) + p.radii)
        ok[part] = ~p.point_in_disks(pts[part], slack).any(axis=1)
    return [pts[f] if ok[f] else None for f in range(len(c))]


def count_interstices(p: CirclePattern, grid: int = 256, sphere_samples: int = 20000):
    """The number of faces with a witnessed interstice, and the witnesses
    in face order (see ``_face_witnesses``).  ``grid`` and
    ``sphere_samples`` are accepted for compatibility and unused."""
    witnesses = [w for w in _face_witnesses(p) if w is not None]
    return len(witnesses), witnesses


def _near_disks(p: CirclePattern, v: int, slack: float) -> np.ndarray:
    """The disks u != v whose closed disk, grown by the membership slack and
    a rounding margin, meets D_v: only they can hold a sample of D_v.  The
    slack is absolute, so on the sphere it is turned into an angle, which
    for tiny caps is far larger than the slack itself."""
    if p.mode == triples.EUCLIDEAN:
        gap = np.abs(p.centers - p.centers[v]) - p.radii - p.radii[v]
        scale = abs(p.centers[v]) + p.radii[v] + np.abs(p.centers) + p.radii
        near = gap <= -slack + 1e-9 * scale
    else:
        grown = np.arccos(np.clip(np.cos(p.radii) + slack, -1.0, 1.0))
        c = p.centers[v]
        apart = np.arctan2(np.linalg.norm(np.cross(p.centers, c), axis=1), p.centers @ c)
        near = apart <= grown + p.radii[v] + 1e-8
    near[v] = False
    return np.flatnonzero(near)


def _irreducibility_witnesses(p: CirclePattern):
    """For each vertex v, a point of D_v that no other disk covers, or None
    (the pattern is reducible exactly when some D_v is covered by the rest).

    The test is exact, by the perimeter criterion (Huang & Tseng, *The
    coverage problem in a wireless sensor network*, 2005).  The circles are
    dD_v and those of the near disks, grown by COVER_SLACK as in the
    membership test.  Where D_v is not covered, the uncovered part is
    bounded by arcs of these circles, and membership is constant along each
    arc between consecutive crossings; so one midpoint per arc decides it,
    for all vertices at once.  The witness is the free midpoint of dD_v
    with the largest clearance, else such a midpoint inside D_v on a near
    circle, moved off that circle by half its clearance (on the sphere at
    most halfway to the centre of the cap's outside).  Clearances are
    distances in the plane and cosine gaps on the sphere, both 1-Lipschitz
    in the distance moved.  A witness must pass the all-disk membership
    test.
    """
    n = len(p.radii)
    near = [_near_disks(p, v, -COVER_SLACK) for v in range(n)]
    # one row per (vertex, circle), the vertex's own circle first
    size = np.array([1 + len(s) for s in near])
    start = np.cumsum(size) - size
    owner = np.repeat(np.arange(n), size)
    disk = np.insert(np.concatenate(near), start - np.arange(n), np.arange(n))
    own = np.arange(len(disk)) == start[owner]
    grow = np.where(own, 0.0, COVER_SLACK)
    c = p.centers[disk]
    sphere = p.mode == triples.SPHERICAL
    if sphere:
        versine = 2.0 * np.sin(0.5 * p.radii[disk]) ** 2 + grow  # 1 - cos R, no cancellation
        R = 2.0 * np.arcsin(np.sqrt(np.minimum(0.5 * versine, 1.0)))
        kappa = np.cos(p.radii[disk]) - grow  # the membership threshold on c . x
        e1, e2 = (e[disk] for e in triples.tangent_frames(p.centers))
    else:
        R = p.radii[disk] + grow

    def on_circle(rows, ang, extra=0.0):
        if not sphere:
            return c[rows] + (R[rows] + extra) * np.exp(1j * ang)
        t = R[rows] + extra
        return (np.cos(t)[:, None] * c[rows] + np.sin(t)[:, None]
                * (np.cos(ang)[:, None] * e1[rows] + np.sin(ang)[:, None] * e2[rows]))

    # crossings of each row's circle with the other circles of its vertex,
    # at angles phi0 +- alpha with cos(alpha) = num / den
    i, j = _owner_rows(owner, start, size)
    i, j = i[i != j], j[i != j]
    if sphere:
        a1 = np.einsum("ij,ij->i", e1[i], c[j])
        a2 = np.einsum("ij,ij->i", e2[i], c[j])
        apart = 0.5 * np.einsum("ij,ij->i", c[i] - c[j], c[i] - c[j])  # 1 - c_i . c_j
        num = versine[i] * (1.0 - apart) + apart - versine[j]
        den = np.sin(R[i]) * np.hypot(a1, a2)
        phi0 = np.arctan2(a2, a1)
    else:
        dc = c[j] - c[i]
        d = np.abs(dc)
        num = R[i] ** 2 + (d - R[j]) * (d + R[j])
        den = 2.0 * R[i] * d
        phi0 = np.angle(dc)
    cut = (den > 0) & (np.abs(num) <= den)
    alpha = np.arccos(num[cut] / den[cut])
    ang = np.concatenate([phi0[cut] - alpha, phi0[cut] + alpha]) % (2.0 * PI)
    row = np.tile(i[cut], 2)

    # one midpoint per arc, the last arc of a circle ending at its first
    # crossing; a circle without crossings is one arc
    order = np.lexsort((ang, row))
    ang, row = ang[order], row[order]
    last = np.diff(row, append=-1) != 0
    after = np.where(last, ang[np.searchsorted(row, row)] + 2.0 * PI, np.r_[ang[1:], 0.0])
    bare = np.ones(len(disk), dtype=bool)  # a mask: setdiff1d would import numpy.ma
    bare[row] = False
    mid_row = np.r_[row, np.flatnonzero(bare)]
    mid_ang = np.r_[0.5 * (ang + after), np.zeros(len(mid_row) - len(row))]
    mid = on_circle(mid_row, mid_ang)

    # clearance: the least margin outside the other near disks and inside D_v
    k, j = _owner_rows(owner[mid_row], start, size)
    k, j = k[j != mid_row[k]], j[j != mid_row[k]]
    if sphere:
        gap = kappa[j] - np.einsum("ij,ij->i", mid[k], c[j])
    else:
        gap = np.abs(mid[k] - c[j]) - R[j]
    clear = np.full(len(mid), np.inf)
    np.minimum.at(clear, k, np.where(own[j], -gap, gap))

    # per vertex the free midpoint on dD_v, else on a near circle, of largest clearance
    cand = np.flatnonzero(clear > 0)
    cand = cand[np.lexsort((clear[cand], own[mid_row[cand]], owner[mid_row[cand]]))]
    vs = owner[mid_row[cand]]
    best = cand[np.diff(vs, append=-1) != 0]
    vs, rows = owner[mid_row[best]], mid_row[best]
    move = 0.5 * clear[best]
    if sphere:  # a cap's outside is a cap too: stop short of its centre
        move = np.minimum(move, 0.5 * (PI - R[rows]))
    w = on_circle(rows, mid_ang[best], np.where(own[rows], 0.0, move))
    inside = p.point_in_disks(w, -COVER_SLACK)
    good = inside[np.arange(len(vs)), vs] & (inside.sum(axis=1) == 1)
    witnesses: Dict[int, object] = dict.fromkeys(range(n))
    witnesses.update((int(v), x) for v, x, g in zip(vs, w, good) if g)
    return all(x is not None for x in witnesses.values()), witnesses


def _owner_rows(owners: np.ndarray, start: np.ndarray, size: np.ndarray):
    """Index pairs (a, b) pairing each item a with every row b of its
    owner, whose rows are start[owner] .. start[owner] + size[owner] - 1."""
    counts = size[owners]
    a = np.repeat(np.arange(len(owners)), counts)
    b = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start[owners], counts)
    return a, b


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
    (c) irreducibility, by the one-vertex-removed reduction: exactly, by
        arc coverage, with a witness point per uncovered disk (in the
        plane the point at infinity keeps every subfamily irreducible);
    (d) interstices: the faces whose radical centre no disk covers (in the
        plane the marked face is the unbounded region) must be exactly the
        faces with angle sum below pi, faces within COND_EPS of pi exempt;
    (e) flower cover at every vertex;
    (f) lens containments among adjacent triples obey the angle relation;
    (g) face triples with angle sum below pi have empty triple intersection.

    ``boundary_samples`` and ``interior_grid`` set the flower samples;
    ``sphere_samples`` is unused and only recorded in ``resolution``.
    """
    t = p.triangulation
    inv = p.inversive_matrix()

    target = p.theta.array()
    realized = inv[tuple(t.edge_array.T)]
    cos_err = float(np.max(np.abs(realized - np.cos(target))))
    rad_errs = [abs(math.acos(min(1.0, max(-1.0, realized[e]))) - target[e])
                for e in range(t.edge_count)
                if target[e] >= SMALL_ANGLE and abs(realized[e]) <= 1.0 + triples.CLAMP_EPS]
    rad_err = float(max(rad_errs)) if rad_errs else None
    angle_ok = cos_err <= tol and (rad_err is None or rad_err <= tol)

    _, graph_ok, missing, extra, _nested = contact_graph(p)

    adjacent = np.zeros(inv.shape, dtype=bool)
    adjacent[tuple(t.edge_array.T)] = True
    offending = _upper_pairs(~adjacent & (inv < 1.0 - DISJOINT_EPS))
    disjoint_ok = not offending

    # one interstice per face with angle sum below pi, none above
    face_cmp = [compare(sum(p.theta[e] for e in t.face_edge_ids(fid)), PI)
                for fid in range(t.face_count)]
    face_witnesses = _face_witnesses(p)
    samples = [w for w in face_witnesses if w is not None]
    interstice_ok = all((w is not None) == (c < 0)
                        for w, c in zip(face_witnesses, face_cmp) if c != 0)

    irr_ok, witnesses = _irreducibility_witnesses(p)
    if p.mode == triples.EUCLIDEAN:
        # bounded disks never cover the sphere: the point at infinity
        # witnesses irreducibility for every one-removed subfamily
        irr_ok = True

    flower_failures: Dict[int, object] = {}
    for v in range(t.vertex_count):
        ok, witness = flower_check(p, v, boundary_samples=boundary_samples // 4,
                                   interior_grid=max(24, interior_grid // 8))
        if not ok:
            flower_failures[v] = witness
    flower_ok = not flower_failures

    lens_records = []
    # every 3-clique of the 1-skeleton: faces and separating triangles
    for tri in cycle_arrays(t, 3)[0]["vertices"].tolist():
        cs = [p.centers[v] for v in tri]
        rs = [p.radii[v] for v in tri]
        try:
            records = triples.containment_angle_check(p.mode, cs, rs, tol=1e-9)
        except triples.NotMutuallyIntersecting:
            continue
        lens_records += [
            {"triple": list(tri), "pair": [tri[rec.pair[0]], tri[rec.pair[1]]],
             "third": tri[rec.third], "lhs": rec.lhs, "rhs": rec.rhs,
             "holds": rec.relation_holds}
            for rec in records if rec.contained
        ]
    lens_ok = all(rec["holds"] for rec in lens_records)

    triple_failures = [
        face for face, c in zip(t.faces, face_cmp)
        if c < 0 and not triples.triple_intersection_empty(
            p.mode, [p.centers[v] for v in face], [p.radii[v] for v in face])
    ]
    triple_ok = not triple_failures

    passed = (
        angle_ok and graph_ok and disjoint_ok and irr_ok and interstice_ok
        and flower_ok and lens_ok and triple_ok
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
        interstice_count=len(samples),
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
