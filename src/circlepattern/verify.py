"""Independent post-hoc verification of a claimed circle pattern.

Every check works only from the circles and the combinatorial data, never
from solver internals, and none samples: realized angles are recomputed
from inversive distances, interstices are certified face by face at the
radical centre of the face's three circles, irreducibility and the flower
cover are decided exactly by arc coverage (one test point per arc of the
circle arrangement around each disk), and the three-circle relations are
decided for all 3-cliques (faces) at once by the row-wise ``triples`` tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import compress
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .configurations import (  # CirclePattern keeps its old name here
    DISJOINT_EPS,
    CirclePattern,
    EuclideanConfiguration,
    SphericalConfiguration,
    _holding_pairs,
    chords,
    distances,
    near_pairs,
)
from .cycles import cycle_arrays
from .triangulation import _owner_rows, face_sums
from . import triples

PI = math.pi
COVER_SLACK = 1e-12      # a point this close to another disk counts as covered
WITNESS_ROUNDING = 8.0 * np.finfo(float).eps  # witness slack, relative to |p|+|c|+chord
FLOWER_SLACK = 1e-9      # the flower check's eps: a length by which neighbours must cover


@dataclass
class VerificationReport:
    """Outcome of each verify_pattern check, with its evidence, and whether all passed."""

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
    reach = chords(p.mode, p.radii) * (1.0 + max(eps, 0.0))  # I <= 1 + eps
    u, v = near_pairs(p.mode, p.centers, reach)
    inv = triples.inversive(p.mode, p.centers, p.radii, np.column_stack((u, v)))
    pairs = list(zip(u.tolist(), v.tolist()))
    edges: Set[Tuple[int, int]] = set(compress(pairs, (inv >= -1.0 + eps) & (inv <= 1.0 + eps)))
    want = set(p.triangulation.edges)
    missing = sorted(want - edges)
    extra = sorted(edges - want)
    return edges, not missing and not extra, missing, extra, list(compress(pairs, inv < -1.0 + eps))


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
    # covered to rounding, as interstices by tiny circles are thinner than COVER_SLACK
    rows = np.flatnonzero(ok)
    ok[rows[_holding_pairs(p, pts[rows], 0.0, WITNESS_ROUNDING)[0]]] = False
    return [pts[f] if ok[f] else None for f in range(len(c))]


def count_interstices(p: CirclePattern, grid: int = 256, sphere_samples: int = 20000):
    """The number of faces with a witnessed interstice, and the witnesses in
    face order (see ``_face_witnesses``); ``grid`` and ``sphere_samples`` are unused."""
    witnesses = [w for w in _face_witnesses(p) if w is not None]
    return len(witnesses), witnesses


# ---------------------------------------------------------------------------
# circle arrangements: irreducibility and the flower cover
# ---------------------------------------------------------------------------

class _Circles:
    """The circles around each vertex of ``vs``, one row per (vertex,
    circle): dD_v first, then those of its ``count[k]`` disks, next in the
    flat ``near``, their reach ``rho`` the chord grown by ``grow``, a length
    in both geometries.  Membership in these disks is constant along each
    arc between crossings, so one point per arc decides it (the perimeter
    criterion of Huang & Tseng, *The coverage problem in a wireless sensor
    network*, 2005)."""

    def __init__(self, p: CirclePattern, vs: np.ndarray, count: np.ndarray, near: np.ndarray,
                 grow: float):
        self.size = 1 + count
        self.start = np.cumsum(self.size) - self.size
        self.owner = np.repeat(np.arange(len(vs)), self.size)
        disk = np.insert(near, self.start - np.arange(len(vs)), vs)
        self.own = np.arange(len(disk)) == self.start[self.owner]
        g = np.where(self.own, 0.0, grow)
        self.c = p.centers[disk]
        self.R = self.rho = chords(p.mode, p.radii[disk]) + g
        self.sphere = p.mode == triples.SPHERICAL
        if self.sphere:  # for the arcs only: R an angle, versine 1 - cos R without cancellation
            self.versine = 0.5 * self.rho ** 2
            self.R = 2.0 * np.arcsin(np.clip(0.5 * self.rho, 0.0, 1.0))
            self.e1, self.e2 = triples.tangent_frames(self.c)

    def at(self, rows, ang, extra=0.0):
        """The points at angles ``ang`` on the circles ``rows``, grown by ``extra``."""
        t = self.R[rows] + extra
        if not self.sphere:
            return self.c[rows] + t * np.exp(1j * ang)
        return (np.cos(t)[:, None] * self.c[rows] + np.sin(t)[:, None]
                * (np.cos(ang)[:, None] * self.e1[rows] + np.sin(ang)[:, None] * self.e2[rows]))

    def crossings(self):
        """(row, angle) of each crossing of a circle with another of its vertex."""
        i, j = _owner_rows(self.owner, self.start, self.size)
        i, j = i[i != j], j[i != j]
        c, R = self.c, self.R
        if self.sphere:
            a1 = np.einsum("ij,ij->i", self.e1[i], c[j])
            a2 = np.einsum("ij,ij->i", self.e2[i], c[j])
            apart = 0.5 * np.einsum("ij,ij->i", c[i] - c[j], c[i] - c[j])  # 1 - c_i . c_j
            num = self.versine[i] * (1.0 - apart) + apart - self.versine[j]
            den = np.sin(R[i]) * np.hypot(a1, a2)
            phi0 = np.arctan2(a2, a1)
        else:
            dc = c[j] - c[i]
            d = np.abs(dc)
            num = R[i] ** 2 + (d - R[j]) * (d + R[j])
            den = 2.0 * R[i] * d
            phi0 = np.angle(dc)
        k, ang = _cos_roots(num, den, phi0)
        return i[k], ang

    def side_crossings(self, rows, a, b):
        """(row, angle) of each crossing of the circle ``rows[k]`` with the
        segment (minor great-circle arc on the sphere) from a[k] to b[k]."""
        c, R = self.c[rows], self.R[rows]
        if self.sphere:
            m = np.cross(a, b)  # the normal of the side's great circle
            b1 = np.einsum("ij,ij->i", self.e1[rows], m)
            b2 = np.einsum("ij,ij->i", self.e2[rows], m)
            k, ang = _cos_roots((self.versine[rows] - 1.0) * np.einsum("ij,ij->i", c, m),
                                np.sin(R) * np.hypot(b1, b2), np.arctan2(b2, b1))
            x, m = self.at(rows[k], ang), m[k]
            on = ((np.einsum("ij,ij->i", np.cross(a[k], x), m) >= 0)
                  & (np.einsum("ij,ij->i", np.cross(x, b[k]), m) >= 0))
        else:
            d = b - a
            k, ang = _cos_roots(-_cross2(d, c - a), R * np.abs(d), np.angle(1j * d))
            s = (np.conj(d[k]) * (self.at(rows[k], ang) - a[k])).real
            on = (s >= 0) & (s <= np.abs(d[k]) ** 2)
        return rows[k[on]], ang[on]

    def arc_points(self, cut_row=np.empty(0, np.intp), cut_ang=np.empty(0)):
        """(rows, angles, points, clearance) of a midpoint per arc between the
        crossings and the extra cuts, then of those cuts."""
        row, ang = self.crossings()
        mid_row, mid_ang = _arc_midpoints(len(self.R), np.r_[row, cut_row], np.r_[ang, cut_ang])
        rows, ang = np.r_[mid_row, cut_row], np.r_[mid_ang, cut_ang]
        pts = self.at(rows, ang)
        return rows, ang, pts, self.clearance(rows, pts)

    def freest(self, rows, clear, idx, *prefer):
        """Of the points ``idx``, on the circles ``rows``, the one of largest
        clearance per vertex, after the keys ``prefer``, in vertex order."""
        idx = idx[np.lexsort((clear[idx], *(k[idx] for k in prefer), self.owner[rows[idx]]))]
        return idx[np.diff(self.owner[rows[idx]], append=-1) != 0]

    def clearance(self, rows, pts):
        """Per point on the circle ``rows``, its least margin inside D_v and
        outside the other disks of its vertex, positive when it is free: a
        length, 1-Lipschitz in the move."""
        k, j = _owner_rows(self.owner[rows], self.start, self.size)
        k, j = k[j != rows[k]], j[j != rows[k]]
        gap = distances(pts[k] - self.c[j]) - self.rho[j]
        clear = np.full(len(pts), np.inf)
        np.minimum.at(clear, k, np.where(self.own[j], -gap, gap))
        return clear


def _cos_roots(num, den, phi0):
    """(k, phi), two per k, for phi in [0, 2 pi) with den cos(phi - phi0) = num."""
    k = np.flatnonzero((den > 0) & (np.abs(num) <= den))
    alpha = np.arccos(num[k] / den[k])
    return np.tile(k, 2), np.concatenate([phi0[k] - alpha, phi0[k] + alpha]) % (2.0 * PI)


def _arc_midpoints(rows: int, row: np.ndarray, ang: np.ndarray):
    """(row, angle) of one midpoint per arc of ``rows`` circles cut at (``row``, ``ang``):
    the last arc of a circle ends at its first cut, a circle without cuts is one arc."""
    order = np.lexsort((ang, row))
    ang, row = ang[order], row[order]
    last = np.diff(row, append=-1) != 0
    after = np.where(last, ang[np.searchsorted(row, row)] + 2.0 * PI, np.r_[ang[1:], 0.0])
    bare = np.ones(rows, dtype=bool)  # a mask: setdiff1d would import numpy.ma
    bare[row] = False
    mid_row = np.r_[row, np.flatnonzero(bare)]
    return mid_row, np.r_[0.5 * (ang + after), np.zeros(len(mid_row) - len(row))]


def _near_disks(p: CirclePattern, slack: float) -> List[np.ndarray]:
    """Per vertex v, the disks u != v, sorted, whose closed disk, grown by
    the membership slack and a rounding margin, meets D_v: only they can
    hold a point of D_v.  Disks meet when their centres lie within the
    chord of their summed radii, exactly also for caps; the slack and the
    margin, 1e-9 (|c| + chord) per disk, are lengths in both geometries."""
    c, r = p.centers, chords(p.mode, p.radii)
    size = distances(c)
    a, b = near_pairs(p.mode, c, r - 0.5 * slack + 1e-9 * (size + r))
    v, u = np.r_[a, b], np.r_[b, a]  # each pair from both sides: v the owner
    summed = np.minimum(p.radii[u] + p.radii[v], PI if p.mode == triples.SPHERICAL else np.inf)
    near = (distances(c[u] - c[v]) <= chords(p.mode, summed) - slack
            + 1e-9 * (size[v] + r[v] + size[u] + r[u]))
    v, u = v[near], u[near]
    order = np.lexsort((u, v))
    return np.split(u[order], np.cumsum(np.bincount(v, minlength=len(r)))[:-1])


def _irreducibility_witnesses(p: CirclePattern):
    """For each vertex v, a point of D_v that no other disk covers, or None
    (the pattern is reducible exactly when some D_v is covered by the rest).

    Exact, by arc coverage over dD_v and the near disks grown by
    COVER_SLACK, for all vertices at once.  The witness is the free
    midpoint of dD_v with the largest clearance, else such a midpoint on a
    near circle, moved off it by half its clearance (on the sphere at most
    halfway to the centre of the cap's outside).  A witness must pass the
    all-disk membership test.
    """
    n = len(p.radii)
    near = _near_disks(p, -COVER_SLACK)
    circ = _Circles(p, np.arange(n), np.array([len(s) for s in near]), np.concatenate(near),
                    COVER_SLACK)
    mid_row, mid_ang, _, clear = circ.arc_points()
    best = circ.freest(mid_row, clear, np.flatnonzero(clear > 0), circ.own[mid_row])
    vs, rows = circ.owner[mid_row[best]], mid_row[best]
    move = 0.5 * clear[best]
    if circ.sphere:  # a cap's outside is a cap too: stop short of its centre
        move = np.minimum(move, 0.5 * (PI - circ.R[rows]))
    w = circ.at(rows, mid_ang[best], np.where(circ.own[rows], 0.0, move))
    k, u = _holding_pairs(p, w, -COVER_SLACK)  # the all-disk test: D_v only
    good = np.bincount(k, minlength=len(vs)) == 1
    good[k[u != vs[k]]] = False
    witnesses: Dict[int, object] = dict.fromkeys(range(n))
    witnesses.update((int(v), x) for v, x, g in zip(vs, w, good) if g)
    return all(x is not None for x in witnesses.values()), witnesses


def _flower_failures(p: CirclePattern, vs: np.ndarray, eps: float) -> Dict[int, object]:
    """For each vertex v of ``vs`` whose flower fails, a witness: a point
    of D_v that no neighbour covers by ``eps``, outside v's open star.

    Exact: the uncovered part F of D_v is bounded by arcs of dD_v and of
    the neighbour circles shrunk by ``eps``, cut here also where they cross
    the sides of the faces around v, so star membership is constant along
    each arc; F lies in the star exactly when every free arc midpoint and
    cut point does, as the faces around v are star-shaped from its centre
    and the region the other faces leave (``_outer_face``) meets F only
    across a link side.  The witness is the failing point of largest
    clearance.
    """
    offsets, _, ring = p.triangulation.star
    deg = np.diff(offsets)[vs]
    # the faces (v, a, b) around each vertex, a and b consecutive on its link
    own, at = _owner_rows(np.arange(len(vs)), offsets[vs], deg)
    first = offsets[vs][own]
    fan = np.column_stack((vs[own], ring[at], ring[first + (at - first + 1) % deg[own]]))
    circ = _Circles(p, vs, deg, fan[:, 1], -eps)
    # every side va and ab against every circle of v: each spoke once
    side, circle = _owner_rows(np.repeat(np.arange(len(vs)), 2 * deg), circ.start, circ.size)
    ends = p.centers[np.stack([fan[:, :2], fan[:, 1:]], axis=1).reshape(-1, 2)[side]]
    rows, _, pts, clear = circ.arc_points(*circ.side_crossings(circle, ends[:, 0], ends[:, 1]))

    free = np.flatnonzero(clear > 0)
    owner = circ.owner[rows[free]]
    k, j = _owner_rows(owner, circ.start - np.arange(len(vs)), deg)
    marked = np.array(_outer_face(p), dtype=int)
    keep = ~(fan[j, :, None] == marked).any(axis=2).all(axis=1)
    in_star = np.zeros(len(free), dtype=bool)
    in_star[k[keep][_in_fans(p, fan[j[keep]], pts[free[k[keep]]], eps)]] = True
    outer = (vs[owner][:, None] == marked).any(axis=1)
    if outer.any():
        in_star[outer] |= ~_in_any_face(p, pts[free[outer]], eps)

    return {int(vs[circ.owner[rows[b]]]): pts[b] for b in circ.freest(rows, clear, free[~in_star])}


def _outer_face(p: CirclePattern) -> Tuple[int, ...]:
    """The marked face when it is the region the other faces leave, else ():
    always in the plane, where it holds the point at infinity; on the sphere
    when its centre triangle turns against every other face's, as in a lift."""
    t, marked = p.triangulation, tuple(p.marked_face or ())
    if p.mode == triples.EUCLIDEAN or not marked:
        return marked
    turn = np.sign(_turns(p.mode, *p.centers[t.face_array.T]))
    fid = t.face_id_of(marked)
    return marked if turn[fid] and (np.delete(turn, fid) == -turn[fid]).all() else ()


def _in_fans(p: CirclePattern, fan: np.ndarray, points, eps) -> np.ndarray:
    """Per row (v, a, b) of ``fan`` and point, membership in the realized
    face vab, whose spokes va and bv are closed and whose link side ab is
    open; the open star of v is the union of its faces."""
    s1, s2, s3, tol = _sides(p.mode, p.centers[fan.T], points, eps)
    return (s1 >= -tol) & (s3 >= -tol) & (s2 > tol)


def _in_any_face(p: CirclePattern, points, eps) -> np.ndarray:
    """Membership in some closed realized face but the marked one, for all faces at once."""
    t = p.triangulation
    faces = np.delete(t.face_array, t.face_id_of(p.marked_face), axis=0)
    s1, s2, s3, tol = _sides(p.mode, p.centers[faces.T[:, :, None]], points, eps)
    return ((s1 >= -tol) & (s2 >= -tol) & (s3 >= -tol)).any(axis=0)


def _sides(mode: str, corners, points, eps):
    """The turns of the sides AB, BC, CA of the triangles ABC to the
    points, signed positive inside, and the tolerance ``eps`` scaled by
    each triangle's own turn.  Triangles and points broadcast."""
    A, B, C = corners
    sigma = _turns(mode, A, B, C)
    return (*(_turns(mode, P, Q, points) * np.sign(sigma) for P, Q in ((A, B), (B, C), (C, A))),
            eps * np.where(sigma != 0, np.abs(sigma), 1.0))


def _turns(mode: str, A, B, C):
    """How C turns from the line (great circle) AB, positive to the left:
    the cross product of B - A and C - A, the triple product C . (A x B)."""
    if mode == triples.EUCLIDEAN:
        return _cross2(B - A, C - A)
    return np.einsum("...i,...i->...", C, np.cross(A, B))


def _cross2(a, b):
    return a.real * b.imag - a.imag * b.real


def flower_check(p: CirclePattern, v: int, boundary_samples: int = 4096,
                 interior_grid: int = 64, eps: float = FLOWER_SLACK):
    """Exact test of the flower inclusion at vertex v: every point of the
    disk must lie in a neighbour's open disk or in v's open star region.
    Returns (ok, witness point or None); the sample counts are unused."""
    witness = _flower_failures(p, np.array([v]), eps).get(v)
    return witness is None, witness


# ---------------------------------------------------------------------------
# the full verification
# ---------------------------------------------------------------------------

def verify_pattern(p: CirclePattern, tol: float = triples.ANGLE_TOL,
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
    (e) flower cover at every vertex, exactly, with a witness point per
        failing vertex;
    (f) lens containments among adjacent triples obey the angle relation;
    (g) face triples with angle sum below pi have empty triple intersection.

    The sample counts are unused and only recorded in ``resolution``.
    """
    t = p.triangulation
    target = p.theta.array()
    cos_err, rad_err, angle_ok = triples.angle_errors(p.mode, p.centers, p.radii, t.edge_array,
                                                      target, tol)

    _, graph_ok, missing, extra, nested = contact_graph(p)
    near = sorted(set(extra) | set(nested))  # an overlapping non-adjacent pair is one of these
    pairs = np.array(near, dtype=int).reshape(-1, 2)
    offending = list(compress(near, (triples.inversive(p.mode, p.centers, p.radii, pairs)
                                     < 1.0 - DISJOINT_EPS) & (t.edge_ids(*pairs.T) < 0)))
    disjoint_ok = not offending

    # one interstice per face with angle sum below pi, none above
    _, face_cmp = face_sums(t, target)
    face_witnesses = _face_witnesses(p)
    samples = [w for w in face_witnesses if w is not None]
    interstice_ok = all((w is not None) == (c < 0)
                        for w, c in zip(face_witnesses, face_cmp) if c != 0)

    irr_ok, witnesses = _irreducibility_witnesses(p)
    if p.mode == triples.EUCLIDEAN:
        # bounded disks never cover the sphere: the point at infinity
        # witnesses irreducibility for every one-removed subfamily
        irr_ok = True

    flower_failures = _flower_failures(p, np.arange(t.vertex_count), FLOWER_SLACK)
    flower_ok = not flower_failures

    # every 3-clique of the 1-skeleton: faces and separating triangles
    tri = cycle_arrays(t, 3)[0]["vertices"]
    rel = triples.lens_relations(p.mode, p.centers[tri], p.radii[tri])
    row, k = np.nonzero(rel.contained & rel.intersecting[:, None])
    lens_records = [{"triple": a, "pair": b, "third": c, "lhs": lhs, "rhs": rhs, "holds": h}
                    for a, b, c, lhs, rhs, h in zip(
                        tri[row].tolist(), tri[row[:, None], triples.OPPOSITE[k]].tolist(),
                        tri[row, k].tolist(), rel.lhs[row, k].tolist(),
                        rel.rhs[row, k].tolist(), rel.holds[row, k].tolist())]
    lens_ok = all(rec["holds"] for rec in lens_records)

    below = np.flatnonzero(face_cmp < 0)
    faces = t.face_array[below]
    full = ~triples.triple_intersections_empty(p.mode, p.centers[faces], p.radii[faces])
    triple_failures = [t.faces[f] for f in below[full]]
    triple_ok = not triple_failures

    passed = (angle_ok and graph_ok and disjoint_ok and irr_ok and interstice_ok
              and flower_ok and lens_ok and triple_ok)
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
        resolution={"boundary_samples": boundary_samples, "interior_grid": interior_grid,
                    "sphere_samples": sphere_samples},
        passed=passed,
    )
