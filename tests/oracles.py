"""Independent oracles used by the test suite.

Everything here is deliberately written with different machinery from the
library: subset brute force instead of DFS enumeration, union-find face
grouping instead of BFS flood fill, GF(2) homology ranks instead of
simplex counting, and direct trigonometric formulas instead of the kernel
helpers.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

PI = math.pi
EPS = 1e-12


def cmp_eps(lhs: float, bound: float, eps: float = EPS) -> int:
    if abs(lhs - bound) <= eps:
        return 0
    return -1 if lhs < bound else 1


# ---------------------------------------------------------------------------
# brute-force cycle machinery
# ---------------------------------------------------------------------------

def adjacency(faces: Sequence[Tuple[int, int, int]], n: int):
    adj = [set() for _ in range(n)]
    edges = set()
    for (a, b, c) in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            adj[u].add(v)
            adj[v].add(u)
            edges.add((min(u, v), max(u, v)))
    return adj, edges


def brute_cycles(faces, n: int, max_len: int) -> List[Tuple[int, ...]]:
    """Every simple cycle of length 3..max_len, via subsets and orderings."""
    adj, _ = adjacency(faces, n)
    found = set()
    for k in range(3, max_len + 1):
        for subset in itertools.combinations(range(n), k):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                if k > 3 and perm[0] > perm[-1]:
                    continue  # reflection duplicate
                cyc = (first,) + perm
                ok = all(cyc[(i + 1) % k] in adj[cyc[i]] for i in range(k))
                if ok:
                    found.add(cyc if k > 3 else (first,) + tuple(sorted(perm)))
    # canonicalize 3-cycles too (sorted); longer ones are already rooted
    return sorted(found, key=lambda c: (len(c), c))


class _DSU:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        r = x
        while self.p[r] != r:
            r = self.p[r]
        while self.p[x] != r:
            self.p[x], x = r, self.p[x]
        return r

    def union(self, a, b):
        self.p[self.find(a)] = self.find(b)


def cycle_sides(faces, cyc) -> List[Set[int]]:
    """Vertex sets of the two sides of a simple cycle, by union-find over
    faces glued along non-cycle edges."""
    k = len(cyc)
    cyc_edges = {
        (min(cyc[i], cyc[(i + 1) % k]), max(cyc[i], cyc[(i + 1) % k]))
        for i in range(k)
    }
    edge_faces: Dict[Tuple[int, int], List[int]] = {}
    for fid, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(fid)
    dsu = _DSU(len(faces))
    for e, fs in edge_faces.items():
        if e not in cyc_edges:
            dsu.union(fs[0], fs[1])
    groups: Dict[int, Set[int]] = {}
    for fid, f in enumerate(faces):
        groups.setdefault(dsu.find(fid), set()).update(f)
    return [g - set(cyc) for g in groups.values()]


def brute_separates(faces, cyc) -> bool:
    sides = cycle_sides(faces, cyc)
    return len(sides) == 2 and all(len(s) > 0 for s in sides)


def brute_is_face(faces, cyc) -> bool:
    return frozenset(cyc) in {frozenset(f) for f in faces} and len(cyc) == 3


def brute_two_triangle(faces, cyc) -> bool:
    """Cycle bounds two adjacent triangles: some edge's two faces have the
    cycle's edges as the symmetric difference of their edge sets."""
    if len(cyc) != 4:
        return False
    k = len(cyc)
    cyc_edges = {
        (min(cyc[i], cyc[(i + 1) % k]), max(cyc[i], cyc[(i + 1) % k]))
        for i in range(k)
    }
    edge_faces: Dict[Tuple[int, int], List[int]] = {}
    face_edges = []
    for fid, (a, b, c) in enumerate(faces):
        es = {(min(u, v), max(u, v)) for u, v in ((a, b), (b, c), (c, a))}
        face_edges.append(es)
        for e in es:
            edge_faces.setdefault(e, []).append(fid)
    for e, fs in edge_faces.items():
        if len(fs) == 2:
            sym = face_edges[fs[0]] ^ face_edges[fs[1]]
            if sym == cyc_edges:
                return True
    return False


def brute_prismatic(faces, cyc) -> bool:
    k = len(cyc)
    cyc_edges = [
        (min(cyc[i], cyc[(i + 1) % k]), max(cyc[i], cyc[(i + 1) % k]))
        for i in range(k)
    ]
    edge_faces: Dict[Tuple[int, int], List[int]] = {}
    for fid, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(fid)
    incident = set()
    for e in cyc_edges:
        incident.update(edge_faces[e])
    return len(incident) == 2 * k


def brute_non_adjacent_arcs(faces, n: int) -> List[Tuple[int, int, int]]:
    adj, _ = adjacency(faces, n)
    out = []
    for v in range(n):
        for u, w in itertools.combinations(sorted(adj[v]), 2):
            if w not in adj[u]:
                out.append((u, v, w))
    return sorted(out)


# ---------------------------------------------------------------------------
# independent condition checker
# ---------------------------------------------------------------------------

def brute_condition_flags(faces, n: int, theta: Dict[Tuple[int, int], float],
                          eps: float = EPS) -> Dict[str, bool]:
    """Class flags computed from scratch: brute-force circuits, literal
    inequalities, the same comparison epsilon."""
    adj, edges = adjacency(faces, n)

    def th(u, v):
        return theta[(min(u, v), max(u, v))]

    c1 = True
    for (a, b, c) in faces:
        vals = [th(b, c), th(c, a), th(a, b)]
        for k in range(3):
            if cmp_eps(vals[(k + 1) % 3] + vals[(k + 2) % 3], vals[k] + PI, eps) >= 0:
                c1 = False

    arcs = brute_non_adjacent_arcs(faces, n)
    c2 = True
    any_strict = False
    for (u, v, w) in arcs:
        s = th(u, v) + th(v, w)
        c = cmp_eps(s, PI, eps)
        if c > 0:
            c2 = False
        elif c < 0:
            any_strict = True
    degs = sorted(len(a) for a in adj)
    if n == 5 and degs == [3, 3, 4, 4, 4]:
        lows = [v for v in range(n) if len(adj[v]) == 3]
        if lows[1] not in adj[lows[0]] and arcs and not any_strict:
            c2 = False

    c3 = c4 = True
    for cyc in brute_cycles(faces, n, 4):
        if not brute_separates(faces, cyc):
            continue
        s = sum(th(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
        if len(cyc) == 3 and cmp_eps(s, PI, eps) >= 0:
            c3 = False
        if len(cyc) == 4 and cmp_eps(s, 2 * PI, eps) >= 0:
            c4 = False

    sums = [th(a, b) + th(b, c) + th(c, a) for (a, b, c) in faces]
    m5 = (
        all(cmp_eps(s, PI, eps) >= 0 for s in sums)
        and all(cmp_eps(v, 0.0, eps) > 0 for v in theta.values())
        and n > 4
    )
    g5 = any(cmp_eps(s, PI, eps) < 0 for s in sums)
    base = c1 and c2 and c3 and c4
    return {
        "c1": c1, "c2": c2, "c3": c3, "c4": c4, "m5": m5, "g5": g5,
        "marden": base, "w_m": base and m5, "w_g": base and g5,
    }


# ---------------------------------------------------------------------------
# GF(2) homology Euler characteristic
# ---------------------------------------------------------------------------

def _gf2_rank(mat: np.ndarray) -> int:
    m = mat.copy() % 2
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def _complex_chi_by_homology(vertices, edges, faces) -> int:
    """Euler characteristic via GF(2) Betti numbers of a closed complex."""
    vs = sorted(vertices)
    es = sorted(edges)
    fs = sorted(faces)
    vid = {v: i for i, v in enumerate(vs)}
    eid = {e: i for i, e in enumerate(es)}
    d1 = np.zeros((len(vs), len(es)), dtype=np.int64)
    for j, (u, w) in enumerate(es):
        d1[vid[u], j] = 1
        d1[vid[w], j] = 1
    d2 = np.zeros((len(es), len(fs)), dtype=np.int64)
    for j, f in enumerate(fs):
        a, b, c = sorted(f)
        for e in ((a, b), (b, c), (a, c)):
            d2[eid[e], j] = 1
    r1 = _gf2_rank(d1) if es else 0
    r2 = _gf2_rank(d2) if fs else 0
    b0 = len(vs) - r1
    b1 = len(es) - r1 - r2
    b2 = len(fs) - r2
    return b0 - b1 + b2


def homology_chi_of_open_star(faces, n: int, subset) -> int:
    """chi_c of the open star of a vertex subset, as chi(closure) minus
    chi(frontier), both via GF(2) homology ranks."""
    a = set(subset)
    star_faces = [tuple(sorted(f)) for f in faces if any(v in a for v in f)]
    _, all_edges = adjacency(faces, n)
    star_edges = [e for e in all_edges if e[0] in a or e[1] in a]
    closure_vertices = set()
    closure_edges = set()
    closure_faces = set()
    for f in star_faces:
        closure_faces.add(f)
        x, y, z = f
        closure_edges.update({(x, y), (y, z), (x, z)})
        closure_vertices.update(f)
    for e in star_edges:
        closure_edges.add(e)
        closure_vertices.update(e)
    closure_vertices.update(a)
    frontier_vertices = {v for v in closure_vertices if v not in a}
    frontier_edges = {e for e in closure_edges if e[0] not in a and e[1] not in a}
    frontier_faces = {f for f in closure_faces if all(v not in a for v in f)}
    chi_k = _complex_chi_by_homology(closure_vertices, closure_edges, closure_faces)
    chi_l = _complex_chi_by_homology(frontier_vertices, frontier_edges, frontier_faces)
    return chi_k - chi_l


# ---------------------------------------------------------------------------
# spherical triangle helpers (direct trigonometry)
# ---------------------------------------------------------------------------

def place_spherical_triangle(sides) -> np.ndarray:
    """Three unit vectors with the given pairwise arc distances; sides[i]
    is the distance between points j and k."""
    l0, l1, l2 = sides
    p0 = np.array([0.0, 0.0, 1.0])
    p1 = np.array([math.sin(l2), 0.0, math.cos(l2)])
    cos_a = (math.cos(l0) - math.cos(l1) * math.cos(l2)) / (
        math.sin(l1) * math.sin(l2)
    )
    a = math.acos(max(-1.0, min(1.0, cos_a)))
    p2 = np.array(
        [math.sin(l1) * math.cos(a), math.sin(l1) * math.sin(a), math.cos(l1)]
    )
    return np.stack([p0, p1, p2])


def measured_angles(points: np.ndarray) -> List[float]:
    """Inner angles of a spherical triangle from tangent vectors."""
    out = []
    for i in range(3):
        p = points[i]
        others = [points[(i + 1) % 3], points[(i + 2) % 3]]
        ts = []
        for q in others:
            t = q - float(np.dot(q, p)) * p
            ts.append(t / np.linalg.norm(t))
        out.append(math.acos(max(-1.0, min(1.0, float(np.dot(ts[0], ts[1]))))))
    return out


# ---------------------------------------------------------------------------
# all-disk references for the sampled verifier checks
# ---------------------------------------------------------------------------

def interior_points(p, v: int, grid: int) -> np.ndarray:
    """The unit-disk grid of ``verify._interior_points``, rebuilt per disk."""
    from circlepattern import triples

    s = np.linspace(-1.0, 1.0, grid)
    xx, yy = np.meshgrid(s, s)
    mask = xx * xx + yy * yy < 1.0
    if p.mode == triples.EUCLIDEAN:
        return (xx[mask] + 1j * yy[mask]) * p.radii[v] + p.centers[v]
    rr = np.sqrt(xx[mask] ** 2 + yy[mask] ** 2) * p.radii[v]
    ph = np.arctan2(yy[mask], xx[mask])
    n = p.centers[v]
    (e1,), (e2,) = triples.tangent_frames(n)
    return (
        np.cos(rr)[:, None] * n[None, :]
        + np.sin(rr)[:, None] * (np.cos(ph)[:, None] * e1 + np.sin(ph)[:, None] * e2)
    )


def irreducibility_witnesses(p, boundary_samples: int, interior_grid: int):
    """Every sample of D_v tested against all other disks."""
    from circlepattern.verify import _boundary_points

    n = len(p.radii)
    witnesses = {}
    ok = True
    for v in range(n):
        pts = np.concatenate([_boundary_points(p, v, boundary_samples),
                              interior_points(p, v, interior_grid)])
        others = [u for u in range(n) if u != v]
        covered = p.point_in_disks(pts, slack=-1e-12)[:, others].any(axis=1)
        free = np.flatnonzero(~covered)
        witnesses[v] = pts[free[0]] if len(free) else None
        ok = ok and len(free) > 0
    return ok, witnesses


def free_in_own_disk(p, v: int, x) -> bool:
    """x lies in D_v and outside every other disk, each disk tested on its
    own with the 1e-12 sample slack of ``irreducibility_witnesses``."""
    from circlepattern import triples

    if p.mode == triples.EUCLIDEAN:
        inside = [abs(x - c) <= r + 1e-12 for c, r in zip(p.centers, p.radii)]
    else:
        inside = [float(np.dot(x, c)) >= math.cos(r) - 1e-12
                  for c, r in zip(p.centers, p.radii)]
    return inside[v] and sum(inside) == 1


def flower_check(p, v: int, boundary_samples: int = 4096, interior_grid: int = 64,
                 eps: float = 1e-9):
    """Neighbour-disk membership read off the full membership matrix."""
    from circlepattern.verify import _boundary_points, _in_open_star

    pts = np.concatenate([_boundary_points(p, v, boundary_samples),
                          interior_points(p, v, interior_grid)])
    nbrs = list(p.triangulation.neighbors(v))
    rest = pts[~p.point_in_disks(pts, slack=eps)[:, nbrs].any(axis=1)]
    if not len(rest):
        return True, None
    in_star = _in_open_star(p, v, rest, eps)
    if in_star.all():
        return True, None
    return False, rest[~in_star][0]


def in_any_face(p, points, eps) -> np.ndarray:
    """Membership in some closed laid-out planar face, one face at a time."""
    t = p.triangulation
    skip = t.face_id_of(p.marked_face) if p.marked_face is not None else None

    def cross(a, b):
        return a.real * b.imag - a.imag * b.real

    out = np.zeros(len(points), dtype=bool)
    for fid, face in enumerate(t.faces):
        if fid == skip:
            continue
        A, B, C = p.centers[list(face)]
        sigma = cross(B - A, C - A)
        sign, tol = np.sign(sigma), eps * (abs(sigma) if sigma != 0 else 1.0)
        out |= ((cross(B - A, points - A) * sign >= -tol)
                & (cross(C - B, points - B) * sign >= -tol)
                & (cross(A - C, points - C) * sign >= -tol))
    return out


def fibonacci_sphere(n: int) -> np.ndarray:
    """``n`` nearly uniform unit vectors on a Fibonacci spiral."""
    i = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def radical_centre(centers, radii) -> complex:
    """The point of equal power to three planar circles, solved in exact
    rational arithmetic from the floats given and rounded once."""
    (x0, y0), (x1, y1), (x2, y2) = [(Fraction(c.real), Fraction(c.imag)) for c in centers]
    r0, r1, r2 = (Fraction(r) for r in radii)
    e1 = x1 * x1 + y1 * y1 - r1 * r1 - x0 * x0 - y0 * y0 + r0 * r0
    e2 = x2 * x2 + y2 * y2 - r2 * r2 - x0 * x0 - y0 * y0 + r0 * r0
    a1, b1, a2, b2 = 2 * (x1 - x0), 2 * (y1 - y0), 2 * (x2 - x0), 2 * (y2 - y0)
    det = a1 * b2 - a2 * b1
    return complex(float((e1 * b2 - e2 * b1) / det), float((a1 * e2 - a2 * e1) / det))
