"""Compact convex hyperbolic polyhedra dual to spherical circle patterns.

Klein-model construction: each disk's boundary circle spans a Euclidean
plane x . n = cos(r) whose ball chord is the hyperbolic face plane, and
the polyhedron is the intersection of the half-spaces on the far side of
every disk.  Each pattern face gives the vertex where its three planes
meet, from the cofactor kernel shared with the verifier's witnesses, and
the face's angle sum decides whether that vertex is finite or ideal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import MalformedPattern, SingularTriple, VertexOutsideBall
from .configurations import CirclePattern, distances, near_pairs
from .triangulation import face_sums
from . import triples

PI = math.pi
COND_LIMIT = 1e12       # vertex solve condition number treated as singular


@dataclass(frozen=True)
class HalfSpace:
    """The Klein-model half-space of one cap: points x with normal . x <= offset."""

    normal: Tuple[float, float, float]   # spherical center direction
    offset: float                        # cos of the cap radius

    def to_dict(self) -> dict:
        return {"normal": list(self.normal), "offset": self.offset}


@dataclass
class HyperbolicPolyhedron:
    """Dual polyhedron in the Klein model: a face per circle, a vertex per pattern face."""

    half_spaces: List[HalfSpace]
    vertices: np.ndarray                 # Klein coordinates, one per pattern face
    faces: List[Tuple[int, ...]]         # vertex cycle per pattern vertex
    edges: List[Tuple[int, int]]         # pattern edge (u, v), canonical
    edge_vertices: List[Tuple[int, int]] # the two polyhedron vertices per edge
    dihedral: np.ndarray                 # interior dihedral angle per edge
    max_vertex_norm: float
    ideal_vertices: List[int] = field(default_factory=list)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def compactness_margin(self) -> float:
        return 1.0 - self.max_vertex_norm


def build_polyhedron(pattern: CirclePattern, allow_ideal: bool = False) -> HyperbolicPolyhedron:
    """Intersect the half-spaces of a verified interstice-free spherical
    pattern.

    Each face's vertex is where its three planes meet
    (``triples.cap_plane_points``), each edge's dihedral the angle its circles
    make where they meet.  Compactness is decided by the face angle sums, as
    ``classify`` decides the class: a sum above pi gives a finite vertex, which
    must lie inside the ball; a sum of pi an ideal one, rejected unless
    ``allow_ideal`` (so boundary cases can still be inspected); a sum below pi
    a vertex outside the ball.
    """
    if pattern.mode != triples.SPHERICAL:
        raise MalformedPattern("polyhedron construction needs a spherical pattern")
    t = pattern.triangulation
    for eid, val in enumerate(pattern.theta.values):
        if not (0.0 < val < PI):
            raise MalformedPattern(
                f"edge {t.edges[eid]} has angle {val} outside (0, pi)"
            )
    normals = np.asarray(pattern.centers, dtype=float)
    offsets = np.cos(pattern.radii)

    tri = np.asarray(t.faces, dtype=int)
    cond = np.linalg.cond(normals[tri])
    singular = np.flatnonzero(~(cond <= COND_LIMIT))
    if len(singular):
        fid = singular[0]
        raise SingularTriple(
            f"face {t.faces[fid]}: plane normals nearly dependent (cond {cond[fid]:.3g})"
        )
    x, det = triples.cap_plane_points(normals[tri], pattern.radii[tri])
    vertices = x / det[:, None]
    norms = np.linalg.norm(vertices, axis=1)
    sums, side = face_sums(t, pattern.theta.array())
    outside = np.flatnonzero((side < 0) | ((side > 0) & ~(norms < 1.0)))
    if len(outside):
        fid = outside[0]
        raise VertexOutsideBall(
            f"vertex for face {t.faces[fid]} has norm {norms[fid]} at angle sum "
            f"{float(sums[fid])}; a vertex inside the ball needs a sum above pi and a "
            "pattern that realizes its angles"
        )
    ideal = np.flatnonzero(side == 0).tolist()
    if ideal and not allow_ideal:
        fid = ideal[0]
        raise VertexOutsideBall(
            f"vertex for face {t.faces[fid]} is ideal (angle sum pi, |q| = {norms[fid]}); "
            "pass allow_ideal to inspect the boundary case"
        )

    # the dihedral is the angle the circles make at a common point p, between
    # the tangents t = c - cos r p to the centres; they meet, as the edge's
    # vertices passed the ball test and lie on both cap planes
    u, v = np.asarray(t.edges, dtype=int).T
    p = triples._corners(triples.SPHERICAL, normals[u], pattern.radii[u], normals[v],
                         pattern.radii[v], triples.GEOM_EPS)[2]
    tu, tv = (normals[w] - offsets[w][:, None] * p for w in (u, v))
    dihedral = np.arctan2(distances(np.cross(tu, tv)), -np.einsum("ij,ij->i", tu, tv))

    return HyperbolicPolyhedron(
        half_spaces=[
            HalfSpace(tuple(normals[v]), float(offsets[v]))
            for v in range(t.vertex_count)
        ],
        vertices=vertices,
        faces=[tuple(t.vertex_faces[v]) for v in range(t.vertex_count)],
        edges=list(t.edges),
        edge_vertices=[tuple(t.edge_faces[eid]) for eid in range(t.edge_count)],
        dihedral=dihedral,
        max_vertex_norm=float(np.max(norms)),
        ideal_vertices=ideal,
    )


@dataclass
class PolyhedronReport:
    """Outcome of each check_polyhedron test and whether all of them passed."""

    max_dihedral_err: float
    dihedral_inversive_gap: float
    convexity_ok: bool
    convexity_worst: float
    trivalent_ok: bool
    combinatorics_ok: bool
    euler_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def check_polyhedron(q: HyperbolicPolyhedron, pattern: CirclePattern,
                     tol: float = 1e-9) -> PolyhedronReport:
    """Dihedral accuracy, convexity slack, trivalence and dual counts.

    The convexity slack is the least o - c . x over the chart's point query
    pairs, which hold every vertex x on or beyond a plane c . x = o: a cap
    of o > 0 holds x / |x| if |x| <= 1 and reaches x, widened off the
    sphere, if |x| > 1; a cap of o <= 0 reaches every point."""
    t = pattern.triangulation
    target = pattern.theta.array()
    dihedral_err = float(np.max(np.abs(q.dihedral - target)))

    # same angle through the pattern's inversive distances (independent path)
    inv = triples.inversive(triples.SPHERICAL, pattern.centers, pattern.radii, t.edge_array)
    gap = float(np.max(np.abs(np.cos(q.dihedral) - inv)))

    normals = np.array([h.normal for h in q.half_spaces])
    offsets = np.array([h.offset for h in q.half_spaces])
    y = q.vertices / np.clip(distances(q.vertices), np.finfo(float).tiny, 1.0)[:, None]
    chord = np.where(offsets > 0.0, np.sqrt(2.0 - 2.0 * np.clip(offsets, 0.0, 1.0)), 2.0)
    k, u = near_pairs(triples.SPHERICAL, normals, chord, y)
    # each product as a (1 x 3)(3 x 1) matmul, as the rows of vertices @ normals.T round
    slack = offsets[u] - np.matmul(q.vertices[k, None, :], normals[u, :, None])[:, 0, 0]
    worst = float(np.min(slack, initial=np.inf))
    convex_ok = worst >= -1e-9

    incidence = np.bincount([vid for cyc in q.faces for vid in cyc], minlength=q.vertex_count)
    trivalent_ok = bool(np.all(incidence == 3))

    combinatorics_ok = all(
        len(q.faces[v]) == t.degree(v) for v in range(t.vertex_count)
    )
    euler_ok = (
        q.vertex_count - len(q.edges) + len(q.faces) == 2
        and q.vertex_count == t.face_count
        and len(q.faces) == t.vertex_count
    )
    passed = (
        dihedral_err <= tol and convex_ok and trivalent_ok and combinatorics_ok
        and euler_ok
    )
    return PolyhedronReport(
        max_dihedral_err=dihedral_err,
        dihedral_inversive_gap=gap,
        convexity_ok=convex_ok,
        convexity_worst=worst,
        trivalent_ok=trivalent_ok,
        combinatorics_ok=combinatorics_ok,
        euler_ok=euler_ok,
        passed=passed,
    )


def export_obj(q: HyperbolicPolyhedron) -> bytes:
    """Klein-model mesh in OBJ text form, deterministic ordering."""
    lines = ["# klein-model hyperbolic polyhedron"]
    for v in q.vertices:
        lines.append("v " + " ".join(repr(float(x)) for x in v))
    for cyc in q.faces:
        lines.append("f " + " ".join(str(i + 1) for i in cyc))
    return ("\n".join(lines) + "\n").encode()


def polyhedron_to_dict(q: HyperbolicPolyhedron) -> dict:
    return {
        "half_spaces": [h.to_dict() for h in q.half_spaces],
        "vertices": [[float(x) for x in v] for v in q.vertices],
        "faces": [list(c) for c in q.faces],
        "edges": [list(e) for e in q.edges],
        "edge_vertices": [list(e) for e in q.edge_vertices],
        "dihedral": [float(d) for d in q.dihedral],
        "max_vertex_norm": q.max_vertex_norm,
        "ideal_vertices": list(q.ideal_vertices),
    }
