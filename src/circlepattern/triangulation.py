"""Oriented triangulations of the 2-sphere and their circuit combinatorics.

Vertices are dense integers 0..n-1; edges are canonicalized as (min, max)
pairs and addressed by dense edge ids.  A Triangulation is immutable after
construction and all queries are read-only.

All of it comes from one half-edge table: half-edge 3f + s runs from
corner s of face f to corner s + 1.  One stable sort of the half-edges by
canonical edge pairs them into twins, which gives the edges and their
faces, the manifold check (two per edge), the orientation (twins run
opposite ways) and every vertex star at once (the next half-edge out of v
is the twin of the one entering v).  Polyhedra are paired by the same sort.

The angle data on the edges, ``AngleAssignment``, lives here too, with the
face sums that every layer reads; the circuits are ``cycles``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateFace,
    InconsistentOrientation,
    NonManifold,
    NotASphere,
    NotTrivalent,
)

Edge = Tuple[int, int]
Face = Tuple[int, int, int]

PI = math.pi
# quantities within this of a bound count as equal to it (see ``conditions``)
COND_EPS = 1e-12


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Triangulation:
    """Validated oriented simplicial triangulation of the 2-sphere: its value is
    the vertex count, faces and flip flag; each tuple or dict view is built on first use."""

    vertex_count: int
    faces: Tuple[Face, ...]
    orientation_flipped: bool
    face_array: np.ndarray = field(compare=False, repr=False)       # the faces, one row each
    edge_array: np.ndarray = field(compare=False, repr=False)       # sorted rows (u, v), u < v
    edge_face_array: np.ndarray = field(compare=False, repr=False)  # the two faces, ascending
    # (offsets, faces, ring): those of v at offsets[v]:offsets[v + 1] in cyclic
    # order from its lowest face, face i spanned by ring vertices i and i + 1
    star: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)
    # ``cycles.cycle_arrays`` by max_len and ``two_arc_arrays`` under "arcs"; not
    # part of the value
    _circuits: Dict[object, object] = field(default_factory=dict, init=False, compare=False,
                                            repr=False)

    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(zip(*self.edge_array.T.tolist()))

    @cached_property
    def edge_index(self) -> Dict[Edge, int]:
        return dict(zip(self.edges, range(self.edge_count)))

    @cached_property
    def edge_faces(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_face_array.tolist()))

    @cached_property
    def vertex_faces(self) -> Tuple[Tuple[int, ...], ...]:  # cyclic order around the vertex
        return self._per_vertex(self.star[1])

    @cached_property
    def link_cycles(self) -> Tuple[Tuple[int, ...], ...]:  # neighbour cycle around the vertex
        return self._per_vertex(self.star[2])

    @cached_property
    def face_index(self) -> Dict[FrozenSet[int], int]:  # vertex set -> face id
        return dict(zip(map(frozenset, self.faces), range(self.face_count)))

    def _per_vertex(self, flat: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
        flat, offsets = flat.tolist(), self.star[0].tolist()
        return tuple(tuple(flat[i:j]) for i, j in zip(offsets[:-1], offsets[1:]))

    # -- basic queries ------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def edge_id(self, u: int, v: int) -> int:
        return self.edge_index[canonical_edge(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edge_index

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self.link_cycles[v]

    def degree(self, v: int) -> int:
        return len(self.link_cycles[v])

    def face_edge_ids(self, fid: int) -> Tuple[int, int, int]:
        a, b, c = self.faces[fid]
        return (self.edge_id(b, c), self.edge_id(c, a), self.edge_id(a, b))

    def face_id_of(self, verts: Sequence[int]) -> Optional[int]:
        return self.face_index.get(frozenset(verts))

    def is_face(self, verts: Sequence[int]) -> bool:
        return self.face_id_of(verts) is not None

    def degree_sequence(self) -> Tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in range(self.vertex_count)))

    # -- index arrays, built on first use -----------------------------

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """u * n + v of each edge (u, v): increasing, as edges are sorted."""
        return self.edge_array[:, 0] * self.vertex_count + self.edge_array[:, 1]

    def edge_ids(self, u, v) -> np.ndarray:
        """``edge_id`` over arrays, with -1 where u and v are not adjacent."""
        n, keys = self.vertex_count, self.edge_keys
        key = np.minimum(u, v) * n + np.maximum(u, v)
        i = np.minimum(np.searchsorted(keys, key), self.edge_count - 1)
        return np.where(keys[i] == key, i, -1)

    @cached_property
    def face_edges(self) -> np.ndarray:
        """``face_edge_ids`` of every face, one row per face."""
        a, b, c = self.face_array.T
        return np.column_stack((self.edge_ids(b, c), self.edge_ids(c, a), self.edge_ids(a, b)))

    @cached_property
    def adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted neighbour lists as (offsets, neighbours): the neighbours
        of v are ``neighbours[offsets[v]:offsets[v + 1]]``."""
        u, v = self.edge_array.T
        src, dst = np.r_[u, v], np.r_[v, u]
        offsets = np.r_[0, np.cumsum(np.bincount(src, minlength=self.vertex_count))]
        return offsets, dst[np.lexsort((dst, src))]

    @cached_property
    def star_edge_ids(self) -> Tuple[List[List[int]], List[List[int]]]:
        """Edge ids along each vertex's ``link_cycles`` row, as (spokes,
        sides): spokes[v][i] joins v to ring vertex i, and sides[v][i]
        joins ring vertices i and i + 1, cyclically."""
        offsets, _, ring = self.star
        after = np.arange(1, len(ring) + 1)
        after[offsets[1:] - 1] = offsets[:-1]
        owner = np.repeat(np.arange(self.vertex_count), np.diff(offsets))
        bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        return tuple([ids[lo:hi] for lo, hi in bounds] for ids in (
            self.edge_ids(owner, ring).tolist(), self.edge_ids(ring, ring[after]).tolist()))


def build_triangulation(faces: Sequence[Sequence[int]], vertex_count: Optional[int] = None) -> Triangulation:
    """Validate a face list and derive all incidence structure from its
    half-edge table.  The input winding is not trusted: the lowest face of
    each component keeps its own, and a flag records whether any face was
    flipped.  Faults are found in this order: each face in turn (not a
    triple, a repeated vertex, a negative id, a repeated face), then
    ``vertex_count``, non-manifold edges, orientation, the Euler
    characteristic and the vertex links."""
    if len(faces) == 0:
        raise DegenerateFace("empty face list")
    k = next((i for i, f in enumerate(faces) if len(f) != 3), len(faces))
    tri = np.array(faces[:k], dtype=np.intp).reshape(-1, 3)
    srt = np.sort(tri, axis=1)
    order, first = _group(*srt.T[::-1])  # each face's earliest copy leads its run
    repeat = np.ones(k, dtype=bool)
    repeat[order[first]] = False
    faults = ((srt[:, 1:] == srt[:, :-1]).any(axis=1), srt[:, 0] < 0, repeat)
    bad = np.flatnonzero(np.logical_or.reduce(faults))
    if len(bad):
        f = tuple(tri[bad[0]].tolist())
        what = ("has repeated vertices", "has negative vertex ids", "is repeated")
        raise DegenerateFace(f"face {f} " + next(w for w, x in zip(what, faults) if x[bad[0]]))
    if k < len(faces):
        raise DegenerateFace(f"face {tuple(faces[k])} is not a triple")
    n = int(srt[:, 2].max()) + 1
    if vertex_count is not None:
        if vertex_count < n:
            raise DegenerateFace("vertex_count smaller than largest face index")
        n = vertex_count

    # half-edge 3f + s runs from tri[f, s] to tri[f, s + 1 mod 3]
    tail, head = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    pairs = _twins(tail, head, "edge")
    lo, hi = np.minimum(tail, head)[pairs[:, 0]], np.maximum(tail, head)[pairs[:, 0]]
    twin = np.empty(3 * k, dtype=np.intp)
    twin[pairs] = pairs[:, ::-1]
    flip = _orient(twin, tail == tail[twin])
    oriented = tri.copy()
    oriented[flip, 1:] = tri[flip, :0:-1]

    chi = n - len(lo) + k
    if chi != 2:
        raise NotASphere(f"V - E + F = {chi}, expected 2")

    # in a flipped face (a, c, b) slot s holds the edge of old slot 2 - s
    h = np.arange(3 * k)
    moved = np.where(flip[h // 3], h - h % 3 + 2 - h % 3, h)
    twin[moved] = moved[twin]
    offsets, star = _stars(n, oriented.ravel(), twin)
    return Triangulation(
        vertex_count=n,
        faces=tuple(map(tuple, oriented.tolist())),
        orientation_flipped=bool(flip.any()),
        face_array=oriented,
        edge_array=np.column_stack((lo, hi)),
        edge_face_array=pairs // 3,
        star=(offsets, star // 3, oriented[:, [1, 2, 0]].ravel()[star]),
    )


def _group(*keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A stable sort by ``keys``, the last one primary, and the start in
    it of each run of equal keys."""
    order = np.lexsort(keys)
    new = np.arange(len(order)) == 0
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    return order, np.flatnonzero(new)


def _twins(tail: np.ndarray, head: np.ndarray, what: str) -> np.ndarray:
    """The half-edges tail -> head grouped by their undirected edge: per
    edge a row of its two half-edge ids, ascending, the rows sorted by
    canonical edge.  Raises NonManifold, naming the edge met first, unless
    every edge has exactly two half-edges."""
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    order, first = _group(hi, lo)
    size = np.diff(np.r_[first, len(order)])
    bad = np.flatnonzero(size != 2)
    if len(bad):
        g = bad[np.argmin(order[first[bad]])]
        h = order[first[g]]
        raise NonManifold(f"{what} {(int(lo[h]), int(hi[h]))} lies in {size[g]} faces")
    return order.reshape(-1, 2)


def _orient(twin: np.ndarray, same: np.ndarray) -> np.ndarray:
    """Which faces to flip so that every half-edge and its twin run
    opposite ways: their faces flip alike unless they run the same way
    (``same``).  The lowest face of each component keeps its winding, and
    the parity spreads from it one level of neighbours at a time."""
    nbr, odd = (twin // 3).reshape(-1, 3), same.reshape(-1, 3)
    flip = np.zeros(len(nbr), dtype=bool)
    seen = np.zeros(len(nbr), dtype=bool)
    last = np.empty(len(nbr), dtype=np.intp)
    root = 0
    while root < len(nbr):
        seen[root] = True
        front = np.array([root])
        while len(front):
            g, p = nbr[front].ravel(), (odd[front] ^ flip[front, None]).ravel()
            g, p = g[~seen[g]], p[~seen[g]]
            last[g] = np.arange(len(g))  # one copy of each face: its last
            once = last[g] == np.arange(len(g))
            front = g[once]
            flip[front], seen[front] = p[once], True
        left = np.flatnonzero(~seen[root:])
        root += left[0] if len(left) else len(nbr)
    bad = np.flatnonzero(flip.repeat(3) ^ flip[twin // 3] != same)
    if len(bad):
        raise InconsistentOrientation(f"faces {bad[0] // 3} and {twin[bad[0]] // 3} "
                                      "cannot be oriented consistently")
    return flip


def _stars(n: int, tail: np.ndarray, twin: np.ndarray):
    """The outgoing half-edges of each vertex in cyclic order, from its
    lowest face, as (offsets, star): those of v are
    ``star[offsets[v]:offsets[v + 1]]``.  The next half-edge around a
    vertex is the twin of the one entering it in the face of the last.
    Raises NonManifold for the lowest vertex whose link is not one cycle."""
    h = np.arange(len(tail))
    turn = twin[h - h % 3 + (h + 2) % 3]
    deg = np.bincount(tail, minlength=n)
    offsets = np.r_[0, np.cumsum(deg)]
    live = np.flatnonzero(deg)
    cur = np.argsort(tail, kind="stable")[offsets[live]]
    star = np.empty(len(tail), dtype=np.intp)
    for step in range(deg.max()):
        keep = deg[live] > step
        live, cur = live[keep], cur[keep]
        star[offsets[live] + step] = cur
        cur = turn[cur]
    # each walk returns after deg steps; a shorter orbit repeats and misses some
    seen = np.zeros(len(tail), dtype=bool)
    seen[star] = True
    broken = deg == 0
    broken[tail[~seen]] = True
    if broken.any():
        v = int(np.argmax(broken))
        raise NonManifold(f"vertex {v} has no incident faces" if deg[v] == 0
                          else f"vertex {v} link is not a single cycle")
    return offsets, star


def _owner_rows(owners: np.ndarray, start: np.ndarray, size: np.ndarray):
    """Index pairs (a, b) pairing each item a with every row b of its
    owner, whose rows are start[owner] .. start[owner] + size[owner] - 1."""
    counts = size[owners]
    a = np.repeat(np.arange(len(owners)), counts)
    b = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start[owners], counts)
    return a, b


# ---------------------------------------------------------------------------
# angle data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleAssignment:
    """Exterior intersection angles on the edges of a triangulation."""

    triangulation: Triangulation
    values: Tuple[float, ...]

    def __post_init__(self):
        t = self.triangulation
        if len(self.values) != t.edge_count:
            raise ValueError(
                f"{len(self.values)} angles for {t.edge_count} edges"
            )
        vals = np.asarray(self.values, dtype=float)
        bad = np.flatnonzero(~((vals >= 0.0) & (vals < PI)))  # NaN fails both
        if len(bad):
            raise ValueError(f"angle {self.values[bad[0]]} outside [0, pi)")

    @classmethod
    def from_dict(cls, t: Triangulation, theta: Dict[Tuple[int, int], float]) -> "AngleAssignment":
        canon = {canonical_edge(*e): float(v) for e, v in theta.items()}
        missing = [e for e in t.edges if e not in canon]
        extra = [e for e in canon if e not in t.edge_index]
        if missing or extra:
            raise ValueError(f"missing edges {missing}, unknown edges {extra}")
        return cls(t, tuple(canon[e] for e in t.edges))

    @classmethod
    def constant(cls, t: Triangulation, value: float) -> "AngleAssignment":
        return cls(t, (float(value),) * t.edge_count)

    def __getitem__(self, eid: int) -> float:
        return self.values[eid]

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def replaced(self, updates: Dict[int, float]) -> "AngleAssignment":
        vals = list(self.values)
        for eid, v in updates.items():
            vals[eid] = float(v)
        return AngleAssignment(self.triangulation, tuple(vals))


def _compare(lhs: np.ndarray, bound) -> np.ndarray:
    """-1, 0, +1 for below / equal (within ``COND_EPS``) / above, over arrays."""
    return np.where(np.abs(lhs - bound) <= COND_EPS, 0, np.where(lhs < bound, -1, 1))


def face_sums(t: Triangulation, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each face's angle sum, added from 0 in edge order, and its ``_compare`` with pi."""
    sums = sum(vals[t.face_edges].T)
    return sums, _compare(sums, PI)


# ---------------------------------------------------------------------------
# trivalent polyhedra and duality
# ---------------------------------------------------------------------------

def dual_of_trivalent(poly_faces: Sequence[Sequence[int]]):
    """Dual sphere triangulation of an abstract trivalent polyhedron.

    Faces of the polyhedron become vertices (indexed by face position) and
    trivalent polyhedron vertices become triangles.  Returns the
    triangulation together with the edge bijection in both directions:
    ``(t, poly_edge -> edge id, edge id -> poly_edge)``.
    """
    for cycle in poly_faces:
        if len(cycle) < 3:
            raise DegenerateFace(f"face cycle {tuple(cycle)} too short")
        if len(set(cycle)) != len(cycle):
            raise DegenerateFace(f"face cycle {tuple(cycle)} repeats a vertex")
    size = np.array([len(cycle) for cycle in poly_faces], dtype=np.intp)
    tail = np.array([int(v) for cycle in poly_faces for v in cycle], dtype=np.intp)
    face = np.repeat(np.arange(len(size)), size)
    start = (np.cumsum(size) - size)[face]
    head = tail[start + (np.arange(len(tail)) - start + 1) % size[face]]
    pairs = _twins(tail, head, "polyhedron edge")
    order, first = _group(tail)
    degree = np.diff(np.r_[first, len(order)])
    bad = np.flatnonzero(degree != 3)
    if len(bad):
        g = bad[np.argmin(order[first[bad]])]
        raise NotTrivalent(f"polyhedron vertex {tail[order[first[g]]]} has degree {degree[g]}")
    chi = len(first) - len(pairs) + len(size)
    if chi != 2:
        raise NotASphere(f"polyhedron Euler characteristic {chi}")

    # the dual faces: each vertex's three faces, ascending, vertices ascending
    t = build_triangulation(face[order].reshape(-1, 3))
    eids = t.edge_ids(*face[pairs].T).tolist()  # joining the two faces on each edge
    u, v = tail[pairs[:, 0]], head[pairs[:, 0]]
    edges = list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    to_dual, to_primal = dict(zip(edges, eids)), dict(zip(eids, edges))
    if len(to_primal) != t.edge_count:
        raise NonManifold("edge bijection is not one-to-one")
    return t, to_dual, to_primal


def polyhedron_from_triangulation(t: Triangulation) -> List[Tuple[int, ...]]:
    """Face cycles of the trivalent polyhedron dual to a triangulation.

    Face i of the polyhedron is the (cyclically ordered) list of faces of
    ``t`` around vertex i; the polyhedron's vertices are t's face ids.
    """
    return [tuple(t.vertex_faces[v]) for v in range(t.vertex_count)]
