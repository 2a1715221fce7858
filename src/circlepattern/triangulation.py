"""Oriented triangulations of the 2-sphere and their circuit combinatorics.

Vertices are dense integers 0..n-1; edges are canonicalized as (min, max)
pairs and addressed by dense edge ids.  A Triangulation is immutable after
construction and all queries are read-only.
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateFace,
    EmptySubset,
    FullSubset,
    InconsistentOrientation,
    LimitExceeded,
    NonManifold,
    NotASphere,
    NotTrivalent,
)

Edge = Tuple[int, int]
Face = Tuple[int, int, int]

DEFAULT_CYCLE_CAP = 10 ** 6


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Triangulation:
    """Validated oriented simplicial triangulation of the 2-sphere."""

    vertex_count: int
    faces: Tuple[Face, ...]
    edges: Tuple[Edge, ...]
    edge_index: Dict[Edge, int]
    edge_faces: Tuple[Tuple[int, int], ...]
    vertex_faces: Tuple[Tuple[int, ...], ...]   # cyclic order around the vertex
    link_cycles: Tuple[Tuple[int, ...], ...]    # neighbor cycle around the vertex
    orientation_flipped: bool
    face_index: Dict[FrozenSet[int], int]      # vertex set -> face id
    # cycle_arrays results by max_len and two_arc_arrays under "arcs"; not
    # part of the value
    _circuits: Dict[object, object] = field(default_factory=dict, init=False, compare=False,
                                            repr=False)

    # -- basic queries ------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
    def edge_array(self) -> np.ndarray:
        return np.array(self.edges, dtype=np.intp).reshape(-1, 2)

    @cached_property
    def face_array(self) -> np.ndarray:
        return np.array(self.faces, dtype=np.intp)

    @cached_property
    def edge_face_array(self) -> np.ndarray:
        return np.array(self.edge_faces, dtype=np.intp)

    def edge_ids(self, u, v) -> np.ndarray:
        """``edge_id`` over arrays, with -1 where u and v are not adjacent."""
        n = self.vertex_count
        keys = self.edge_array[:, 0] * n + self.edge_array[:, 1]  # increasing, as edges are sorted
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


def build_triangulation(faces: Sequence[Sequence[int]], vertex_count: Optional[int] = None) -> Triangulation:
    """Validate a face list and derive all incidence structure.

    The input winding is not trusted: orientation is repaired by a BFS over
    face adjacency, and a flag records whether any face was flipped.
    """
    if not faces:
        raise DegenerateFace("empty face list")
    clean: List[Face] = []
    face_index: Dict[FrozenSet[int], int] = {}
    for f in faces:
        if len(f) != 3:
            raise DegenerateFace(f"face {tuple(f)} is not a triple")
        a, b, c = (int(x) for x in f)
        if len({a, b, c}) != 3:
            raise DegenerateFace(f"face {(a, b, c)} has repeated vertices")
        if min(a, b, c) < 0:
            raise DegenerateFace(f"face {(a, b, c)} has negative vertex ids")
        if face_index.setdefault(frozenset((a, b, c)), len(clean)) != len(clean):
            raise DegenerateFace(f"face {(a, b, c)} is repeated")
        clean.append((a, b, c))
    n = max(max(f) for f in clean) + 1
    if vertex_count is not None:
        if vertex_count < n:
            raise DegenerateFace("vertex_count smaller than largest face index")
        n = vertex_count

    edge_to_faces: Dict[Edge, List[int]] = defaultdict(list)
    for fid, (a, b, c) in enumerate(clean):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_to_faces[canonical_edge(u, v)].append(fid)
    for e, fs in edge_to_faces.items():
        if len(fs) != 2:
            raise NonManifold(f"edge {e} lies in {len(fs)} faces")

    oriented = _repair_orientation(clean, edge_to_faces)
    flipped = oriented != clean

    # Euler characteristic must be the sphere's
    m = len(edge_to_faces)
    chi = n - m + len(oriented)
    if chi != 2:
        raise NotASphere(f"V - E + F = {chi}, expected 2")

    edges = tuple(sorted(edge_to_faces))
    edge_index = {e: i for i, e in enumerate(edges)}
    edge_faces = tuple(tuple(sorted(edge_to_faces[e])) for e in edges)

    vertex_faces, link_cycles = _vertex_stars(n, oriented, edge_to_faces)

    return Triangulation(
        vertex_count=n,
        faces=tuple(oriented),
        edges=edges,
        edge_index=edge_index,
        edge_faces=edge_faces,
        vertex_faces=vertex_faces,
        link_cycles=link_cycles,
        orientation_flipped=flipped,
        face_index=face_index,
    )


def _repair_orientation(faces: List[Face], edge_to_faces) -> List[Face]:
    """Flip faces so every edge is traversed once in each direction."""
    flip = [None] * len(faces)
    for root in range(len(faces)):
        if flip[root] is not None:
            continue
        flip[root] = False
        queue = deque([root])
        while queue:
            fid = queue.popleft()
            a, b, c = faces[fid]
            directed = ((a, b), (b, c), (c, a))
            if flip[fid]:
                directed = tuple((v, u) for (u, v) in directed)
            for (u, v) in directed:
                for gid in edge_to_faces[canonical_edge(u, v)]:
                    if gid == fid:
                        continue
                    ga, gb, gc = faces[gid]
                    gdir = ((ga, gb), (gb, gc), (gc, ga))
                    # the neighbor must traverse (v, u); it traverses (u, v)
                    # in its stored winding iff (u, v) in gdir
                    needs_flip = (u, v) in gdir
                    if flip[gid] is None:
                        flip[gid] = needs_flip
                        queue.append(gid)
                    elif flip[gid] != needs_flip:
                        raise InconsistentOrientation(
                            f"faces {fid} and {gid} cannot be oriented consistently"
                        )
    out = []
    for fid, (a, b, c) in enumerate(faces):
        out.append((a, c, b) if flip[fid] else (a, b, c))
    return out


def _vertex_stars(n, faces, edge_to_faces):
    """Cyclic face and neighbor orders around each vertex.

    Walking the star also proves every vertex link is a single cycle.
    """
    incident: List[List[int]] = [[] for _ in range(n)]
    for fid, f in enumerate(faces):
        for v in f:
            incident[v].append(fid)
    vertex_faces = []
    link_cycles = []
    for v in range(n):
        fs = incident[v]
        if not fs:
            raise NonManifold(f"vertex {v} has no incident faces")
        start = min(fs)
        order = [start]
        a, b = _others(faces[start], v)
        first, cur = a, b
        ring = [a]
        while cur != first:
            ring.append(cur)
            e = canonical_edge(v, cur)
            nxts = [g for g in edge_to_faces[e] if g != order[-1]]
            if len(nxts) != 1:
                raise NonManifold(f"broken star at vertex {v}")
            nxt = nxts[0]
            if nxt in order:
                raise NonManifold(f"vertex {v} link is not a single cycle")
            order.append(nxt)
            x, y = _others(faces[nxt], v)
            cur = y if x == cur else x
        if len(order) != len(fs):
            raise NonManifold(f"vertex {v} link is not a single cycle")
        vertex_faces.append(tuple(order))
        link_cycles.append(tuple(ring))
    return tuple(vertex_faces), tuple(link_cycles)


def _others(face: Face, v: int) -> Tuple[int, int]:
    """The two vertices after v in the face's cyclic order."""
    a, b, c = face
    if v == a:
        return b, c
    if v == b:
        return c, a
    return a, b


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """A closed simple cycle or open two-edge arc in the 1-skeleton.

    The flags of a closed cycle come from face lookups on its vertices.
    """

    vertices: Tuple[int, ...]
    edges: Tuple[int, ...]
    kind: str  # "closed" or "arc"
    is_face_boundary: bool = False
    is_two_triangle_boundary: bool = False
    separates_vertices: bool = False
    is_prismatic: bool = False
    is_whitehead: bool = False
    is_essential_whitehead: bool = False
    is_homologically_non_adjacent: bool = False

    def __len__(self) -> int:
        return len(self.edges)


# circuits of one kind and length as index arrays: columns named by the
# ``Circuit`` field they hold, one row per circuit (absent flags are false)
Columns = Dict[str, np.ndarray]


def _circuits(kind: str, cols: Columns) -> List[Circuit]:
    rows = zip(*(map(tuple, c.tolist()) if c.ndim == 2 else c.tolist() for c in cols.values()))
    return [Circuit(kind=kind, **dict(zip(cols, row))) for row in rows]


def enumerate_simple_cycles(
    t: Triangulation, max_len: int, cap: int = DEFAULT_CYCLE_CAP
) -> List[Circuit]:
    """All simple closed cycles of length <= max_len, classified by face
    lookups, ordered by (length, vertices); built on each call from the
    index arrays of ``cycle_arrays``."""
    return [c for cols in cycle_arrays(t, max_len, cap) for c in _circuits("closed", cols)]


def cycle_arrays(t: Triangulation, max_len: int,
                 cap: int = DEFAULT_CYCLE_CAP) -> Tuple[Columns, ...]:
    """The simple closed cycles of lengths 3..max_len as ``Columns``, one
    per length; raises LimitExceeded past ``cap`` cycles.  They are kept on
    ``t``, so every later call with the same ``max_len`` reuses them."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    cycles = t._circuits.get(max_len)
    if cycles is None:
        cycles = t._circuits[max_len] = tuple(
            _classify_cycles(t, rows) for rows in _enumerate_cycles(t, max_len, cap))
    if sum(len(c["vertices"]) for c in cycles) > cap:
        raise LimitExceeded(f"more than {cap} cycles")
    return cycles


# paths extended at once by the cycle frontier; bounds its memory
_ROW_BUDGET = 1 << 15


def _runs(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of the given lengths: each slot's run and its
    position within the run."""
    ends = np.cumsum(counts)
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (ends - counts)[run]


def _enumerate_cycles(t: Triangulation, max_len: int, cap: int) -> List[np.ndarray]:
    """Vertex rows of the simple cycles of each length 3..max_len, sorted.

    Paths grow from each start vertex s through vertices above s, never
    revisiting one, and close when the last vertex is adjacent to s and the
    second lies below the last: each cycle appears once, in canonical form
    (smallest vertex first, smaller neighbour second).  Blocks of paths are
    extended depth first, and halved until their extension fits the budget.
    """
    ptr, nbr = t.adjacency
    deg = np.diff(ptr)
    found = [[np.empty((0, k), dtype=np.intp)] for k in range(3, max_len + 1)]
    count = 0
    stack = [np.arange(t.vertex_count)[:, None]]
    while stack:
        paths = stack.pop()
        out = deg[paths[:, -1]]
        if out.sum() > _ROW_BUDGET and len(paths) > 1:
            stack += [paths[len(paths) // 2:], paths[:len(paths) // 2]]
            continue
        run, pos = _runs(out)
        w = nbr[ptr[paths[:, -1]][run] + pos]
        up = w > paths[:, 0][run]
        paths = np.column_stack((paths[run[up]], w[up]))
        paths = paths[(paths[:, 1:-1] != paths[:, -1:]).all(axis=1)]
        length = paths.shape[1]
        if length >= 3:
            closed = paths[(paths[:, 1] < paths[:, -1])
                           & (t.edge_ids(paths[:, 0], paths[:, -1]) >= 0)]
            found[length - 3].append(closed)
            count += len(closed)
            if count > cap:
                raise LimitExceeded(f"more than {cap} cycles")
        if length < max_len:
            stack.append(paths)
    rows = [np.concatenate(f) for f in found]
    return [r[np.lexsort(r.T[::-1])] for r in rows]


def _classify_cycles(t: Triangulation, verts: np.ndarray) -> Columns:
    """The flags of the k-cycles in ``verts``, from face lookups.

    A side of a k-cycle with no vertex off it is a triangulated k-gon of
    k - 2 faces; conversely, faces of ``t`` that triangulate the k-gon form
    an embedded disk bounded by the cycle, one whole side.  So a cycle
    separates unless one of the k-gon's Catalan(k - 2) triangulations is
    made of faces: at k = 3 the cycle bounds a face, at k = 4 two adjacent
    triangles.
    """
    k = verts.shape[1]
    spans = {tri: _spans_face(t, *verts[:, tri].T) for tri in combinations(range(k), 3)}
    disk = np.zeros(len(verts), dtype=bool)
    for tris in _polygon_triangulations(0, k - 1):
        disk |= np.logical_and.reduce([spans[tri] for tri in tris])
    # cycle edges i and i + 1 share a face: the triangle of their three
    # vertices; only consecutive edges can, so without such a corner the
    # cycle's edges lie in 2k distinct faces
    corner = np.column_stack([spans[tuple(sorted({i, (i + 1) % k, (i + 2) % k}))]
                              for i in range(k)])
    cols = {"vertices": verts, "edges": t.edge_ids(verts, np.roll(verts, -1, axis=1)),
            "is_prismatic": ~corner.any(axis=1)}
    if k == 3:
        cols["is_face_boundary"] = disk
    elif k == 4:
        cols["is_two_triangle_boundary"] = cols["is_whitehead"] = disk
        # essential iff some splitting into two arcs has non-adjacent
        # endpoints, i.e. some diagonal of the quadrilateral is a non-edge
        a, b, c, d = verts.T
        cols["is_essential_whitehead"] = disk & (
            (t.edge_ids(a, c) < 0) | (t.edge_ids(b, d) < 0))
    cols["separates_vertices"] = ~disk
    return cols


def _spans_face(t: Triangulation, a, b, c) -> np.ndarray:
    """Whether each row's vertices a, b, c are the vertices of a face."""
    eid = t.edge_ids(a, b)
    on = t.face_array[t.edge_face_array[eid]]  # the two faces on edge ab
    return (eid >= 0) & (on == c[:, None, None]).any(axis=(1, 2))


@lru_cache(maxsize=None)
def _polygon_triangulations(lo: int, hi: int) -> Tuple[Tuple[Face, ...], ...]:
    """Every triangulation of the convex polygon with corners lo, lo + 1,
    ..., hi, as triples of corners: Catalan(hi - lo - 1) of them.  The side
    lo-hi lies in one triangle (lo, m, hi), which splits off two polygons."""
    if hi - lo < 2:
        return ((),)
    return tuple(left + ((lo, m, hi),) + right for m in range(lo + 1, hi)
                 for left in _polygon_triangulations(lo, m)
                 for right in _polygon_triangulations(m, hi))


def enumerate_two_arcs(t: Triangulation) -> List[Circuit]:
    """All two-edge open arcs u-v-w, flagged homologically non-adjacent
    when their endpoints are not joined by an edge."""
    return _circuits("arc", two_arc_arrays(t))


def two_arc_arrays(t: Triangulation) -> Columns:
    """The rows of ``enumerate_two_arcs``, sorted by (u, v, w); kept on ``t``."""
    if "arcs" not in t._circuits:
        ptr, nbr = t.adjacency
        # neighbour slot p of v pairs with v's later slots
        owner = np.repeat(np.arange(t.vertex_count), np.diff(ptr))
        first, pos = _runs(ptr[owner + 1] - np.arange(len(nbr)) - 1)
        u, v, w = nbr[first], owner[first], nbr[first + 1 + pos]
        order = np.lexsort((w, v, u))
        u, v, w = u[order], v[order], w[order]
        t._circuits["arcs"] = {
            "vertices": np.column_stack((u, v, w)),
            "edges": np.column_stack((t.edge_ids(u, v), t.edge_ids(v, w))),
            "is_homologically_non_adjacent": t.edge_ids(u, w) < 0}
    return t._circuits["arcs"]


# ---------------------------------------------------------------------------
# vertex-subset stars and links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexSubsetGeometry:
    """Open star of a vertex subset: simplex counts, link pairs, and the
    compactly-supported Euler characteristic."""

    subset: FrozenSet[int]
    star_edges: Tuple[int, ...]
    star_faces: Tuple[int, ...]
    link_pairs: Tuple[Tuple[int, int], ...]  # (edge id, vertex in subset)
    euler_char: int
    components: Tuple[FrozenSet[int], ...]


def subset_geometry(t: Triangulation, subset: Iterable[int]) -> VertexSubsetGeometry:
    a = frozenset(int(v) for v in subset)
    if not a:
        raise EmptySubset("subset is empty")
    if len(a) >= t.vertex_count:
        raise FullSubset("subset must be proper")
    if any(v < 0 or v >= t.vertex_count for v in a):
        raise ValueError("vertex id out of range")

    star_edges = tuple(
        eid for eid, (u, v) in enumerate(t.edges) if u in a or v in a
    )
    star_faces = tuple(
        fid for fid, f in enumerate(t.faces) if any(v in a for v in f)
    )
    link_pairs = []
    for fid in star_faces:
        f = t.faces[fid]
        for v in f:
            if v in a:
                u, w = [x for x in f if x != v]
                if u not in a and w not in a:
                    link_pairs.append((t.edge_id(u, w), v))
    link_pairs.sort()
    chi = len(a) - len(star_edges) + len(star_faces)

    components = []
    left = set(a)
    while left:
        root = min(left)
        comp = {root}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in t.neighbors(v):
                if w in left and w not in comp:
                    comp.add(w)
                    queue.append(w)
        components.append(frozenset(comp))
        left -= comp
    components.sort(key=min)

    return VertexSubsetGeometry(
        subset=a,
        star_edges=star_edges,
        star_faces=star_faces,
        link_pairs=tuple(link_pairs),
        euler_char=chi,
        components=tuple(components),
    )


# ---------------------------------------------------------------------------
# trivalent polyhedra and duality
# ---------------------------------------------------------------------------

def _polyhedron_edges(poly_faces: Sequence[Sequence[int]]) -> Dict[Edge, List[int]]:
    edge_to_faces: Dict[Edge, List[int]] = defaultdict(list)
    for fid, cycle in enumerate(poly_faces):
        if len(cycle) < 3:
            raise DegenerateFace(f"face cycle {tuple(cycle)} too short")
        if len(set(cycle)) != len(cycle):
            raise DegenerateFace(f"face cycle {tuple(cycle)} repeats a vertex")
        k = len(cycle)
        for i in range(k):
            e = canonical_edge(int(cycle[i]), int(cycle[(i + 1) % k]))
            edge_to_faces[e].append(fid)
    for e, fs in edge_to_faces.items():
        if len(fs) != 2:
            raise NonManifold(f"polyhedron edge {e} lies in {len(fs)} faces")
    return edge_to_faces


def dual_of_trivalent(poly_faces: Sequence[Sequence[int]]):
    """Dual sphere triangulation of an abstract trivalent polyhedron.

    Faces of the polyhedron become vertices (indexed by face position) and
    trivalent polyhedron vertices become triangles.  Returns the
    triangulation together with the edge bijection in both directions:
    ``(t, poly_edge -> edge id, edge id -> poly_edge)``.
    """
    edge_to_faces = _polyhedron_edges(poly_faces)
    vertex_faces: Dict[int, List[int]] = defaultdict(list)
    for fid, cycle in enumerate(poly_faces):
        for v in cycle:
            vertex_faces[int(v)].append(fid)
    for v, fs in vertex_faces.items():
        if len(fs) != 3:
            raise NotTrivalent(f"polyhedron vertex {v} has degree {len(fs)}")
    n_p = len(vertex_faces)
    chi = n_p - len(edge_to_faces) + len(poly_faces)
    if chi != 2:
        raise NotASphere(f"polyhedron Euler characteristic {chi}")

    dual_faces = [tuple(sorted(vertex_faces[v])) for v in sorted(vertex_faces)]
    t = build_triangulation(dual_faces)

    to_dual: Dict[Edge, int] = {}
    to_primal: Dict[int, Edge] = {}
    for e, (f, g) in edge_to_faces.items():
        eid = t.edge_id(f, g)
        to_dual[e] = eid
        to_primal[eid] = e
    if len(to_primal) != t.edge_count:
        raise NonManifold("edge bijection is not one-to-one")
    return t, to_dual, to_primal


def polyhedron_from_triangulation(t: Triangulation) -> List[Tuple[int, ...]]:
    """Face cycles of the trivalent polyhedron dual to a triangulation.

    Face i of the polyhedron is the (cyclically ordered) list of faces of
    ``t`` around vertex i; the polyhedron's vertices are t's face ids.
    """
    return [tuple(t.vertex_faces[v]) for v in range(t.vertex_count)]
