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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations
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

    @cached_property
    def star(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``vertex_faces`` and ``link_cycles`` flat, as (offsets, faces,
        ring): those of v at offsets[v]:offsets[v + 1], face i of v spanned
        by its ring vertices i and i + 1."""
        deg = np.fromiter(map(len, self.link_cycles), np.intp, self.vertex_count)
        offsets = np.r_[0, np.cumsum(deg)]
        faces = np.fromiter(chain.from_iterable(self.vertex_faces), np.intp, offsets[-1])
        ring = np.fromiter(chain.from_iterable(self.link_cycles), np.intp, offsets[-1])
        return offsets, faces, ring

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
    edges = tuple(zip(lo.tolist(), hi.tolist()))
    twin = np.empty(3 * k, dtype=np.intp)
    twin[pairs] = pairs[:, ::-1]
    flip = _orient(twin, tail == tail[twin])
    oriented = tri.copy()
    oriented[flip, 1:] = tri[flip, :0:-1]

    chi = n - len(edges) + k
    if chi != 2:
        raise NotASphere(f"V - E + F = {chi}, expected 2")

    # in a flipped face (a, c, b) slot s holds the edge of old slot 2 - s
    h = np.arange(3 * k)
    moved = np.where(flip[h // 3], h - h % 3 + 2 - h % 3, h)
    twin[moved] = moved[twin]
    offsets, star = _stars(n, oriented.ravel(), twin)
    around = (star // 3).tolist()
    ring = oriented[:, [1, 2, 0]].ravel()[star].tolist()
    spans = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    return Triangulation(
        vertex_count=n,
        faces=tuple(map(tuple, oriented.tolist())),
        edges=edges,
        edge_index=dict(zip(edges, range(len(edges)))),
        edge_faces=tuple(map(tuple, (pairs // 3).tolist())),
        vertex_faces=tuple(tuple(around[i:j]) for i, j in spans),
        link_cycles=tuple(tuple(ring[i:j]) for i, j in spans),
        orientation_flipped=bool(flip.any()),
        face_index={frozenset(f): i for i, f in enumerate(tri.tolist())},
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


def _owner_rows(owners: np.ndarray, start: np.ndarray, size: np.ndarray):
    """Index pairs (a, b) pairing each item a with every row b of its
    owner, whose rows are start[owner] .. start[owner] + size[owner] - 1."""
    counts = size[owners]
    a = np.repeat(np.arange(len(owners)), counts)
    b = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start[owners], counts)
    return a, b


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
        run, slot = _owner_rows(np.arange(len(paths)), ptr[paths[:, -1]], out)
        w = nbr[slot]
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
        slot = np.arange(len(nbr))
        first, later = _owner_rows(slot, slot + 1, ptr[owner + 1] - slot - 1)
        u, v, w = nbr[first], owner[first], nbr[later]
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

    # the open star is what the subset's vertex stars hold; a link pair is
    # a side of a face around v, of the ring vertices u and w, off the subset
    spokes, sides = t.star_edge_ids
    star_faces = tuple(sorted({f for v in a for f in t.vertex_faces[v]}))
    star_edges = tuple(sorted({e for v in a for e in spokes[v]}))
    link_pairs = sorted([(e, v) for v in a for u, w, e in zip(
        t.link_cycles[v], t.link_cycles[v][1:] + t.link_cycles[v][:1], sides[v])
        if u not in a and w not in a])
    components, left = [], set(a)
    while left:  # grown from the lowest vertex left, so in order of their minima
        comp, todo = set(), [min(left)]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp.add(v)
                todo += [w for w in t.neighbors(v) if w in left]
        components.append(frozenset(comp))
        left -= comp

    return VertexSubsetGeometry(a, star_edges, star_faces, tuple(link_pairs),
                                len(a) - len(star_edges) + len(star_faces), tuple(components))


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
