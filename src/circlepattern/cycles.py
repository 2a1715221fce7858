"""Circuits of a triangulation: its simple closed cycles and its two-edge
arcs, enumerated as index arrays and classified by face lookups.

The commands that check the angle conditions (validate, solve) or read
the 3-cycles (verify) load this module; render and polyhedron do not.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Tuple

import numpy as np

from .errors import LimitExceeded
from .triangulation import Face, Triangulation, _owner_rows

DEFAULT_CYCLE_CAP = 10 ** 6


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
    cols = {"vertices": verts, "edges": t.edge_ids(verts, verts[:, np.r_[1:k, 0]]),
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
