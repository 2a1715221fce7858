"""Independent oracles used by the test suite.

Everything here is deliberately written with different machinery from the
library: subset brute force instead of frontier enumeration, union-find
face grouping instead of BFS flood fill, GF(2) homology ranks instead of
simplex counting, and direct trigonometric formulas instead of the kernel
helpers.  The reference condition engine is the per-circuit DFS and loops
that the library's index-array kernel replaced, the references for the
verifier's exact irreducibility and flower tests sample each disk, the
three-circle relations are the per-triple scalar code that the library's
row-wise relations replaced, the near pairs are the all-pairs tests
that the library's sort-and-sweep kernel replaced, and the reference
triangulation build and subset scan are the dict-of-lists, BFS and star
walk loops that the library's half-edge table replaced, and the
feasibility margin is the compensated scalar sum that one row of the
library's array kernel replaced, and the polyhedron's convexity slack is
the dense vertex-by-plane array that its point query replaced.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from collections import defaultdict, deque
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from circlepattern import errors, triple_records, triples

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
# reference condition engine: the per-circuit DFS, flood and loops that the
# index array kernel replaced; every output must serialize identically
# ---------------------------------------------------------------------------

def canonical_cycle(verts: Tuple[int, ...]) -> Tuple[int, ...]:
    """Lexicographically smallest rotation/reflection of a vertex cycle."""
    k = len(verts)
    return min(seq[s:] + seq[:s] for seq in (verts, verts[::-1]) for s in range(k))


def dfs_cycles(t, max_len: int) -> List[Tuple[int, ...]]:
    """Simple cycles of length 3..max_len by DFS anchored at each minimum
    vertex, deduplicated by canonical form, sorted by (length, vertices)."""
    seen: Set[Tuple[int, ...]] = set()
    for s in range(t.vertex_count):
        stack = [(s,)]
        while stack:
            path = stack.pop()
            for w in t.neighbors(path[-1]):
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    seen.add(canonical_cycle(path))
                elif w > s and w not in path and len(path) < max_len:
                    stack.append(path + (w,))
    return sorted(seen, key=lambda c: (len(c), c))


def flood_separates(t, verts, eids) -> bool:
    """Both sides of the cycle hold a vertex off it: flood the faces of each
    side from the cycle's first edge, across edges not on the cycle."""
    on_cycle, blocked = set(verts), set(eids)

    def side_has_interior(root: int) -> bool:
        seen, stack = {root}, [root]
        while stack:
            fid = stack.pop()
            if not on_cycle.issuperset(t.faces[fid]):
                return True
            for e in t.face_edge_ids(fid):
                if e not in blocked:
                    for gid in t.edge_faces[e]:
                        if gid not in seen:
                            seen.add(gid)
                            stack.append(gid)
        return False

    return all(side_has_interior(root) for root in t.edge_faces[eids[0]])


def reference_circuit(t, verts: Tuple[int, ...]):
    """One closed cycle classified by face-set lookups and the flood."""
    from circlepattern import Circuit

    k = len(verts)
    eids = tuple(t.edge_id(verts[i], verts[(i + 1) % k]) for i in range(k))
    two_tri = essential = False
    if k == 4:
        for (p, q, r, s) in ((0, 1, 2, 3), (1, 2, 3, 0)):
            if t.has_edge(verts[p], verts[r]) and t.is_face((verts[p], verts[q], verts[r])) \
                    and t.is_face((verts[p], verts[r], verts[s])):
                two_tri = True
        essential = two_tri and not (t.has_edge(verts[0], verts[2])
                                     and t.has_edge(verts[1], verts[3]))
    incident = {f for e in eids for f in t.edge_faces[e]}
    return Circuit(verts, eids, "closed", is_face_boundary=k == 3 and t.is_face(verts),
                   is_two_triangle_boundary=two_tri,
                   separates_vertices=flood_separates(t, verts, eids),
                   is_prismatic=len(incident) == 2 * k, is_whitehead=two_tri,
                   is_essential_whitehead=essential)


def reference_cycles(t, max_len: int) -> list:
    return [reference_circuit(t, c) for c in dfs_cycles(t, max_len)]


def reference_two_arcs(t) -> list:
    from circlepattern import Circuit

    arcs = [Circuit((u, v, w), (t.edge_id(u, v), t.edge_id(v, w)), "arc",
                    is_homologically_non_adjacent=not t.has_edge(u, w))
            for v in range(t.vertex_count)
            for u, w in itertools.combinations(sorted(t.neighbors(v)), 2)]
    return sorted(arcs, key=lambda c: c.vertices)


def reference_violations(t, vals, label, tags, keep, min_face_sum=None) -> list:
    """Face, arc, 3- and 4-cycle violations, one circuit at a time."""
    from circlepattern.conditions import Violation, compare, is_triangular_bipyramid

    out = []
    for fid in range(t.face_count):
        eids = t.face_edge_ids(fid)
        edges = tuple(map(label, eids))
        th = [vals[e] for e in eids]
        if min_face_sum is not None and compare(sum(th), min_face_sum) <= 0:
            out.append(Violation(tags[0], t.faces[fid], edges, sum(th), min_face_sum))
        for k in range(3):
            lhs, bound = th[(k + 1) % 3] + th[(k + 2) % 3], th[k] + PI
            if compare(lhs, bound) >= 0:
                out.append(Violation(tags[0], t.faces[fid], edges, lhs, bound))
    arc_out, any_strict = [], False
    non_adjacent = [a for a in reference_two_arcs(t) if a.is_homologically_non_adjacent]
    for arc in non_adjacent:
        lhs = vals[arc.edges[0]] + vals[arc.edges[1]]
        if compare(lhs, PI) > 0:
            arc_out.append(Violation(tags[1], arc.vertices, tuple(map(label, arc.edges)), lhs, PI))
        any_strict |= compare(lhs, PI) < 0
    if non_adjacent and is_triangular_bipyramid(t) and not any_strict and not arc_out:
        arc = non_adjacent[0]
        arc_out.append(Violation(f"{tags[1]}-strict", arc.vertices, tuple(map(label, arc.edges)),
                                 vals[arc.edges[0]] + vals[arc.edges[1]], PI))
    out += arc_out
    for cyc in reference_cycles(t, 4):
        if getattr(cyc, keep):
            k = len(cyc)
            lhs, bound = sum(vals[e] for e in cyc.edges), PI if k == 3 else 2.0 * PI
            if compare(lhs, bound) >= 0:
                out.append(Violation(tags[k - 1], cyc.vertices, tuple(map(label, cyc.edges)),
                                     lhs, bound))
    return out


def _report(requested, violations, tags, extra=None):
    from circlepattern.conditions import ConditionReport

    failed = {v.condition.split("-")[0] for v in violations}
    flags = {tag: tag not in failed for tag in tags}
    flags.update(extra or {})
    return ConditionReport(requested, all(flags.values()), flags, violations)


def reference_classify(t, theta, requested: str = "marden"):
    """``classify`` from the reference engine."""
    from circlepattern.conditions import MARDEN_TAGS, compare

    violations = reference_violations(t, theta.values, t.edges.__getitem__, MARDEN_TAGS,
                                      "separates_vertices")
    sums = [sum(theta[e] for e in t.face_edge_ids(fid)) for fid in range(t.face_count)]
    report = _report(requested, violations, MARDEN_TAGS)
    flags = report.class_flags
    flags["m5"] = (all(compare(s, PI) >= 0 for s in sums)
                   and all(compare(v, 0.0) > 0 for v in theta.values) and t.vertex_count > 4)
    flags["g5"] = any(compare(s, PI) < 0 for s in sums)
    flags["marden"] = all(flags[tag] for tag in MARDEN_TAGS)
    flags["w_m"] = flags["marden"] and flags["m5"]
    flags["w_g"] = flags["marden"] and flags["g5"]
    report.passed = flags[{"marden": "marden", "m5": "w_m", "g5": "w_g"}[requested]]
    return report


def reference_andreev(poly_faces, theta):
    """``check_andreev`` from the reference engine, for angles in (0, pi)."""
    from circlepattern.conditions import ANDREEV_TAGS
    from circlepattern.triangulation import canonical_edge, dual_of_trivalent

    t, to_dual, to_primal = dual_of_trivalent(poly_faces)
    vals = [0.0] * t.edge_count
    for pe, v in theta.items():
        vals[to_dual[canonical_edge(*pe)]] = float(v)
    violations = reference_violations(t, vals, to_primal.__getitem__, ANDREEV_TAGS,
                                      "is_prismatic", min_face_sum=PI)
    return _report("andreev", violations, ANDREEV_TAGS)


def reference_audit(t, theta, max_len: int):
    """``audit_circuit_sums`` one ``Circuit`` at a time, for admissible data."""
    from circlepattern import enumerate_simple_cycles
    from circlepattern.conditions import ConditionReport, Violation, compare

    audit, alarms = [], []
    for cyc in enumerate_simple_cycles(t, max_len):
        if cyc.is_face_boundary:
            continue
        k = len(cyc)
        lhs = sum(theta[e] for e in cyc.edges)
        bound = (k - 2) * PI
        strict = not cyc.is_two_triangle_boundary
        cmp = compare(lhs, bound)
        ok = cmp < 0 if strict else cmp <= 0
        audit.append({"cycle": list(cyc.vertices), "sum": lhs, "bound": bound, "strict": strict,
                      "ok": ok})
        if not ok:
            alarms.append(Violation("audit", cyc.vertices, tuple(t.edges[e] for e in cyc.edges),
                                    lhs, bound))
    return ConditionReport("audit", not alarms, {"audit": not alarms}, alarms, audit)


# ---------------------------------------------------------------------------
# reference triangulation build and subset scan
# ---------------------------------------------------------------------------

def reference_build(faces, vertex_count=None):
    """``build_triangulation`` as loops: an edge -> faces dict, a BFS that
    repairs the orientation and a walk around each vertex's star.  Returns
    the value fields and the tuple and dict views of a ``Triangulation``
    by name."""
    from circlepattern.triangulation import canonical_edge

    if not len(faces):
        raise errors.DegenerateFace("empty face list")
    clean = []
    face_index = {}
    for f in faces:
        if len(f) != 3:
            raise errors.DegenerateFace(f"face {tuple(f)} is not a triple")
        a, b, c = (int(x) for x in f)
        if len({a, b, c}) != 3:
            raise errors.DegenerateFace(f"face {(a, b, c)} has repeated vertices")
        if min(a, b, c) < 0:
            raise errors.DegenerateFace(f"face {(a, b, c)} has negative vertex ids")
        if face_index.setdefault(frozenset((a, b, c)), len(clean)) != len(clean):
            raise errors.DegenerateFace(f"face {(a, b, c)} is repeated")
        clean.append((a, b, c))
    n = max(max(f) for f in clean) + 1
    if vertex_count is not None:
        if vertex_count < n:
            raise errors.DegenerateFace("vertex_count smaller than largest face index")
        n = vertex_count

    edge_to_faces = defaultdict(list)
    for fid, (a, b, c) in enumerate(clean):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_to_faces[canonical_edge(u, v)].append(fid)
    for e, fs in edge_to_faces.items():
        if len(fs) != 2:
            raise errors.NonManifold(f"edge {e} lies in {len(fs)} faces")

    oriented = _reference_orientation(clean, edge_to_faces)
    chi = n - len(edge_to_faces) + len(oriented)
    if chi != 2:
        raise errors.NotASphere(f"V - E + F = {chi}, expected 2")
    edges = tuple(sorted(edge_to_faces))
    vertex_faces, link_cycles = _reference_stars(n, oriented, edge_to_faces)
    return {
        "vertex_count": n,
        "faces": tuple(oriented),
        "edges": edges,
        "edge_index": {e: i for i, e in enumerate(edges)},
        "edge_faces": tuple(tuple(sorted(edge_to_faces[e])) for e in edges),
        "vertex_faces": vertex_faces,
        "link_cycles": link_cycles,
        "orientation_flipped": oriented != clean,
        "face_index": face_index,
    }


def _reference_orientation(faces, edge_to_faces):
    """Flip faces, by a BFS from the lowest face of each component, so that
    every edge is traversed once in each direction."""
    from circlepattern.triangulation import canonical_edge

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
                    # the neighbour must traverse (v, u); it traverses (u, v)
                    # in its stored winding iff (u, v) is one of its sides
                    needs_flip = (u, v) in ((ga, gb), (gb, gc), (gc, ga))
                    if flip[gid] is None:
                        flip[gid] = needs_flip
                        queue.append(gid)
                    elif flip[gid] != needs_flip:
                        raise errors.InconsistentOrientation(
                            f"faces {fid} and {gid} cannot be oriented consistently")
    return [(a, c, b) if flip[fid] else (a, b, c) for fid, (a, b, c) in enumerate(faces)]


def _reference_stars(n, faces, edge_to_faces):
    """Cyclic face and neighbour orders around each vertex, walked one
    face at a time from its lowest face."""
    from circlepattern.triangulation import canonical_edge

    def others(face, v):  # the two vertices after v in the face's cyclic order
        a, b, c = face
        return (b, c) if v == a else (c, a) if v == b else (a, b)

    incident = [[] for _ in range(n)]
    for fid, f in enumerate(faces):
        for v in f:
            incident[v].append(fid)
    vertex_faces, link_cycles = [], []
    for v in range(n):
        fs = incident[v]
        if not fs:
            raise errors.NonManifold(f"vertex {v} has no incident faces")
        order = [min(fs)]
        first, cur = others(faces[order[0]], v)
        ring = [first]
        while cur != first:
            ring.append(cur)
            nxt = next(g for g in edge_to_faces[canonical_edge(v, cur)] if g != order[-1])
            if nxt in order:
                raise errors.NonManifold(f"vertex {v} link is not a single cycle")
            order.append(nxt)
            x, y = others(faces[nxt], v)
            cur = y if x == cur else x
        if len(order) != len(fs):
            raise errors.NonManifold(f"vertex {v} link is not a single cycle")
        vertex_faces.append(tuple(order))
        link_cycles.append(tuple(ring))
    return tuple(vertex_faces), tuple(link_cycles)


def reference_subset_geometry(t, subset):
    """``subset_geometry`` by a scan over every edge and face: the link
    pairs are the sides opposite the one subset vertex of a face."""
    from circlepattern.degeneration import VertexSubsetGeometry

    a = frozenset(int(v) for v in subset)
    inside = np.zeros(t.vertex_count, dtype=bool)
    inside[list(a)] = True
    star_edges = np.flatnonzero(inside[t.edge_array].any(axis=1))
    on = inside[t.face_array]
    star_faces = np.flatnonzero(on.any(axis=1))
    faces, on = t.face_array[on.sum(axis=1) == 1], on[on.sum(axis=1) == 1]
    k, rows = on.argmax(axis=1), np.arange(len(faces))
    sides = t.edge_ids(faces[rows, (k + 1) % 3], faces[rows, (k + 2) % 3])
    components, left = [], set(a)
    while left:
        comp, queue = {min(left)}, deque([min(left)])
        while queue:
            for w in t.neighbors(queue.popleft()):
                if w in left and w not in comp:
                    comp.add(w)
                    queue.append(w)
        components.append(frozenset(comp))
        left -= comp
    return VertexSubsetGeometry(a, tuple(star_edges.tolist()), tuple(star_faces.tolist()),
                                tuple(sorted(zip(sides.tolist(), faces[rows, k].tolist()))),
                                len(a) - len(star_edges) + len(star_faces),
                                tuple(sorted(components, key=min)))


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
# feasibility margin: the compensated scalar sum
# ---------------------------------------------------------------------------

def margin_scalar(mode: str, radii, angles) -> float:
    """The compensated-summation (``fsum``) scalar feasibility margin that
    ``triple_records.feasibility`` replaced by one row of ``feasibility_margin``."""
    ri, rj, rk = (float(v) for v in radii)
    ti, tj, tk = (float(v) for v in angles)
    ci, cj, ck = math.cos(ti), math.cos(tj), math.cos(tk)
    si, sj, sk = math.sin(ti), math.sin(tj), math.sin(tk)
    l_i, l_j, l_k = ci + cj * ck, cj + ck * ci, ck + ci * cj
    if mode == triples.EUCLIDEAN:
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


def margin_monomials(mode: str, radii, angles) -> List[float]:
    """The margin's polynomial as its monomials in cos and sin of the
    angles and (sphere) of the radii, with lambda_i = cos theta_i +
    cos theta_j cos theta_k and zeta expanded: the parts that cancel."""
    c, s2 = [math.cos(t) for t in angles], [math.sin(t) ** 2 for t in angles]
    r = [float(v) for v in radii]
    a, x = [math.cos(v) for v in r], [math.sin(v) for v in r]
    out = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if mode == triples.EUCLIDEAN:
            quad, cross = (r[j] * r[k]) ** 2, r[j] * r[k] * r[i] ** 2
        else:
            quad, cross = (a[i] * x[j] * x[k]) ** 2, a[j] * a[k] * x[j] * x[k] * x[i] ** 2
        out += [s2[i] * quad, 2.0 * c[i] * cross, 2.0 * c[j] * c[k] * cross]
    if mode == triples.SPHERICAL:
        prod2 = math.prod(x) ** 2
        out += [v * prod2 for v in s2] + [-2.0 * prod2, -2.0 * math.prod(c) * prod2]
    return out


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
# sampled and all-disk references for the verifier's exact checks
# ---------------------------------------------------------------------------

def boundary_points(p, v: int, count: int) -> np.ndarray:
    """``count`` equally spaced points of the circle dD_v."""
    from circlepattern import triples

    ang = 2.0 * PI * np.arange(count) / count
    if p.mode == triples.EUCLIDEAN:
        return p.centers[v] + p.radii[v] * np.exp(1j * ang)
    n = p.centers[v]
    (e1,), (e2,) = triples.tangent_frames(n)
    return (math.cos(p.radii[v]) * n[None, :]
            + math.sin(p.radii[v]) * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2))


def interior_points(p, v: int, grid: int) -> np.ndarray:
    """The points of a ``grid`` x ``grid`` square grid on the open unit
    disk, mapped onto D_v (on the sphere by arc radius scaling)."""
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
    n = len(p.radii)
    witnesses = {}
    ok = True
    for v in range(n):
        pts = np.concatenate([boundary_points(p, v, boundary_samples),
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
        inside = [float(np.linalg.norm(x - c)) <= 2.0 * math.sin(0.5 * r) + 1e-12
                  for c, r in zip(p.centers, p.radii)]
    return inside[v] and sum(inside) == 1


def flower_check(p, v: int, boundary_samples: int = 4096, interior_grid: int = 64,
                 eps: float = 1e-9):
    """The sampled flower test: every sample of D_v that no neighbour covers
    by ``eps`` must lie in v's open star.  Returns (ok, witness or None)."""
    pts = np.concatenate([boundary_points(p, v, boundary_samples),
                          interior_points(p, v, interior_grid)])
    nbrs = list(p.triangulation.neighbors(v))
    rest = pts[~p.point_in_disks(pts, slack=eps)[:, nbrs].any(axis=1)]
    if not len(rest):
        return True, None
    in_star = in_open_star(p, v, rest, eps)
    if in_star.all():
        return True, None
    return False, rest[~in_star][0]


def flower_uncovered(p, v: int, x, eps: float = 1e-9, rounding: float = 1e-12) -> bool:
    """x lies in D_v and in no neighbour disk shrunk by ``eps``, each disk
    tested on its own, to ``rounding``."""
    from circlepattern import triples

    nbrs = p.triangulation.neighbors(v)
    if p.mode == triples.EUCLIDEAN:
        return (abs(x - p.centers[v]) <= p.radii[v] + rounding
                and all(abs(x - p.centers[u]) > p.radii[u] - eps - rounding for u in nbrs))
    chord = 2.0 * np.sin(0.5 * p.radii)
    apart = np.linalg.norm(x - p.centers, axis=1)
    return (apart[v] <= chord[v] + rounding
            and all(apart[u] > chord[u] - eps - rounding for u in nbrs))


def _cross(a, b):
    return a.real * b.imag - a.imag * b.real


def in_open_star(p, v: int, points, eps) -> np.ndarray:
    """Membership in the open star of v, one incident face at a time: in
    the face, where the two spokes may be touched but the link side must be
    strictly inside; the points of no other face also belong to the stars
    of the outer face's vertices (``outer_face_id``)."""
    t = p.triangulation
    skip = outer_face_id(p)
    out = np.zeros(len(points), dtype=bool)
    for fid in t.vertex_faces[v]:
        if fid == skip:
            continue
        face = t.faces[fid]
        i = face.index(v)
        s1, s2, s3, tol = face_sides(p, [v, face[(i + 1) % 3], face[(i + 2) % 3]], points, eps)
        out |= (s1 >= -tol) & (s3 >= -tol) & (s2 > tol)
    if skip is not None and v in p.marked_face:
        out |= ~in_any_face(p, points, eps)
    return out


def in_any_face(p, points, eps) -> np.ndarray:
    """Membership in some closed realized face but the marked one, one face at a time."""
    t = p.triangulation
    skip = t.face_id_of(p.marked_face) if p.marked_face is not None else None
    out = np.zeros(len(points), dtype=bool)
    for fid, face in enumerate(t.faces):
        if fid == skip:
            continue
        s1, s2, s3, tol = face_sides(p, list(face), points, eps)
        out |= (s1 >= -tol) & (s2 >= -tol) & (s3 >= -tol)
    return out


def outer_face_id(p):
    """The marked face's id when it is the region the other faces leave,
    else None: in the plane always, on the sphere when the determinant of
    its three centres has the sign opposite to every other face's."""
    t = p.triangulation
    if p.marked_face is None:
        return None
    fid = t.face_id_of(p.marked_face)
    if p.mode == triples.EUCLIDEAN:
        return fid
    turn = [np.sign(np.linalg.det(p.centers[list(face)])) for face in t.faces]
    if turn[fid] == 0 or any(s != -turn[fid] for g, s in enumerate(turn) if g != fid):
        return None
    return fid


def face_sides(p, face, points, eps):
    """The sides AB, BC, CA of one face ABC against the points, signed
    positive inside, and the tolerance: cross products and ``eps`` times
    twice the area in the plane, triple products and ``eps`` on the sphere."""
    A, B, C = p.centers[face]
    if p.mode == triples.EUCLIDEAN:
        sigma = _cross(B - A, C - A)
        sign, tol = np.sign(sigma), eps * (abs(sigma) if sigma != 0 else 1.0)
        return (*(_cross(Q - P, points - P) * sign for P, Q in ((A, B), (B, C), (C, A))), tol)
    sign = np.sign(np.linalg.det(np.stack([A, B, C])))
    return (*(points @ np.cross(P, Q) * sign for P, Q in ((A, B), (B, C), (C, A))), eps)


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


# ---------------------------------------------------------------------------
# per-triple references for the three-circle relations: the scalar code
# that the library's row-wise relations replaced
# ---------------------------------------------------------------------------

def as_disks(mode, centers, radii):
    if mode == triples.EUCLIDEAN:
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
    if mode == triples.EUCLIDEAN:
        return abs(complex(point) - complex(center)) <= radius - slack
    dot = float(np.dot(np.asarray(point, float), np.asarray(center, float)))
    return dot >= math.cos(radius) + slack


def circle_pair_points(mode: str, c1, r1: float, c2, r2: float, eps: float = triples.GEOM_EPS):
    """Intersection points of two boundary circles (0, 1, or 2 points).

    A tangency (within eps of the degenerate root) yields one point.
    Returns None when the boundaries do not meet.
    """
    if mode not in (triples.EUCLIDEAN, triples.SPHERICAL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == triples.EUCLIDEAN:
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


def far_point(mode, c_arc, r_arc, c_ref):
    """Point of the circle (c_arc, r_arc) farthest from disk (c_ref, .)."""
    if mode == triples.EUCLIDEAN:
        c_arc, c_ref = complex(c_arc), complex(c_ref)
        d = abs(c_arc - c_ref)
        if d <= triples.GEOM_EPS:
            return None
        return c_arc + r_arc * (c_arc - c_ref) / d
    n = np.asarray(c_arc, float)
    m = np.asarray(c_ref, float)
    w = m - float(np.dot(m, n)) * n
    nw = np.linalg.norm(w)
    if nw <= triples.GEOM_EPS:
        return None
    return math.cos(r_arc) * n - math.sin(r_arc) * (w / nw)


def lens_in_disk(mode, ca, ra, cb, rb, cc, rc, corners, eps) -> bool:
    """Is the lens of disks a, b inside disk c?

    Sign tests on the two corner points plus, per bounding arc, the point
    of that arc farthest from disk c when it lies on the lens side.
    """
    for p in corners:
        if not disk_contains(mode, cc, rc, p, slack=-eps):
            return False
    for (c1, r1, c2, r2) in ((ca, ra, cb, rb), (cb, rb, ca, ra)):
        f = far_point(mode, c1, r1, cc)
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
    cs, rs = as_disks(mode, centers, radii)
    invs = {}
    for a in range(3):
        for b in range(a + 1, 3):
            inv = triples.inversive_distance(mode, cs[a], rs[a], cs[b], rs[b])
            if abs(inv) > 1.0 + triples.CLAMP_EPS:
                raise errors.NotMutuallyIntersecting(
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
            if not disk_contains(mode, cs[c], rs[c], p, slack=-triples.GEOM_EPS):
                records.append(triple_records.ContainmentRecord((a, b), c, False, True))
                continue
            on_boundary = on_circle(mode, cs[c], rs[c], p, tol)
            lhs = angle(a, c) + angle(b, c)
            records.append(
                triple_records.ContainmentRecord(
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
        contained = lens_in_disk(
            mode, cs[a], rs[a], cs[b], rs[b], cs[c], rs[c], corners, triples.GEOM_EPS
        )
        if not contained:
            records.append(triple_records.ContainmentRecord((a, b), c, False, False))
            continue
        lhs = angle(a, c) + angle(b, c)
        rhs = math.pi + angle(a, b)
        records.append(
            triple_records.ContainmentRecord(
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


def on_circle(mode, center, radius, point, tol) -> bool:
    if mode == triples.EUCLIDEAN:
        return abs(abs(complex(point) - complex(center)) - radius) <= tol
    dot = float(np.dot(np.asarray(point, float), np.asarray(center, float)))
    return abs(dot - math.cos(radius)) <= tol


def triple_intersection_empty(mode: str, centers, radii, eps: float = triples.GEOM_EPS) -> bool:
    """Exact arrangement test: is the triple intersection of the closed
    disks empty?

    Spherical mode raises CoversSphere when the three open disks cover the
    sphere (the query is then outside its precondition).
    """
    cs, rs = as_disks(mode, centers, radii)
    if mode == triples.SPHERICAL:
        # complement caps: open disks cover the sphere iff the closed
        # complements have empty intersection
        comp_c = [-c for c in cs]
        comp_r = [math.pi - r for r in rs]
        if triple_nonempty(mode, comp_c, comp_r, eps) is False:
            raise errors.CoversSphere("open disks cover the sphere")
    return not triple_nonempty(mode, cs, rs, eps)


def triple_nonempty(mode, cs, rs, eps) -> bool:
    # a center inside the two other disks witnesses nonemptiness (covers
    # nested configurations with no boundary corners)
    for m in range(3):
        others = [x for x in range(3) if x != m]
        if all(disk_contains(mode, cs[o], rs[o], cs[m], slack=-eps)
               for o in others):
            return True
    # a point of a circle in the two other disks: an intersection without
    # corners (concentric or antipodal pairs have none) is bounded by whole circles
    for m in range(3):
        if mode == triples.EUCLIDEAN:
            on = cs[m] + rs[m]
        else:
            (e1,), _ = triples.tangent_frames(cs[m])
            on = math.cos(rs[m]) * cs[m] + math.sin(rs[m]) * e1
        if all(disk_contains(mode, cs[o], rs[o], on, slack=-eps) for o in range(3) if o != m):
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


def reference_lens_records(p) -> List[dict]:
    """The lens records of ``verify_pattern``, one 3-clique at a time."""
    from circlepattern.cycles import cycle_arrays

    records = []
    for tri in cycle_arrays(p.triangulation, 3)[0]["vertices"].tolist():
        try:
            recs = containment_angle_check(p.mode, p.centers[tri], p.radii[tri])
        except errors.NotMutuallyIntersecting:
            continue
        records += [{"triple": tri, "pair": [tri[rec.pair[0]], tri[rec.pair[1]]],
                     "third": tri[rec.third], "lhs": rec.lhs, "rhs": rec.rhs,
                     "holds": rec.relation_holds} for rec in recs if rec.contained]
    return records


def reference_triple_failures(p) -> list:
    """The faces with angle sum below pi whose disks share a point, one
    face at a time."""
    from circlepattern.triangulation import face_sums

    t = p.triangulation
    _, face_cmp = face_sums(t, p.theta.array())
    return [face for face, c in zip(t.faces, face_cmp)
            if c < 0 and not triple_intersection_empty(p.mode, p.centers[list(face)],
                                                       p.radii[list(face)])]


# ---------------------------------------------------------------------------
# near pairs: every disk against every other
# ---------------------------------------------------------------------------

def meeting_pairs(mode, centers, angles, points=None):
    """The pairs (u, v), u < v, of disks (distance or angle ``angles``
    around their centres) that meet, or with ``points`` the pairs
    (point, disk) of a point in a disk: true distances, all pairs."""
    c = np.asarray(centers)
    x = c if points is None else np.asarray(points)
    if mode == triples.EUCLIDEAN:
        apart = np.abs(x[:, None] - c[None, :])
    else:
        apart = np.arctan2(np.linalg.norm(np.cross(x[:, None], c[None, :]), axis=2), x @ c.T)
    if points is not None:
        return set(zip(*np.nonzero(apart <= angles[None, :])))
    meet = apart <= angles[:, None] + angles[None, :]
    return {(u, v) for u, v in zip(*np.nonzero(meet)) if u < v}


def contact_graph(p, eps: float = 1e-9):
    """The contact graph from the dense inversive matrix, as ``verify``
    computed it before the near pairs: (edges, nested pairs)."""
    inv = p.inversive_matrix()
    iu, iv = np.triu_indices(len(inv), 1)
    nested = inv[iu, iv] < -1.0 + eps
    edges = ~nested & (inv[iu, iv] <= 1.0 + eps)
    return set(zip(iu[edges].tolist(), iv[edges].tolist())), list(zip(iu[nested].tolist(),
                                                                       iv[nested].tolist()))


def near_disks(p, v: int, slack: float) -> np.ndarray:
    """The per-vertex scan that ``verify._near_disks`` replaced: the disks
    u != v whose closed disk, grown by the slack and a rounding margin,
    meets D_v, each tested against D_v."""
    if p.mode == triples.EUCLIDEAN:
        gap = np.abs(p.centers - p.centers[v]) - p.radii - p.radii[v]
        scale = abs(p.centers[v]) + p.radii[v] + np.abs(p.centers) + p.radii
        near = gap <= -slack + 1e-9 * scale
    else:  # chords: the cap of centre c and radius r holds x when |x - c| <= 2 sin(r/2)
        apart = np.linalg.norm(p.centers - p.centers[v], axis=1)
        size, chord = np.linalg.norm(p.centers, axis=1), 2.0 * np.sin(0.5 * p.radii)
        meet = 2.0 * np.sin(0.5 * np.minimum(p.radii + p.radii[v], PI))
        near = apart <= meet - slack + 1e-9 * (size[v] + chord[v] + size + chord)
    near[v] = False
    return np.flatnonzero(near)


# ---------------------------------------------------------------------------
# polyhedron convexity: every vertex against every face plane
# ---------------------------------------------------------------------------

def convexity_worst(q) -> float:
    """The least slack o - c . x of ``q``'s vertices over all its face
    planes c . x = o: the dense F x n array that ``check_polyhedron``'s
    point query replaced."""
    normals = np.array([h.normal for h in q.half_spaces])
    offsets = np.array([h.offset for h in q.half_spaces])
    return float(np.min(offsets[None, :] - q.vertices @ normals.T))
