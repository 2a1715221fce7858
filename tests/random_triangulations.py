"""Sphere triangulations for the tests: seeded vertex stacking, simplicial
edge flips, and Loop subdivision; two closed surfaces that are not
spheres; and obtuse angle draws on a vertex-disjoint matching."""
from __future__ import annotations

from typing import List

import numpy as np

TETRAHEDRON = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]

# minimal projective-plane triangulation: every edge in two faces but no
# consistent global orientation exists
PROJECTIVE_PLANE = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]


def torus_faces() -> List[List[int]]:
    """3x3 grid torus: every edge in two faces but Euler characteristic 0."""
    def v(a, b):
        return 3 * (a % 3) + (b % 3)

    return [f for i in range(3) for j in range(3)
            for f in ([v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                      [v(i, j), v(i + 1, j + 1), v(i, j + 1)])]


def stacked_faces(rng: np.random.Generator, n: int) -> List[List[int]]:
    """Stack a new vertex into a uniformly drawn face of the tetrahedron's
    stacking until there are ``n`` vertices."""
    faces = [list(f) for f in TETRAHEDRON]
    k = 4
    while k < n:
        a, b, c = faces.pop(rng.integers(0, len(faces)))
        faces += [[a, b, k], [b, c, k], [c, a, k]]
        k += 1
    return faces


def stack120_faces() -> List[List[int]]:
    """The planar-g5 benchmark's stack120 triangulation: seed 11, stacked
    after the 480 angle draws that precede it there."""
    rng = np.random.default_rng(11)
    rng.uniform(0.0, 1.2, 480)
    return stacked_faces(rng, 120)


def flip_edges(rng: np.random.Generator, faces, attempts: int) -> List[List[int]]:
    """Try ``attempts`` flips of uniformly drawn edges.  Edge uv between the
    oriented faces (u, v, a) and (v, u, b) becomes ab, unless a and b are
    already adjacent, which would make the complex non-simplicial."""
    faces = [list(f) for f in faces]
    for _ in range(attempts):
        i = int(rng.integers(0, len(faces)))
        j = int(rng.integers(0, 3))
        u, v, a = (faces[i][(j + s) % 3] for s in range(3))
        g = next(g for g, f in enumerate(faces) if g != i and u in f and v in f)
        b = next(x for x in faces[g] if x not in (u, v))
        if any(a in f and b in f for f in faces):
            continue
        faces[i], faces[g] = [a, u, b], [b, v, a]
    return faces


def loop_subdivide(faces, levels):
    """Split every triangle into four at its edge midpoints, keeping the
    winding: the icosahedron becomes n = 42, 162, 642."""
    for _ in range(levels):
        n = 1 + max(max(f) for f in faces)
        mid = {}

        def m(u, v):
            return mid.setdefault((min(u, v), max(u, v)), n + len(mid))

        faces = [g for a, b, c in faces
                 for g in ((a, m(a, b), m(c, a)), (b, m(b, c), m(a, b)),
                           (c, m(c, a), m(b, c)), (m(a, b), m(b, c), m(c, a)))]
    return faces


def obtuse_matching(rng: np.random.Generator, edges) -> np.ndarray:
    """Angles on ``edges`` in the no-interstice class (m5) with obtuse
    edges: every edge uniform in (1.06, 1.1), then a vertex-disjoint
    matching, taken greedily over the edges in a random order, uniform in
    (1.6, 2.0).  Every face sum is then above pi, and two edges at one
    vertex sum to less than pi."""
    vals = rng.uniform(1.06, 1.1, len(edges))
    matched = set()
    for e in rng.permutation(len(edges)):
        u, v = edges[e]
        if u not in matched and v not in matched:
            matched.update((u, v))
            vals[e] = rng.uniform(1.6, 2.0)
    return vals
