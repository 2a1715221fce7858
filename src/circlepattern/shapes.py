"""Built-in triangulations and trivalent polyhedra used in tests and docs."""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .triangulation import Triangulation, build_triangulation, polyhedron_from_triangulation


def tetrahedron() -> Triangulation:
    return build_triangulation([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def bipyramid(m: int) -> Triangulation:
    """m-gonal bipyramid: apexes 0 and 1, equator 2..m+1."""
    if m < 3:
        raise ValueError("need m >= 3")
    faces = []
    for i in range(m):
        a = 2 + i
        b = 2 + (i + 1) % m
        faces.append([0, a, b])
        faces.append([1, b, a])
    return build_triangulation(faces)


def triangular_bipyramid() -> Triangulation:
    return bipyramid(3)


def octahedron() -> Triangulation:
    """Poles 0 and 5, equatorial cycle 1-2-3-4."""
    return build_triangulation(
        [
            [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
            [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4],
        ]
    )


def stacked_tetrahedra() -> Triangulation:
    """Tetrahedron with two faces subdivided by new apexes (6 vertices)."""
    return build_triangulation(
        [
            [0, 2, 3], [0, 3, 1],
            [1, 3, 4], [3, 2, 4], [2, 1, 4],
            [0, 1, 5], [1, 2, 5], [2, 0, 5],
        ]
    )


def _icosahedron_coordinates() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        pts.append((0.0, a, b * phi))
        pts.append((a, b * phi, 0.0))
        pts.append((a * phi, 0.0, b))
    arr = np.array(pts) / math.sqrt(1.0 + phi * phi)
    return arr[np.lexsort(arr.T[::-1])]


def icosahedron() -> Triangulation:
    """Icosahedron faces derived from the golden-ratio coordinates: faces
    are the 3-cliques of the adjacency graph, wound outward."""
    pts = _icosahedron_coordinates()
    n = len(pts)
    dots = pts @ pts.T
    adj = np.abs(dots - 1.0 / math.sqrt(5.0)) < 1e-9
    faces = []
    for a, b, c in itertools.combinations(range(n), 3):
        if adj[a, b] and adj[b, c] and adj[a, c]:
            if np.linalg.det(np.stack([pts[a], pts[b], pts[c]])) > 0:
                faces.append([a, b, c])
            else:
                faces.append([a, c, b])
    return build_triangulation(faces)


@lru_cache(maxsize=None)
def shipped_triangulations() -> Dict[str, Triangulation]:
    """Named triangulations with at most 8 vertices, plus the icosahedron."""
    return {
        "tetrahedron": tetrahedron(),
        "triangular_bipyramid": triangular_bipyramid(),
        "octahedron": octahedron(),
        "stacked_tetrahedra": stacked_tetrahedra(),
        "pentagonal_bipyramid": bipyramid(5),
        "hexagonal_bipyramid": bipyramid(6),
        "icosahedron": icosahedron(),
    }


def small_shipped() -> Dict[str, Triangulation]:
    return {
        name: t for name, t in shipped_triangulations().items() if t.vertex_count <= 8
    }


# --- trivalent polyhedra (face cycles) -------------------------------------

def cube_faces() -> List[Tuple[int, ...]]:
    return polyhedron_from_triangulation(octahedron())


def dodecahedron_faces() -> List[Tuple[int, ...]]:
    return polyhedron_from_triangulation(icosahedron())


def triangular_prism_faces() -> List[Tuple[int, ...]]:
    return polyhedron_from_triangulation(triangular_bipyramid())


def tetrahedron_faces() -> List[Tuple[int, ...]]:
    return polyhedron_from_triangulation(tetrahedron())
