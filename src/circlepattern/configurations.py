"""Configuration containers for solved circle patterns, and the pattern
type that binds a configuration to its combinatorics and angles."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .errors import MalformedPattern

if TYPE_CHECKING:
    from .conditions import AngleAssignment
    from .triangulation import Triangulation

# the geometry modes; ``triples`` spells the same two names
EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
DISJOINT_EPS = 1e-9      # inversive slack distinguishing overlap from contact
ROUNDING = 16.0 * np.finfo(float).eps  # near-pair margin, relative to coordinates and reach


@dataclass
class CurvatureReport:
    """Per-vertex cone angles / apex curvatures and the iteration trace."""

    sigma: Dict[int, float]
    curvature: Dict[int, float]
    max_abs_K: float
    iterations: int
    residual_trace: List[float] = field(default_factory=list)
    angle_residual: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "sigma": {str(k): v for k, v in self.sigma.items()},
            "curvature": {str(k): v for k, v in self.curvature.items()},
            "max_abs_K": self.max_abs_K,
            "iterations": self.iterations,
            "residual_trace": list(self.residual_trace),
            "angle_residual": self.angle_residual,
            "notes": list(self.notes),
        }


@dataclass
class EuclideanConfiguration:
    """Planar centers and radii, one disk per vertex, with the face hosting
    infinity removed from the layout."""

    centers: np.ndarray            # complex, shape (n,)
    radii: np.ndarray              # float, shape (n,)
    marked_face: Optional[Tuple[int, int, int]]
    normalized: Dict[str, bool] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.radii)


@dataclass
class SphericalConfiguration:
    """Unit-sphere cap centers (unit 3-vectors) and arc radii in (0, pi)."""

    centers: np.ndarray            # float, shape (n, 3)
    radii: np.ndarray              # float, shape (n,)
    marked_face: Optional[Tuple[int, int, int]]
    normalized: Dict[str, bool] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.radii)


@dataclass
class CirclePattern:
    """A configuration bound to its combinatorics and target angles."""

    triangulation: Triangulation
    theta: AngleAssignment
    mode: str
    centers: np.ndarray
    radii: np.ndarray
    marked_face: Optional[Tuple[int, int, int]] = None

    def __post_init__(self):
        self.centers = np.asarray(self.centers)
        self.radii = np.asarray(self.radii, dtype=float)
        n = self.triangulation.vertex_count
        if len(self.radii) != n or len(self.centers) != n:
            raise MalformedPattern("circle count does not match vertex count")
        if np.any(~np.isfinite(self.radii)) or np.any(self.radii <= 0):
            raise MalformedPattern("radii must be positive and finite")
        if not np.isfinite(self.centers).all():
            raise MalformedPattern("centers must be finite")
        if self.marked_face is not None and not self.triangulation.is_face(self.marked_face):
            raise MalformedPattern(f"marked face {list(self.marked_face)} is not a face")
        if self.mode == SPHERICAL:
            if self.centers.shape != (n, 3):
                raise MalformedPattern("spherical centers must be unit 3-vectors")
            if np.any(self.radii >= math.pi):
                raise MalformedPattern("spherical radii must lie in (0, pi)")
            norms = np.linalg.norm(self.centers, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-8):
                raise MalformedPattern("spherical centers must be unit vectors")
        elif self.mode == EUCLIDEAN:
            self.centers = self.centers.astype(complex)
            if self.centers.shape != (n,):
                raise MalformedPattern("planar centers must be complex scalars")
        else:
            raise MalformedPattern(f"unknown mode {self.mode!r}")

    @classmethod
    def from_euclidean(cls, t: Triangulation, theta: AngleAssignment,
                       cfg: EuclideanConfiguration) -> "CirclePattern":
        return cls(t, theta, EUCLIDEAN, cfg.centers, cfg.radii, cfg.marked_face)

    @classmethod
    def from_spherical(cls, t: Triangulation, theta: AngleAssignment,
                       cfg: SphericalConfiguration) -> "CirclePattern":
        return cls(t, theta, SPHERICAL, cfg.centers, cfg.radii, cfg.marked_face)

    # -- pairwise quantities -------------------------------------------

    def inversive_matrix(self) -> np.ndarray:
        idx = np.arange(len(self.radii))
        out = self._inversive(idx[:, None], idx)
        np.fill_diagonal(out, -1.0)
        return out

    def _inversive(self, u, v) -> np.ndarray:
        """Inversive distances of the disk pairs (u, v), index arrays that broadcast."""
        ru, rv = self.radii[u], self.radii[v]
        if self.mode == EUCLIDEAN:
            d2 = np.abs(self.centers[u] - self.centers[v]) ** 2
            return (d2 - ru * ru - rv * rv) / (2.0 * (ru * rv))
        dots = np.einsum("...j,...j->...", self.centers[u], self.centers[v])
        return (np.cos(ru) * np.cos(rv) - dots) / (np.sin(ru) * np.sin(rv))

    def point_in_disks(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Boolean (num points, num disks) closed-disk membership matrix."""
        if self.mode == EUCLIDEAN:
            return np.abs(points[:, None] - self.centers[None, :]) <= self.radii[None, :] - slack
        return points @ self.centers.T >= np.cos(self.radii)[None, :] + slack


def near_pairs(mode: str, centers: np.ndarray, reach, points=None):
    """The pairs (u, v), u < v, of disks that may meet when grown to
    ``reach`` and a rounding margin, sorted; with ``points`` (of reach 0),
    the pairs (point, disk).  ``reach`` is a distance in the plane and a
    chord on the sphere, which is subadditive: 2 sin(r/2) for a cap of
    radius r, sqrt(2 - 2 kappa) for the test c . x >= kappa.  Sort and
    sweep (Cohen, Lin, Manocha & Ponamgi, *I-COLLIDE*, 1995) along the axis
    where the disks' intervals hold fewest others (or points), counted
    before any pair is built; the exact distance keeps the pairs in reach."""
    def chart(x, reach):  # coordinates in R^d, and reach with a rounding margin
        if mode == EUCLIDEAN:
            x = np.column_stack([x.real, x.imag])
        else:  # a dot rounds by ulps, and a centre may be off the sphere by more
            off = np.abs(np.einsum("ij,ij->i", x, x) - 1.0)
            reach = np.sqrt(reach * reach + 4.0 * off + ROUNDING)
        return x, reach + ROUNDING * (np.abs(x).max(axis=1) + reach)

    x, reach = chart(centers, np.asarray(reach, dtype=float))
    y, far = (x, reach) if points is None else chart(points, np.zeros(len(points)))
    pad = 0.0 if points is None else far.max(initial=0.0)
    lo, hi = x - (reach + pad)[:, None], x + (reach + pad)[:, None]
    key = lo if points is None else y  # a disk's interval holds the later disks' starts, or points
    orders = np.argsort(key, axis=0, kind="stable")
    sweeps = []
    for k, order in enumerate(orders.T):
        s = key[order, k]
        start = np.argsort(order) + 1 if points is None else np.searchsorted(s, lo[:, k], "left")
        count = np.searchsorted(s, hi[:, k], "right") - start
        sweeps.append((count.sum(), k, start, count))
    _, k, start, count = min(sweeps)
    i = np.repeat(np.arange(len(x)), count)
    j = orders[np.arange(len(i)) - np.repeat(np.cumsum(count) - count - start, count), k]
    d = x[i] - y[j]
    keep = np.einsum("ij,ij->i", d, d) <= (reach[i] + far[j]) ** 2
    i, j = i[keep], j[keep]
    u, v = (np.minimum(i, j), np.maximum(i, j)) if points is None else (j, i)
    order = np.argsort(u * len(x) + v)
    return u[order], v[order]


def _holding_pairs(p: CirclePattern, points: np.ndarray, slack: float, rounding: float = 0.0):
    """The pairs (k, u) of ``p.point_in_disks(points, slack)`` that hold,
    from the near pairs; in the plane each disk grows also by ``rounding``
    times |point| + |c| + r."""
    c, r = p.centers, p.radii
    if p.mode == EUCLIDEAN:
        k, u = near_pairs(p.mode, c, r - slack + 2.0 * rounding * (np.abs(c) + r), points)
        bound = r[u] - slack + rounding * (np.abs(points[k]) + np.abs(c[u]) + r[u])
        inside = np.abs(points[k] - c[u]) <= bound
    else:
        kappa = np.cos(r) + slack
        k, u = near_pairs(p.mode, c, np.sqrt(np.maximum(2.0 - 2.0 * kappa, 0.0)), points)
        inside = np.einsum("ij,ij->i", points[k], c[u]) >= kappa[u]
    return k[inside], u[inside]
