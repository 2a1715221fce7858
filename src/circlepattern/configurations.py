"""Configuration containers for solved circle patterns, the stereographic
lift of a planar configuration to the sphere, and the pattern type that
binds a configuration to its combinatorics and angles."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .errors import MalformedPattern

if TYPE_CHECKING:
    from .triangulation import AngleAssignment, Triangulation

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
class _Configuration:
    """Circle centers and radii, one circle per vertex, and the marked face."""

    centers: np.ndarray            # complex, shape (n,); or float, shape (n, 3)
    radii: np.ndarray              # float, shape (n,)
    marked_face: Optional[Tuple[int, int, int]]
    normalized: Dict[str, bool] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.radii)


class EuclideanConfiguration(_Configuration):
    """Planar centers (complex) and radii, one disk per vertex, with the
    face hosting infinity removed from the layout."""


class SphericalConfiguration(_Configuration):
    """Unit-sphere cap centers (unit 3-vectors) and arc radii in (0, pi)."""


def lift_to_sphere(cfg: EuclideanConfiguration) -> SphericalConfiguration:
    """Inverse stereographic image of every disk of a planar configuration,
    0 going to the south pole.

    The image of the disk (c, r) is the cap with de Sitter vector
    (2 Re c, 2 Im c, k - 1, k + 1) / 2r, k = |c|^2 - r^2.  Inversive
    distances are Moebius invariants, so the lifted pattern realizes the
    same exterior angles.
    """
    c, r = np.asarray(cfg.centers, dtype=complex), np.asarray(cfg.radii, dtype=float)
    k = np.abs(c) ** 2 - r ** 2
    p = np.stack([2.0 * c.real, 2.0 * c.imag, k - 1.0, k + 1.0], axis=1) / (2.0 * r)[:, None]
    centers, radii = _from_de_sitter(p)
    return SphericalConfiguration(centers, radii, cfg.marked_face,
                                  normalized={"x5": False, "x6": False})


def _from_de_sitter(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Caps (c, r) of the de Sitter vectors p = (c, cos r) / sin r."""
    x = p[:, :3]
    norm = np.linalg.norm(x, axis=1)
    return x / norm[:, None], np.arctan2(1.0, p[:, 3])


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
            if np.any(np.abs(distances(self.centers) - 1.0) > 1e-8):
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
        from .triples import inversive  # render and lift load this module without triples

        idx = np.arange(len(self.radii))  # row by row: no n^2 index array
        out = np.array([inversive(self.mode, self.centers, self.radii,
                                  np.column_stack((np.full_like(idx, u), idx))) for u in idx])
        np.fill_diagonal(out, -1.0)
        return out

    def point_in_disks(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Boolean (num points, num disks) closed-disk membership matrix."""
        return (distances(points[:, None] - self.centers[None, :])
                <= chords(self.mode, self.radii)[None, :] - slack)


def chords(mode: str, radii: np.ndarray) -> np.ndarray:
    """Each disk's reach for ``distances``: r, or 2 sin(r/2) on the sphere (2 pi - r past pi)."""
    return radii if mode == EUCLIDEAN else 2.0 * np.sin(0.5 * radii)


def distances(d) -> np.ndarray:
    """|d|, of complex numbers or of vectors along the last axis; callers form
    d = x - y, where numpy can write it over a temporary x (not an argument)."""
    return np.abs(d) if np.iscomplexobj(d) else np.sqrt((d * d).sum(axis=-1))


def near_pairs(mode: str, centers: np.ndarray, reach, points=None):
    """The pairs (u, v), u < v, of disks that may meet when grown to
    ``reach`` and a rounding margin, sorted; with ``points`` (of reach 0),
    the pairs (point, disk).  ``reach`` is a length in the chart of
    ``distances``, as ``chords`` gives it; on the sphere the chord is
    subadditive, so caps that meet are in reach of each other.  Sort and
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
    from the near pairs; each disk grows also by ``rounding`` times
    |point| + |c| + chord, lengths in the chart of ``distances``."""
    c, r = p.centers, chords(p.mode, p.radii)
    size = distances(c)
    k, u = near_pairs(p.mode, c, r - slack + 2.0 * rounding * (size + r), points)
    bound = r[u] - slack + rounding * (distances(points[k]) + size[u] + r[u])
    inside = distances(points[k] - c[u]) <= bound
    return k[inside], u[inside]
