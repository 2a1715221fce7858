"""One circle triple as a record: the checked input of ``probe-triple``
and of the library's one-triple calls, and the geometry, limit and
containment records they return.  Each call is one row of the array
kernels in ``triples``, which the solvers and ``verify`` run without these
records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import Infeasible, NotMutuallyIntersecting
from .triples import (AFTER, CLAMP_EPS, EUCLIDEAN, GEOM_EPS, LENS_TOL, NEXT, OPPOSITE, SPHERICAL,
                      _check_mode, _lambdas, clamped_acos, edge_lengths, feasibility_margin,
                      inner_angles_from_lengths, lens_relations, place_by_lengths,
                      triple_intersections_empty)


# ---------------------------------------------------------------------------
# triple-level operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleSpec:
    """Radii and pairwise exterior angles of a prospective circle triple."""

    mode: str
    radii: Tuple[float, float, float]
    angles: Tuple[float, float, float]

    def __post_init__(self):
        _check_mode(self.mode)
        if len(self.radii) != 3 or len(self.angles) != 3:
            raise ValueError("need exactly three radii and three angles")
        for r in self.radii:
            if not 0.0 < r < (math.pi if self.mode == SPHERICAL else math.inf):
                raise ValueError(f"radius {r} outside mode domain")
        lo_open = self.mode == SPHERICAL
        for t in self.angles:
            if not math.isfinite(t) or t >= math.pi or t < 0.0 or (lo_open and t == 0.0):
                raise ValueError(f"angle {t} outside mode domain")


@dataclass(frozen=True)
class TripleGeometry:
    """Derived geometry of a feasible (or not) circle triple."""

    edge_lengths: Tuple[float, float, float]
    inner_angles: Optional[Tuple[float, float, float]]
    feasibility_margin: float
    lambdas: Tuple[float, float, float]
    angle_triangle_sides: Optional[Tuple[float, float, float]]


def edge_length(spec: TripleSpec, which: int) -> float:
    """Center distance of the circle pair opposite index ``which``."""
    return float(edge_lengths(spec.mode, spec.radii, spec.angles)[which])


def feasibility(spec: TripleSpec) -> Tuple[bool, float]:
    """Whether the triple closes up, with the signed margin."""
    margin = float(feasibility_margin(spec.mode, spec.radii, spec.angles))
    return margin > 0.0, margin


def inner_angles(spec: TripleSpec) -> Tuple[float, float, float]:
    """Center-triangle angles; raises Infeasible when the triple cannot close."""
    ok, margin = feasibility(spec)
    if not ok:
        raise Infeasible(f"margin {margin} <= 0")
    l = edge_lengths(spec.mode, spec.radii, spec.angles)
    return tuple(inner_angles_from_lengths(spec.mode, l))


def triple_geometry(spec: TripleSpec) -> TripleGeometry:
    l = edge_lengths(spec.mode, spec.radii, spec.angles)
    ok, margin = feasibility(spec)
    alphas = tuple(inner_angles_from_lengths(spec.mode, l)) if ok else None
    lams = _lambdas(spec.angles)
    phis = None
    if sum(spec.angles) > math.pi:
        s = np.sin(spec.angles)
        # a zero or subnormal angle makes an argument inf or nan, which the
        # range test below refuses
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            args = lams / (s[NEXT] * s[AFTER])
        if np.all(np.abs(args) <= 1.0 + CLAMP_EPS):
            phis = tuple(clamped_acos(args))
    return TripleGeometry(
        edge_lengths=tuple(float(v) for v in l),
        inner_angles=alphas,
        feasibility_margin=margin,
        lambdas=tuple(float(v) for v in lams),
        angle_triangle_sides=phis,
    )


def place_triple(spec: TripleSpec):
    """Centers of a feasible triple, via its edge lengths."""
    ok, margin = feasibility(spec)
    if not ok:
        raise Infeasible(f"margin {margin} <= 0")
    return place_by_lengths(spec.mode, edge_lengths(spec.mode, spec.radii, spec.angles))


# ---------------------------------------------------------------------------
# shrinking-radius limit diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitProfile:
    """Convergence record of center-triangle angles along a shrinking family."""

    mode: str
    shrink: Tuple[int, ...]
    scales: Tuple[float, ...]
    gaps: Tuple[float, ...]
    limit_value: float
    monotone_decreasing: bool

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]


def limit_profile(mode: str, radii, angles, shrink: Sequence[int], scales) -> LimitProfile:
    """Drive the listed radii to zero and watch the matching angle limit.

    One shrinking radius i: alpha_i -> pi - theta_i.  Two shrinking radii
    i, j: alpha_i + alpha_j -> pi.  All three: alpha_i + alpha_j + alpha_k
    -> pi.
    """
    shrink = tuple(sorted(set(int(s) for s in shrink)))
    if not 1 <= len(shrink) <= 3:
        raise ValueError("shrink must list one, two, or three indices")
    base = np.asarray(radii, dtype=float)
    th = np.asarray(angles, dtype=float)
    gaps = []
    for s in scales:
        r = base.copy()
        r[list(shrink)] = base[list(shrink)] * float(s)
        spec = TripleSpec(mode, tuple(r), tuple(th))
        alphas = inner_angles(spec)
        limit = math.pi - th[shrink[0]] if len(shrink) == 1 else math.pi
        gaps.append(abs(sum(alphas[i] for i in shrink) - limit))
    mono = all(b < a for a, b in zip(gaps, gaps[1:]))
    return LimitProfile(
        mode=mode,
        shrink=shrink,
        scales=tuple(float(s) for s in scales),
        gaps=tuple(gaps),
        limit_value=limit,
        monotone_decreasing=mono,
    )


# ---------------------------------------------------------------------------
# one row of the placed-disk relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainmentRecord:
    """Result of testing one lens D_a * D_b against the third disk."""

    pair: Tuple[int, int]
    third: int
    contained: bool
    single_point: bool
    lhs: Optional[float] = None          # angle(a,3rd) + angle(b,3rd)
    rhs: Optional[float] = None          # pi + angle(a,b) (or pi when tangent)
    slack: Optional[float] = None
    relation_holds: Optional[bool] = None
    boundary_concurrent: Optional[bool] = None


def _one_row(mode, centers, radii):
    """Three disks as the one row the row-wise relations take."""
    _check_mode(mode)
    if mode == EUCLIDEAN:
        return np.array([[complex(x) for x in centers]]), np.array([radii], dtype=float)
    c = np.array([centers], dtype=float)
    if np.any(np.abs(np.linalg.norm(c, axis=-1) - 1.0) > 1e-8):
        raise ValueError("spherical centers must be unit vectors")
    return c, np.array([radii], dtype=float)


def containment_angle_check(mode: str, centers, radii, tol: float = LENS_TOL):
    """``lens_relations`` of one row of three mutually intersecting disks:
    one ContainmentRecord per pair whose circles meet, in the order of the
    third disk."""
    rel = lens_relations(mode, *_one_row(mode, centers, radii), tol)
    inv = rel.inv[0]
    for k in (2, 1, 0):  # the pairs (0, 1), (0, 2), (1, 2)
        if abs(inv[k]) > 1.0 + CLAMP_EPS:
            a, b = OPPOSITE[k]
            raise NotMutuallyIntersecting(f"disks {a},{b} have inversive distance {inv[k]}")
    records = []
    for k in np.flatnonzero(rel.meets[0]).tolist():
        pair, single = tuple(OPPOSITE[k].tolist()), bool(rel.single[0, k])
        if not rel.contained[0, k]:
            records.append(ContainmentRecord(pair, k, False, single))
            continue
        lhs, rhs = float(rel.lhs[0, k]), float(rel.rhs[0, k])
        records.append(ContainmentRecord(
            pair, k, True, single, lhs, rhs, lhs - rhs, bool(rel.holds[0, k]),
            bool(rel.concurrent[0, k]) if single else None))
    return records


def triple_intersection_empty(mode: str, centers, radii, eps: float = GEOM_EPS) -> bool:
    """``triple_intersections_empty`` of one row of three disks."""
    return bool(triple_intersections_empty(mode, *_one_row(mode, centers, radii), eps)[0])
