"""Euclidean circle-pattern solver for the interstice regime.

Radii are found by damped Newton iteration on the apex-curvature map in
log-radius variables, with the three marked-face radii pinned equal; the
centers are then produced by developing the triangulation face by face.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Tuple

import numpy as np

from .conditions import AngleAssignment, classify, compare
from .configurations import CurvatureReport, EuclideanConfiguration
from .degeneration import rank_collapse_suspects
from .errors import ConditionsViolated, LayoutInconsistent, Stalled
from .options import SolveOptions
from .triangulation import Triangulation
from . import triples
from ._newton import gauss_newton

PI = math.pi
POLISH_TOL = 1e-14
POLISH_ITERS = 8


def resolve_marked_face(t: Triangulation, marked_face) -> Tuple[int, Tuple[int, int, int]]:
    """Accept a face id or a vertex triple; return (face id, stored tuple)."""
    if isinstance(marked_face, (int, np.integer)):
        fid = int(marked_face)
        if not 0 <= fid < t.face_count:
            raise ValueError(f"face id {fid} out of range")
        return fid, t.faces[fid]
    fid = t.face_id_of(tuple(marked_face))
    if fid is None:
        raise ValueError(f"{tuple(marked_face)} is not a face")
    return fid, t.faces[fid]


def pick_marked_face(t: Triangulation, theta: AngleAssignment) -> int:
    """Deterministic auto-mark: the face of smallest angle sum (lowest id
    breaking ties); it must qualify for the interstice regime."""
    sums = [
        (sum(theta[e] for e in t.face_edge_ids(fid)), fid)
        for fid in range(t.face_count)
    ]
    best_sum, best_fid = min(sums)
    if compare(best_sum, PI) >= 0:
        raise ConditionsViolated("no face has angle sum below pi")
    return best_fid


# ---------------------------------------------------------------------------
# curvature map
# ---------------------------------------------------------------------------

class _CurvatureMap:
    """Apex curvatures of the free vertices as a function of log radii."""

    def __init__(self, t: Triangulation, theta: AngleAssignment, marked_fid: int):
        self.t = t
        self.marked_fid = marked_fid
        self.marked = set(t.faces[marked_fid])
        self.free = [v for v in range(t.vertex_count) if v not in self.marked]
        self.index = {v: i for i, v in enumerate(self.free)}
        self.faces = [
            t.faces[fid] for fid in range(t.face_count) if fid != marked_fid
        ]
        faces_arr = np.array(self.faces, dtype=int)
        self.fv = faces_arr
        # per-face opposite angles: theta on the edge opposite each corner
        th = np.empty_like(faces_arr, dtype=float)
        for r, (a, b, c) in enumerate(self.faces):
            th[r, 0] = theta.edge_value(b, c)
            th[r, 1] = theta.edge_value(c, a)
            th[r, 2] = theta.edge_value(a, b)
        self.face_theta = th

    def radii_from(self, u: np.ndarray) -> np.ndarray:
        r = np.ones(self.t.vertex_count)
        r[self.free] = np.exp(u)
        return r

    def face_angles(self, radii: np.ndarray) -> np.ndarray:
        lengths = triples.edge_lengths(
            triples.EUCLIDEAN, radii[self.fv], self.face_theta
        )
        return triples.inner_angles_from_lengths(triples.EUCLIDEAN, lengths)

    def sigma(self, radii: np.ndarray) -> np.ndarray:
        alphas = self.face_angles(radii)
        out = np.zeros(self.t.vertex_count)
        np.add.at(out, self.fv.ravel(), alphas.ravel())
        return out

    def curvatures(self, u: np.ndarray) -> np.ndarray:
        radii = self.radii_from(u)
        return 2.0 * PI - self.sigma(radii)[self.free]

    def min_margin(self, u: np.ndarray) -> float:
        radii = self.radii_from(u)
        m = triples.feasibility_margin(
            triples.EUCLIDEAN, radii[self.fv], self.face_theta
        )
        return float(np.min(m)) if len(m) else 1.0


def _jacobian(fun, u: np.ndarray, f0: np.ndarray, h: float = 1e-7) -> np.ndarray:
    n = len(u)
    J = np.empty((len(f0), n))
    for i in range(n):
        step = h * max(1.0, abs(u[i]))
        up = u.copy()
        up[i] += step
        J[:, i] = (fun(up) - f0) / step
    return J


def solve_euclidean(
    t: Triangulation,
    theta: AngleAssignment,
    marked_face,
    opts: SolveOptions = SolveOptions(),
) -> Tuple[EuclideanConfiguration, CurvatureReport]:
    """Solve for a planar pattern realizing the angle data, the marked face
    hosting the interstice at infinity.

    The marked radii stay pinned at 1 during iteration; the final
    configuration is normalized (marked center at the origin, next marked
    center on the positive axis, radii summing to one).
    """
    report = classify(t, theta, "g5")
    if not report.passed:
        raise ConditionsViolated("angle data is not in the interstice class", report=report)
    fid, face = resolve_marked_face(t, marked_face)
    face_sum = sum(theta[e] for e in t.face_edge_ids(fid))
    if compare(face_sum, PI) >= 0:
        raise ConditionsViolated(
            f"marked face {face} has angle sum {face_sum} >= pi; "
            "choose a face in the interstice regime"
        )

    cmap = _CurvatureMap(t, theta, fid)
    u = np.zeros(len(cmap.free))
    trace = []
    notes = []
    K = cmap.curvatures(u)
    res = float(np.max(np.abs(K))) if len(K) else 0.0
    trace.append(res)
    it = 0
    stall = 0
    while res > opts.tol_K and it < opts.max_iters:
        it += 1
        J = _jacobian(cmap.curvatures, u, K)
        try:
            step = np.linalg.solve(J, -K)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -K, rcond=None)[0]
        improved = False
        lam = 1.0
        norm0 = np.linalg.norm(K)
        for _ in range(30):
            cand = u + lam * step
            if cmap.min_margin(cand) > 0.0:
                Kc = cmap.curvatures(cand)
                if np.linalg.norm(Kc) < norm0:
                    u, K = cand, Kc
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            # classic per-vertex sweep: bisection on each curvature
            u, K, moved = _bisection_sweep(cmap, u, K)
            if not moved:
                stall += 1
            else:
                notes.append(f"iter {it}: newton step rejected, used sweep")
        new_res = float(np.max(np.abs(K)))
        if new_res >= res * (1.0 - 1e-12):
            stall += 1
        else:
            stall = 0
        res = new_res
        trace.append(res)
        if stall >= 8:
            suspects = rank_collapse_suspects(
                t, theta, opts.diag_max, avoid=face, top=5
            )
            raise Stalled(
                f"curvature residual plateaued at {res}",
                residual=res,
                suspects=suspects,
            )
    if res > opts.tol_K:
        suspects = rank_collapse_suspects(t, theta, opts.diag_max, avoid=face, top=5)
        raise Stalled(
            f"no convergence after {it} iterations (residual {res})",
            residual=res,
            suspects=suspects,
        )

    radii = cmap.radii_from(u)
    centers = layout_euclidean(t, theta, radii, fid, tol_layout=opts.tol_layout)
    centers, radii = _polish(t, theta, centers, radii, face)
    centers, radii = _normalize(centers, radii, face)

    sigma = cmap.sigma(radii)
    sig = {v: float(sigma[v]) for v in cmap.free}
    curv = {v: 2.0 * PI - sigma[v] for v in cmap.free}
    rep = CurvatureReport(
        sigma=sig,
        curvature=curv,
        max_abs_K=res,
        iterations=it,
        residual_trace=trace,
        angle_residual=_angle_residual(t, theta, centers, radii),
        notes=notes,
    )
    cfg = EuclideanConfiguration(
        centers=centers,
        radii=radii,
        marked_face=face,
        normalized={"y4": True, "y5": True, "y6": True},
    )
    return cfg, rep


def _bisection_sweep(cmap: _CurvatureMap, u: np.ndarray, K: np.ndarray):
    """One pass of per-vertex 1-D bisection on the curvature, used when the
    Newton step is rejected (obtuse data breaks monotonicity arguments, but
    each curvature still crosses zero along its own log radius)."""
    moved = False
    u = u.copy()
    for i in range(len(u)):
        Ki = K[i]
        if abs(Ki) <= 0.0:
            continue

        def f(x):
            v = u.copy()
            v[i] = x
            return cmap.curvatures(v)[i]

        lo, hi = u[i], u[i]
        flo = fhi = Ki
        # curvature tends to -inf as the radius shrinks and to 2*pi as it
        # grows, so a bracket exists in both directions
        span = 0.5
        for _ in range(60):
            if flo > 0:
                lo -= span
                flo = f(lo)
            if fhi < 0:
                hi += span
                fhi = f(hi)
            if flo <= 0 <= fhi:
                break
            span *= 1.5
        if not (flo <= 0 <= fhi):
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm <= 0:
                lo, flo = mid, fm
            else:
                hi, fhi = mid, fm
        new = 0.5 * (lo + hi)
        if new != u[i]:
            u[i] = new
            moved = True
    return u, cmap.curvatures(u), moved


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def layout_euclidean(
    t: Triangulation,
    theta: AngleAssignment,
    radii: np.ndarray,
    marked_face,
    tol_layout: float = 1e-8,
) -> np.ndarray:
    """Develop the punctured triangulation in the plane.

    BFS over face adjacency from a seed face; every face is placed from its
    three edge lengths with positive orientation.  Re-derived vertex
    positions must agree within ``tol_layout`` times the pattern diameter.
    """
    fid, face = resolve_marked_face(t, marked_face)
    radii = np.asarray(radii, dtype=float)

    def length(u, v):
        th = theta.edge_value(u, v)
        return math.sqrt(
            radii[u] ** 2 + radii[v] ** 2 + 2.0 * math.cos(th) * radii[u] * radii[v]
        )

    centers = np.full(t.vertex_count, np.nan + 0j, dtype=complex)
    seed = min(g for g in range(t.face_count) if g != fid)
    a, b, c = t.faces[seed]
    centers[a] = 0.0
    centers[b] = length(a, b)
    centers[c] = _third_point(centers[a], centers[b], length(a, c), length(b, c))

    placed_faces = {seed, fid}
    max_disagree = 0.0
    queue = deque([seed])
    while queue:
        g = queue.popleft()
        for e in t.face_edge_ids(g):
            for h in t.edge_faces[e]:
                if h in placed_faces:
                    continue
                placed_faces.add(h)
                queue.append(h)
                fa, fb, fc = t.faces[h]
                # rotate so the shared edge (known centers) comes first
                for _ in range(3):
                    if not (np.isnan(centers[fa].real) or np.isnan(centers[fb].real)):
                        break
                    fa, fb, fc = fb, fc, fa
                p = _third_point(centers[fa], centers[fb], length(fa, fc), length(fb, fc))
                if np.isnan(centers[fc].real):
                    centers[fc] = p
                else:
                    max_disagree = max(max_disagree, abs(p - centers[fc]))
    if np.any(np.isnan(centers.real)):
        raise LayoutInconsistent("some vertex was never placed")
    diameter = _diameter(centers, radii)
    if max_disagree > tol_layout * diameter:
        raise LayoutInconsistent(
            f"developing map disagreement {max_disagree} exceeds "
            f"{tol_layout} * diameter {diameter}"
        )
    return centers


def _third_point(z0: complex, z1: complex, d0: float, d2: float) -> complex:
    """Apex of the positively oriented triangle with base z0 -> z1 and
    side lengths |p - z0| = d0, |p - z1| = d2."""
    base = z1 - z0
    d = abs(base)
    x = (d * d + d0 * d0 - d2 * d2) / (2.0 * d)
    y2 = d0 * d0 - x * x
    y = math.sqrt(max(y2, 0.0))
    return z0 + (x + 1j * y) * (base / d)


def _diameter(centers: np.ndarray, radii: np.ndarray) -> float:
    lo_x = np.min(centers.real - radii)
    hi_x = np.max(centers.real + radii)
    lo_y = np.min(centers.imag - radii)
    hi_y = np.max(centers.imag + radii)
    return float(max(hi_x - lo_x, hi_y - lo_y))


def _polish(t: Triangulation, theta: AngleAssignment, centers: np.ndarray,
            radii: np.ndarray, face) -> Tuple[np.ndarray, np.ndarray]:
    """Newton polish of the full configuration in inversive-distance space.

    The curvature iteration leaves a residual that the developing map can
    amplify on circles far smaller than the pattern (the per-edge angle
    error scales with position error over radius product).  Gauss-Newton on
    I_e(z, r) = cos(theta_e) drives the dimensionless residuals to rounding
    level; a step is kept only if it lowers the residual.  Similarities stay
    free for ``_normalize``; the marked radii move together, which keeps
    them equal and so fixes the rest of the Moebius freedom.
    """
    centers, radii, *_ = gauss_newton(
        triples.EUCLIDEAN, centers, radii, np.asarray(t.edges, dtype=int),
        np.cos(theta.array()), POLISH_TOL, POLISH_ITERS, tied=face,
    )
    return centers, radii


def _normalize(centers: np.ndarray, radii: np.ndarray, face) -> Tuple[np.ndarray, np.ndarray]:
    """Marked center at 0, second marked center on the positive axis, third
    in the upper half-plane, radii summing to 1."""
    a, b, c = face
    z = centers - centers[a]
    rot = z[b]
    if abs(rot) > 0:
        z = z * (abs(rot) / rot)
    if z[c].imag < 0:
        z = np.conj(z)
    scale = float(np.sum(radii))
    return z / scale, radii / scale


def _angle_residual(t, theta, centers, radii) -> float:
    """Max realized-angle mismatch over edges, measured on cosines."""
    worst = 0.0
    for eid, (u, v) in enumerate(t.edges):
        inv = triples.inversive_distance(
            triples.EUCLIDEAN, centers[u], radii[u], centers[v], radii[v]
        )
        worst = max(worst, abs(inv - math.cos(theta[eid])))
    return worst
