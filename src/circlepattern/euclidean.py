"""Euclidean circle-pattern solver for the interstice regime.

Radii are found by damped Newton iteration on the apex-curvature map in
log-radius variables from equal radii, with the three marked-face radii
pinned equal; the centers are then produced by developing the
triangulation face by face.  The iteration stops by the rule of
``_newton``; the realized angles after polish decide whether it found a
pattern.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Tuple

import numpy as np

from .conditions import AngleAssignment, classify, face_sums
from .configurations import CurvatureReport, EuclideanConfiguration
from .degeneration import sublevel_suspects
from .errors import ConditionsViolated, LayoutInconsistent, Stalled
from .options import SolveOptions
from .triangulation import Triangulation
from . import triples
from ._newton import LINE_SEARCH_HALVINGS, Assembly, factorize, gauss_newton
from .triples import inversive

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
    sums, cmp = face_sums(t, theta.array())
    best = int(np.argmin(sums))
    if cmp[best] >= 0:
        raise ConditionsViolated("no face has angle sum below pi")
    return best


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
        # block entry (f, i, j) lands at (free index of fv[f, i], of fv[f, j])
        at = np.full(t.vertex_count, -1)
        at[self.free] = np.arange(len(self.free))
        rows, cols = np.broadcast_arrays(at[faces_arr][:, :, None], at[faces_arr][:, None, :])
        self.kept = (rows >= 0) & (cols >= 0)
        self.assembly = Assembly(rows[self.kept], cols[self.kept], len(self.free))

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

    def jacobian(self, u: np.ndarray):
        """dK/du, assembled from per-face 3x3 blocks of d(alpha_i)/d(log r_j).

        The blocks' entries in free rows and columns are summed by
        ``_newton.Assembly``: a dense array up to order ``DENSE_MAX``, a CSC
        matrix above it, as ``_newton.factorize`` factorizes them.

        Each block is dl/du, with dl_i/dlog r_j = r_j (r_j + r_k cos theta_i)
        / l_i, followed by the differentiated law of cosines, d(alpha_i) =
        l_i / 2A (dl_i - cos alpha_k dl_j - cos alpha_j dl_k).  A face of
        zero area makes entries non-finite; the caller checks.
        """
        r = self.radii_from(u)[self.fv]
        th = self.face_theta
        lengths = triples.edge_lengths(triples.EUCLIDEAN, r, th)
        cos_a = np.cos(triples.inner_angles_from_lengths(triples.EUCLIDEAN, lengths))
        rj, rk, c = np.roll(r, -1, axis=1), np.roll(r, -2, axis=1), np.cos(th)
        i, j, k = [0, 1, 2], [1, 2, 0], [2, 0, 1]
        dl = np.zeros((len(r), 3, 3))
        dl[:, i, j] = rj * (rj + rk * c) / lengths
        dl[:, i, k] = rk * (rk + rj * c) / lengths
        dalpha = np.zeros_like(dl)
        dalpha[:, i, i] = 1.0
        dalpha[:, i, j] = -cos_a[:, k]
        dalpha[:, i, k] = -cos_a[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            # feasibility_margin is (2A)^2 for the center triangle
            two_area = np.sqrt(triples.feasibility_margin(triples.EUCLIDEAN, r, th))
            blocks = (lengths / two_area[:, None])[:, :, None] * (dalpha @ dl)
        return self.assembly.matrix(-blocks[self.kept])


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

    The curvature Newton stops at ``opts.tol_K``, at its rounding floor or
    after ``opts.max_iters`` steps, as the report's first note says.  The
    last raises Stalled; the others are laid out, polished and accepted
    when the angle residual (on cosines) is at most ``opts.tol_angle``, else
    Stalled, as is a layout that fails.  Stalled carries the stop reason and
    the collapse suspects of the failing radii.
    """
    report = classify(t, theta, "g5")
    if not report.passed:
        raise ConditionsViolated("angle data is not in the interstice class", report=report)
    fid, face = resolve_marked_face(t, marked_face)
    sums, cmp = face_sums(t, theta.array())
    if cmp[fid] >= 0:
        raise ConditionsViolated(
            f"marked face {face} has angle sum {float(sums[fid])} >= pi; "
            "choose a face in the interstice regime"
        )

    cmap = _CurvatureMap(t, theta, fid)
    u, it, trace, stop = _curvature_newton(cmap, opts.tol_K, opts.max_iters)
    res, radii = trace[-1], cmap.radii_from(u)
    if stop == "step limit":
        raise Stalled(
            f"no convergence after {it} iterations (residual {res})", residual=res,
            suspects=sublevel_suspects(t, theta, radii, opts.diag_max, avoid=face, top=5),
        )
    try:
        centers = layout_euclidean(t, theta, radii, fid, tol_layout=opts.tol_layout)
    except LayoutInconsistent as exc:
        failure = f"leaves no layout: {exc}"
    else:
        centers, radii, polish_note = _polish(t, theta, centers, radii, face)
        centers, radii = _normalize(centers, radii, face)
        angle_residual = _angle_residual(t, theta, centers, radii)
        failure = (None if angle_residual <= opts.tol_angle else
                   f"leaves angle residual {angle_residual} above {opts.tol_angle}")
    if failure:
        raise Stalled(
            f"curvature residual {res} ({stop}) {failure}", residual=res,
            suspects=sublevel_suspects(t, theta, radii, opts.diag_max, avoid=face, top=5),
        )

    sigma = cmap.sigma(radii)
    sig = {v: float(sigma[v]) for v in cmap.free}
    curv = {v: 2.0 * PI - sigma[v] for v in cmap.free}
    rep = CurvatureReport(
        sigma=sig,
        curvature=curv,
        max_abs_K=res,
        iterations=it,
        residual_trace=trace,
        angle_residual=angle_residual,
        notes=[f"newton: {it} steps, residual {res:.2e}, stop: {stop}", polish_note],
    )
    cfg = EuclideanConfiguration(
        centers=centers,
        radii=radii,
        marked_face=face,
        normalized={"y4": True, "y5": True, "y6": True},
    )
    return cfg, rep


def _curvature_newton(cmap: _CurvatureMap, tol: float, max_iters: int):
    """Damped Newton on the curvatures from equal radii: each step solves
    J du = -K, by ``_newton.factorize`` (dense or sparse LU by the order of
    J) or by ``lstsq`` when J is singular, and is halved until every face
    closes up and the residual norm drops.  Stops as
    ``_newton.gauss_newton`` does, and also at the rounding floor when the
    Jacobian is not finite (a face of zero area).

    Returns (free log radii, iterations, largest residual before and after
    each step, why it stopped: "tolerance", "rounding floor" or "step
    limit").
    """
    u = np.zeros(len(cmap.free))
    K = cmap.curvatures(u)
    trace = [float(np.max(np.abs(K))) if len(K) else 0.0]
    for it in range(max_iters):
        if trace[-1] <= tol:
            return u, it, trace, "tolerance"
        J = cmap.jacobian(u)
        if not np.all(np.isfinite(J if isinstance(J, np.ndarray) else J.data)):
            return u, it, trace, "rounding floor"
        try:
            step = factorize(J)(-K)
        except np.linalg.LinAlgError:
            dense = J if isinstance(J, np.ndarray) else J.toarray()
            step = np.linalg.lstsq(dense, -K, rcond=None)[0]
        norm0, lam = np.linalg.norm(K), 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            cand = u + lam * step
            if cmap.min_margin(cand) > 0.0:
                K_try = cmap.curvatures(cand)
                if np.linalg.norm(K_try) < norm0:
                    break
            lam *= 0.5
        else:
            return u, it, trace, "rounding floor"
        u, K = cand, K_try
        trace.append(float(np.max(np.abs(K))))
        if lam < 1.0 or trace[-1] > 0.5 * trace[-2]:
            return u, it + 1, trace, "rounding floor"
    return u, max_iters, trace, "tolerance" if trace[-1] <= tol else "step limit"


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
            radii: np.ndarray, face) -> Tuple[np.ndarray, np.ndarray, str]:
    """Newton polish of the full configuration in inversive-distance space.

    The curvature iteration leaves a residual that the developing map can
    amplify on circles far smaller than the pattern (the per-edge angle
    error scales with position error over radius product).  Gauss-Newton on
    I_e(z, r) = cos(theta_e) drives the dimensionless residuals to rounding
    level; a step is kept only if it lowers the residual.  Similarities stay
    free for ``_normalize``; the marked radii move together, which keeps
    them equal and so fixes the rest of the Moebius freedom.  Returns the
    polished centers and radii and a one-line account of the polish.
    """
    centers, radii, _, steps, res, stop = gauss_newton(
        triples.EUCLIDEAN, centers, radii, np.asarray(t.edges, dtype=int),
        np.cos(theta.array()), POLISH_TOL, POLISH_ITERS, tied=face,
    )
    return centers, radii, f"polish: {steps} steps, residual {res:.2e}, stop: {stop}"


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
    inv = inversive(triples.EUCLIDEAN, centers, radii, np.asarray(t.edges, dtype=int))
    return float(np.max(np.abs(inv - np.cos(theta.array()))))
