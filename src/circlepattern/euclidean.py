"""Euclidean circle-pattern solver for the interstice regime.

Radii are found by damped Newton iteration on the apex-curvature map in
log-radius variables from equal radii, with the three marked-face radii
pinned equal; the centers are then produced by developing the
triangulation face by face.  The iteration is ``_newton.damped_newton``;
the realized angles after polish decide whether it found a pattern, by the
test that ``verify`` applies, ``triples.angle_errors``.  The map, its
Newton and the layout also serve the spherical homotopy.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Tuple

import numpy as np

from .conditions import classify
from .configurations import CurvatureReport, EuclideanConfiguration
from .errors import ConditionsViolated, LayoutInconsistent, Stalled
from .options import SolveOptions
from .triangulation import AngleAssignment, Triangulation, face_sums
from . import triples
from ._newton import Assembly, damped_newton, factorize, gauss_newton

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
    """Curvatures 2*pi - sigma_v of the free vertices as a function of their
    radii.  Plane: the marked face is dropped, its radii are held at 1 and
    u = log r.  Sphere: every face counts, the ``held`` vertices keep their
    ``base`` radii and u = log tan(r/2).  The angles are ``s`` times theta.
    """

    def __init__(self, t: Triangulation, theta: AngleAssignment, marked_fid,
                 mode: str = triples.EUCLIDEAN, base=None, held=(), s: float = 1.0):
        self.t, self.mode = t, mode
        faces = np.arange(t.face_count) != marked_fid
        if mode == triples.EUCLIDEAN:
            held, base = t.faces[marked_fid], np.ones(t.vertex_count)
        self.base = np.asarray(base, dtype=float)
        self.free = np.flatnonzero(~np.isin(np.arange(t.vertex_count), held))
        self.fv = t.face_array[faces]
        # per-face opposite angles: theta on the edge opposite each corner
        self.face_theta = s * theta.array()[t.face_edges[faces]]
        # block entry (f, i, j) lands at (free index of fv[f, i], of fv[f, j])
        at = np.full(t.vertex_count, -1)
        at[self.free] = np.arange(len(self.free))
        rows, cols = np.broadcast_arrays(at[self.fv][:, :, None], at[self.fv][:, None, :])
        self.kept = (rows >= 0) & (cols >= 0)
        self.assembly = Assembly(rows[self.kept], cols[self.kept], len(self.free))

    def start(self) -> np.ndarray:
        """The unknowns of the base radii."""
        r = self.base[self.free]
        return np.log(r) if self.mode == triples.EUCLIDEAN else np.log(np.tan(0.5 * r))

    def radii_from(self, u: np.ndarray) -> np.ndarray:
        r = self.base.copy()
        r[self.free] = np.exp(u) if self.mode == triples.EUCLIDEAN else 2.0 * np.arctan(np.exp(u))
        return r

    def sigma(self, radii: np.ndarray) -> np.ndarray:
        lengths = triples.edge_lengths(self.mode, radii[self.fv], self.face_theta)
        alphas = triples.inner_angles_from_lengths(self.mode, lengths)
        out = np.zeros(self.t.vertex_count)
        np.add.at(out, self.fv.ravel(), alphas.ravel())
        return out

    def curvatures(self, u: np.ndarray) -> np.ndarray:
        radii = self.radii_from(u)
        return 2.0 * PI - self.sigma(radii)[self.free]

    def min_margin(self, u: np.ndarray) -> float:
        radii = self.radii_from(u)
        m = triples.feasibility_margin(self.mode, radii[self.fv], self.face_theta)
        return float(np.min(m)) if len(m) else 1.0

    def jacobian(self, u: np.ndarray):
        """dK/du, assembled from per-face 3x3 blocks of d(alpha_i)/du_j.

        The blocks' entries in free rows and columns are summed by
        ``_newton.Assembly``: a dense array up to order ``DENSE_MAX``, a CSC
        matrix above it, as ``_newton.factorize`` factorizes them.

        Each block is dl/du, with dl_i/du_j = a_j (a_j b_k + b_j a_k cos
        theta_i) / L_i, where (a, b, L) is (r, 1, l) in the plane and (sin r,
        cos r, sin l) on the sphere, followed by the differentiated law of
        cosines, d(alpha_i) = L_i / D (dl_i - cos alpha_k dl_j - cos alpha_j
        dl_k), where D = L_j L_k sin alpha_i is the square root of
        ``feasibility_margin``.  A face of zero area makes entries
        non-finite; the caller checks.
        """
        r = self.radii_from(u)[self.fv]
        th = self.face_theta
        lengths = triples.edge_lengths(self.mode, r, th)
        cos_a = np.cos(triples.inner_angles_from_lengths(self.mode, lengths))
        if self.mode == triples.EUCLIDEAN:
            a, b, side = r, np.ones_like(r), lengths
        else:
            a, b, side = np.sin(r), np.cos(r), np.sin(lengths)
        i, j, k = [0, 1, 2], triples.NEXT, triples.AFTER
        aj, ak = a[:, j], a[:, k]
        bj, bk, c = b[:, j], b[:, k], np.cos(th)
        dl = np.zeros((len(r), 3, 3))
        dalpha = np.zeros_like(dl)
        dalpha[:, i, i] = 1.0
        dalpha[:, i, j] = -cos_a[:, k]
        dalpha[:, i, k] = -cos_a[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            dl[:, i, j] = aj * (aj * bk + bj * ak * c) / side
            dl[:, i, k] = ak * (ak * bj + bk * aj * c) / side
            root = np.sqrt(triples.feasibility_margin(self.mode, r, th))
            blocks = (side / root[:, None])[:, :, None] * (dalpha @ dl)
        return self.assembly.matrix(-blocks[self.kept])


def solve_euclidean(t: Triangulation, theta: AngleAssignment, marked_face,
                    opts: SolveOptions = SolveOptions()
                    ) -> Tuple[EuclideanConfiguration, CurvatureReport]:
    """Solve for a planar pattern realizing the angle data, the marked face
    hosting the interstice at infinity.

    The marked radii stay pinned at 1 during iteration; the final
    configuration is normalized (marked center at the origin, next marked
    center on the positive axis, radii summing to one).

    The curvature Newton stops at ``opts.tol_K``, at its rounding floor or
    after ``opts.max_iters`` steps, as the report's first note says.  The
    last raises Stalled; the others are laid out, polished and accepted
    when the realized angles pass ``triples.angle_errors`` at
    ``opts.tol_angle``, the test of ``verify_pattern``, else Stalled, as is
    a layout that fails.  Stalled carries the stop reason and the collapse
    suspects of the failing radii.
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
    newton = f"curvature residual {res} ({stop}) leaves"
    if stop == "step limit":
        failure = f"no convergence after {it} iterations (residual {res})"
    else:
        try:
            centers = layout_euclidean(t, theta, radii, fid, tol_layout=opts.tol_layout)
        except LayoutInconsistent as exc:
            failure = f"{newton} no layout: {exc}"
        else:
            centers, radii, polish_note = _polish(t, theta, centers, radii, face)
            centers, radii = _normalize(centers, radii, face)
            angle_residual, radians, ok = triples.angle_errors(
                triples.EUCLIDEAN, centers, radii, t.edge_array, theta.array(), opts.tol_angle)
            failure = None if ok else (f"{newton} angle residual {angle_residual} on cosines, "
                                       f"{radians} in radians, above {opts.tol_angle}")
    if failure:
        from .degeneration import sublevel_suspects  # loaded only by a failing solve

        raise Stalled(failure, residual=res, suspects=sublevel_suspects(
            t, theta, radii, opts.diag_max, avoid=face, top=5))

    sigma = cmap.sigma(radii)
    rep = CurvatureReport(
        sigma={v: float(sigma[v]) for v in cmap.free},
        curvature={v: 2.0 * PI - sigma[v] for v in cmap.free}, max_abs_K=res, iterations=it,
        residual_trace=trace, angle_residual=angle_residual,
        notes=[f"newton: {it} steps, residual {res:.2e}, stop: {stop}", polish_note],
    )
    cfg = EuclideanConfiguration(centers, radii, face, {"y4": True, "y5": True, "y6": True})
    return cfg, rep


def _curvature_newton(cmap: _CurvatureMap, tol: float, max_iters: int):
    """Damped Newton on the curvatures from the map's base radii, by
    ``_newton.damped_newton``.  Each step solves J du = -K by
    ``_newton.factorize`` (dense or sparse LU by the order of J), or by
    ``lstsq`` when J is singular; there is none when J is not finite (a face
    of zero area).  A candidate is admissible when every face closes up.
    Returns what ``damped_newton`` returns, x being the free unknowns u.
    """
    def step(u, K):
        J = cmap.jacobian(u)
        if not np.all(np.isfinite(J if isinstance(J, np.ndarray) else J.data)):
            return None
        try:
            return factorize(J)(-K)
        except np.linalg.LinAlgError:
            dense = J if isinstance(J, np.ndarray) else J.toarray()
            return np.linalg.lstsq(dense, -K, rcond=None)[0]

    def residual(u):
        return cmap.curvatures(u) if cmap.min_margin(u) > 0.0 else None

    u = cmap.start()
    return damped_newton(u, cmap.curvatures(u), residual, step, lambda u, du: u + du,
                         tol, max_iters)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def layout_euclidean(t: Triangulation, theta: AngleAssignment, radii: np.ndarray, marked_face,
                     tol_layout: float = SolveOptions.tol_layout) -> np.ndarray:
    """Develop the punctured triangulation in the plane.

    BFS over face adjacency from a seed face; every face is placed from its
    three edge lengths with positive orientation.  Re-derived vertex
    positions must agree within ``tol_layout`` times the pattern diameter.
    """
    fid, _ = resolve_marked_face(t, marked_face)
    radii = np.asarray(radii, dtype=float)
    centers, max_disagree = _develop(t, theta, radii, fid)
    diameter = float(max(np.max(x + radii) - np.min(x - radii)
                         for x in (centers.real, centers.imag)))
    if max_disagree > tol_layout * diameter:
        raise LayoutInconsistent(f"developing map disagreement {max_disagree} exceeds "
                                 f"{tol_layout} * diameter {diameter}")
    return centers


def _develop(t: Triangulation, theta: AngleAssignment, radii: np.ndarray, skip=None,
             mode: str = triples.EUCLIDEAN, s: float = 1.0) -> Tuple[np.ndarray, float]:
    """Centers of the developing map of every face but ``skip`` at angles s
    times theta, and the largest disagreement of a re-derived center with
    its first placement.  Plane: complex centers, the seed face's first
    vertex at 0.  Sphere: unit 3-vectors in scalar floats, the seed's
    first vertex at the north pole; arcs are passed as their haversines,
    by the law of ``triples.edge_lengths``.  Each new center is the apex of
    ``triples._third_point`` (plane) or ``triples._third_point_on_sphere``
    on a placed edge.  The edge opposite corner i of face f is
    ``t.face_edges[f, i]``."""
    if mode == triples.EUCLIDEAN:
        cos_t = [math.cos(s * x) for x in theta.values]
        def length(u, v, e):
            ru, rv = radii[u], radii[v]
            return math.sqrt(ru ** 2 + rv ** 2 + 2.0 * cos_t[e] * ru * rv)
        apex, gap = triples._third_point, lambda p, q: abs(p - q)
        first, second = np.complex128(0.0), np.complex128
    else:
        def length(u, v, e):
            return math.sin(0.5 * (rad[u] + rad[v])) ** 2 - hav_t[e] * sin_r[u] * sin_r[v]
        hav_t = [math.sin(0.5 * s * x) ** 2 for x in theta.values]
        rad, sin_r = radii.tolist(), np.sin(radii).tolist()
        apex, gap = triples._third_point_on_sphere, math.dist
        first, second = (0.0, 0.0, 1.0), lambda h: (2.0 * math.sqrt(max(h * (1.0 - h), 0.0)),
                                                    0.0, 1.0 - 2.0 * h)

    centers, face_edges = [None] * t.vertex_count, t.face_edges.tolist()
    seed = min(g for g in range(t.face_count) if g != skip)
    (a, b, c), (ea, eb, ec) = t.faces[seed], face_edges[seed]
    centers[a], centers[b] = first, second(length(a, b, ec))
    centers[c] = apex(centers[a], centers[b], length(a, c, eb), length(b, c, ea))

    placed_faces, max_disagree, queue = {seed, skip}, 0.0, deque([seed])
    while queue:
        g = queue.popleft()
        for e in face_edges[g]:
            for h in t.edge_faces[e]:
                if h in placed_faces:
                    continue
                placed_faces.add(h)
                queue.append(h)
                face, edges = t.faces[h], face_edges[h]
                # rotate so the shared edge (known centers) comes first
                r = next(r for r in range(3) if centers[face[r]] is not None
                         and centers[face[r - 2]] is not None)
                fa, fb, fc = face[r], face[r - 2], face[r - 1]
                p = apex(centers[fa], centers[fb], length(fa, fc, edges[r - 2]),
                         length(fb, fc, edges[r]))
                if centers[fc] is None:
                    centers[fc] = p
                else:
                    max_disagree = max(max_disagree, gap(p, centers[fc]))
    if any(z is None for z in centers):
        raise LayoutInconsistent("some vertex was never placed")
    return np.array(centers, dtype=complex if mode == triples.EUCLIDEAN else float), max_disagree


def _polish(t: Triangulation, theta: AngleAssignment, centers: np.ndarray, radii: np.ndarray,
            tied) -> Tuple[np.ndarray, np.ndarray, str]:
    """Newton polish of the planar configuration in inversive-distance space.

    The curvature iteration leaves a residual that the developing map can
    amplify on circles far smaller than the pattern (the per-edge angle
    error scales with position error over radius product).  Gauss-Newton on
    I_e(z, r) = cos(theta_e) drives the dimensionless residuals to rounding
    level.  The Moebius motions stay free for the caller's normalization;
    the marked radii are ``tied`` to move together, which keeps them equal.
    Returns the polished centers and radii and a one-line account of the
    polish.
    """
    centers, radii, _, steps, res, stop = gauss_newton(
        centers, radii, np.asarray(t.edges, dtype=int),
        np.cos(theta.array()), POLISH_TOL, POLISH_ITERS, tied=tied,
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
