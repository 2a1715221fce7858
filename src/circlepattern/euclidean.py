"""Euclidean circle-pattern solver for the interstice regime.

Radii are found by damped Newton iteration on the apex-curvature map in
log-radius variables from equal radii, with the three marked-face radii
pinned equal; the centers are then produced by developing the
triangulation face by face.  The iteration stops by the rule of
``_newton``; the realized angles after polish decide whether it found a
pattern.  The map, its Newton, the layout and the polish also serve the
spherical homotopy.
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
        aj, ak = np.roll(a, -1, axis=1), np.roll(a, -2, axis=1)
        bj, bk, c = np.roll(b, -1, axis=1), np.roll(b, -2, axis=1), np.cos(th)
        i, j, k = [0, 1, 2], [1, 2, 0], [2, 0, 1]
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
    rep = CurvatureReport(
        sigma={v: float(sigma[v]) for v in cmap.free},
        curvature={v: 2.0 * PI - sigma[v] for v in cmap.free}, max_abs_K=res, iterations=it,
        residual_trace=trace, angle_residual=angle_residual,
        notes=[f"newton: {it} steps, residual {res:.2e}, stop: {stop}", polish_note],
    )
    cfg = EuclideanConfiguration(centers, radii, face, {"y4": True, "y5": True, "y6": True})
    return cfg, rep


def _curvature_newton(cmap: _CurvatureMap, tol: float, max_iters: int):
    """Damped Newton on the curvatures from the map's base radii: each step
    solves J du = -K, by ``_newton.factorize`` (dense or sparse LU by the order of
    J) or by ``lstsq`` when J is singular, and is halved until every face
    closes up and the residual norm drops.  Stops as
    ``_newton.gauss_newton`` does, and also at the rounding floor when the
    Jacobian is not finite (a face of zero area).

    Returns (free unknowns u, iterations, largest residual before and after
    each step, why it stopped: "tolerance", "rounding floor" or "step
    limit").
    """
    u = cmap.start()
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

def layout_euclidean(t: Triangulation, theta: AngleAssignment, radii: np.ndarray, marked_face,
                     tol_layout: float = 1e-8) -> np.ndarray:
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
    first vertex at the north pole; arcs are passed as their cosines.  The
    edge opposite corner i of face f is ``t.face_edges[f, i]``."""
    cos_t = [math.cos(s * x) for x in theta.values]
    if mode == triples.EUCLIDEAN:
        def length(u, v, e):
            ru, rv = radii[u], radii[v]
            return math.sqrt(ru ** 2 + rv ** 2 + 2.0 * cos_t[e] * ru * rv)
        apex, gap = _third_point, lambda p, q: abs(p - q)
        first, second = np.complex128(0.0), np.complex128
    else:
        def length(u, v, e):
            return cos_r[u] * cos_r[v] - cos_t[e] * sin_r[u] * sin_r[v]
        cos_r, sin_r = np.cos(radii).tolist(), np.sin(radii).tolist()
        apex, gap, first, second = (_third_point_on_sphere, math.dist, (0.0, 0.0, 1.0),
                                    lambda c: (math.sqrt(max(1.0 - c * c, 0.0)), 0.0, c))

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


def _third_point(z0: complex, z1: complex, d0: float, d2: float) -> complex:
    """Apex of the positively oriented triangle with base z0 -> z1 and
    side lengths |p - z0| = d0, |p - z1| = d2."""
    base = z1 - z0
    d = abs(base)
    x = (d * d + d0 * d0 - d2 * d2) / (2.0 * d)
    y2 = d0 * d0 - x * x
    y = math.sqrt(max(y2, 0.0))
    return z0 + (x + 1j * y) * (base / d)


def _third_point_on_sphere(a, b, c0: float, c2: float):
    """Apex p of the positively oriented spherical triangle with base a -> b
    (unit 3-tuples) and a.p = c0, b.p = c2: p = c0 a + x t + y n, with t
    the unit tangent at a toward b and n = a x b / |a x b|."""
    (ax, ay, az), (bx, by, bz) = a, b
    c = ax * bx + ay * by + az * bz
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    s = math.sqrt(nx * nx + ny * ny + nz * nz)
    x = (c2 - c * c0) / s
    y = math.sqrt(max(1.0 - c0 * c0 - x * x, 0.0))
    ka, kb, kn = c0 - x * c / s, x / s, y / s
    return ka * ax + kb * bx + kn * nx, ka * ay + kb * by + kn * ny, ka * az + kb * bz + kn * nz


def _polish(t: Triangulation, theta: AngleAssignment, centers: np.ndarray, radii: np.ndarray,
            tied=(), mode: str = triples.EUCLIDEAN) -> Tuple[np.ndarray, np.ndarray, str]:
    """Newton polish of the full configuration in inversive-distance space.

    The curvature iteration leaves a residual that the developing map can
    amplify on circles far smaller than the pattern (the per-edge angle
    error scales with position error over radius product).  Gauss-Newton on
    I_e(z, r) = cos(theta_e) drives the dimensionless residuals to rounding
    level; a step is kept only if it lowers the residual.  The Moebius
    motions stay free for the caller's normalization; in the plane the
    marked radii are ``tied`` to move together, which keeps them equal.
    Returns the polished centers and radii and a one-line account of the
    polish.
    """
    centers, radii, _, steps, res, stop = gauss_newton(
        mode, centers, radii, np.asarray(t.edges, dtype=int),
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


def _angle_residual(t, theta, centers, radii, mode: str = triples.EUCLIDEAN) -> float:
    """Max realized-angle mismatch over edges, measured on cosines."""
    inv = inversive(mode, centers, radii, np.asarray(t.edges, dtype=int))
    return float(np.max(np.abs(inv - np.cos(theta.array()))))
