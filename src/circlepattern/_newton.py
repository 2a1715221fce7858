"""Kernels shared by the planar and spherical solvers: the damped Newton
loop of every Newton run, the LU of its matrices (numpy's dense LU up to
order ``DENSE_MAX``, scipy's sparse LU above it, imported only then), and
the curvature core that both solvers run.

The core is the cone-angle map ``_CurvatureMap``, its Newton
``_curvature_newton``, the developing map ``_develop`` with the planar
layout check ``layout_euclidean``, and ``resolve_marked_face``.  The
planar solve (``euclidean``) runs it once and polishes the layout; the
spherical solve (``spherical``) runs it for the tangency packing that
starts its homotopy and at every homotopy step.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Callable, Tuple

import numpy as np

from . import triples
from .errors import DomainError, LayoutInconsistent
from .options import SolveOptions
from .triangulation import AngleAssignment, Triangulation

PI = math.pi
LINE_SEARCH_HALVINGS = 30
FLOOR_RESIDUAL = 1e-9    # largest residual from which a slow step marks the rounding floor
DENSE_MAX = 600          # largest order factorized dense; scipy's splu above


class Assembly:
    """Summation plan of triplets with fixed rows and columns into a square
    matrix of order ``size``: a dense array up to ``DENSE_MAX``, a CSC
    matrix above it.  Entries at one position are summed in input order,
    as ``np.add.at`` sums them."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        slots, self.slot_of = np.unique(cols.astype(np.int64) * size + rows,
                                        return_inverse=True)
        self.rows, self.cols = slots % size, slots // size
        self.indptr = np.searchsorted(self.cols, np.arange(size + 1))
        self.size = size

    def matrix(self, vals: np.ndarray):
        data = np.bincount(self.slot_of, weights=vals, minlength=len(self.rows))
        if self.size > DENSE_MAX:
            from scipy.sparse import csc_matrix
            return csc_matrix((data, self.rows, self.indptr), shape=(self.size, self.size))
        A = np.zeros((self.size, self.size))
        A[self.rows, self.cols] = data
        return A


def factorize(A) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of A x = b by LU: numpy's dense solver for an array, ``splu``
    with the COLAMD column order for a CSC matrix, whose factor serves
    every right-hand side.  A singular factor raises
    ``np.linalg.LinAlgError``, here or at the solve."""
    if isinstance(A, np.ndarray):
        return lambda b: np.linalg.solve(A, b)
    from scipy.sparse.linalg import splu
    try:
        return splu(A, permc_spec="COLAMD").solve
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from None


def damped_newton(x, f, residual: Callable, step: Callable, move: Callable,
                  tol: float, max_iters: int):
    """Damped Newton from ``x``, whose residual vector is ``f``: each step
    ``step(x, f)`` is halved until ``move(x, lam * step)`` has a
    ``residual`` that is admissible (not None) and of lower norm.

    Stops when the largest residual is at most ``tol``, after ``max_iters``
    steps, or at the rounding floor: when ``step`` is None (no step can be
    taken), when no halving lowers the norm, or after a slow step (damped,
    or a full step that does not halve the largest residual) taken from a
    largest residual of at most ``FLOOR_RESIDUAL``.  Quadratic convergence
    rules out slow steps there above rounding level; above it a slow step
    is the damped phase of a start outside the quadratic region, and the
    run goes on (the monotonicity test of Deuflhard, *Newton Methods for
    Nonlinear Problems*, 2004, with the residual level of the floor).

    Returns (x, iterations, largest residual before and after each step,
    why it stopped: "tolerance", "rounding floor" or "step limit").
    """
    trace = [float(np.max(np.abs(f))) if len(f) else 0.0]
    for it in range(max_iters):
        if trace[-1] <= tol:
            return x, it, trace, "tolerance"
        dx = step(x, f)
        if dx is None:
            return x, it, trace, "rounding floor"
        norm0, lam = np.linalg.norm(f), 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            cand = move(x, lam * dx)
            f_try = residual(cand)
            if f_try is not None and np.linalg.norm(f_try) < norm0:
                break
            lam *= 0.5
        else:
            return x, it, trace, "rounding floor"
        x, f = cand, f_try
        trace.append(float(np.max(np.abs(f))))
        if (lam < 1.0 or trace[-1] > 0.5 * trace[-2]) and trace[-2] <= FLOOR_RESIDUAL:
            return x, it + 1, trace, "rounding floor"
    return x, max_iters, trace, "tolerance" if trace[-1] <= tol else "step limit"


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
        ``Assembly``: a dense array up to order ``DENSE_MAX``, a CSC
        matrix above it, as ``factorize`` factorizes them.

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


def _curvature_newton(cmap: _CurvatureMap, tol: float, max_iters: int):
    """Damped Newton on the curvatures from the map's base radii, by
    ``damped_newton``.  Each step solves J du = -K by
    ``factorize`` (dense or sparse LU by the order of J), or by
    ``lstsq`` when J is singular; there is none when J is not finite (a face
    of zero area).  A candidate is admissible when every face closes up and
    its inner angles are defined and finite.
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

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def residual(u):
        if not cmap.min_margin(u) > 0.0:
            return None
        try:
            K = cmap.curvatures(u)
        except DomainError:  # a face too thin for its inner angles
            return None
        return K if np.all(np.isfinite(K)) else None

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
