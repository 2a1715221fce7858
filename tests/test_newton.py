"""The Newton kernels: analytic Jacobians of the inversive-distance system
and of the planar curvature map against central-difference oracles, the
minimum-norm step, and the stopping rules."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlepattern import (
    AngleAssignment,
    build_triangulation,
    euclidean,
    inversive_distance,
    pick_marked_face,
    shapes,
    solve_euclidean,
    solve_spherical,
)
from circlepattern import _newton, spherical
from circlepattern._newton import (
    gauss_newton, min_norm_step, residual_and_jacobian, retract, tie_columns, to_dense,
)
from circlepattern.errors import Stalled
from random_triangulations import flip_edges, loop_subdivide, stack120_faces, stacked_faces

PI = math.pi


def random_configuration(mode, n, rng):
    radii = rng.uniform(0.3, 1.2, n)
    if mode == "euclidean":
        return rng.normal(size=n) * 3.0 + 3.0j * rng.normal(size=n), radii
    centers = rng.normal(size=(n, 3))
    return centers / np.linalg.norm(centers, axis=1)[:, None], radii


@pytest.mark.parametrize("mode", ["euclidean", "spherical"])
def test_jacobian_matches_central_differences(mode):
    t = shapes.icosahedron()
    edges = np.asarray(t.edges, dtype=int)
    rng = np.random.default_rng(5)
    centers, radii = random_configuration(mode, t.vertex_count, rng)
    target = np.cos(rng.uniform(0.0, 2.0, len(edges)))
    _, triplets = residual_and_jacobian(mode, centers, radii, edges, target)
    rows, cols, _ = triplets
    assert np.array_equal(np.bincount(rows), np.full(len(edges), 6))
    assert np.array_equal(cols.reshape(-1, 6) // 3, edges[:, [0, 0, 0, 1, 1, 1]])
    J = to_dense(triplets, (len(edges), 3 * t.vertex_count))

    def f(step):
        return residual_and_jacobian(mode, *retract(mode, centers, radii, step),
                                     edges, target)[0]

    h = 1e-6
    fd = np.empty_like(J)
    for i in range(J.shape[1]):
        e = np.zeros(J.shape[1])
        e[i] = h
        fd[:, i] = (f(e) - f(-e)) / (2.0 * h)
    np.testing.assert_allclose(fd, J, rtol=1e-6, atol=1e-9 * np.max(np.abs(J)))


# ---------------------------------------------------------------------------
# the curvature map of the planar solver
# ---------------------------------------------------------------------------

def ico162_uniform():
    """The planar-g5 benchmark's ico162-u draw: theta ~ U(0, 1.2) per edge,
    edges in sorted order, from seed 2024."""
    t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 2))
    draw = np.random.default_rng(2024).uniform(0.0, 1.2, t.edge_count)
    return t, AngleAssignment.from_dict(t, dict(zip(sorted(t.edges), draw)))


def obtuse_bipyramid():
    """TestObtuseInstance's data: one equatorial edge at 1.8 rad."""
    t = shapes.triangular_bipyramid()
    vals = {e: 0.2 if (0 in e or 1 in e) else 0.3 for e in t.edges}
    vals[[e for e in t.edges if 0 not in e and 1 not in e][0]] = 1.8
    return t, AngleAssignment.from_dict(t, vals)


def stack120():
    t = build_triangulation(stack120_faces())
    return t, AngleAssignment.constant(t, 0.0)


def curvature_map_points(make):
    """The planar curvature map of an instance, at the start, at the
    solution and at a random point between."""
    t, th = make()
    fid = pick_marked_face(t, th)
    cmap = euclidean._CurvatureMap(t, th, fid)
    cfg, _ = solve_euclidean(t, th, fid)
    solved = np.log(cfg.radii / cfg.radii[cfg.marked_face[0]])[cmap.free]
    mixed = np.random.default_rng(9).uniform(0.0, 1.0, len(solved)) * solved
    return cmap, [np.zeros(len(solved)), solved, mixed]


def ico42_band():
    """The n=42 subdivided icosahedron with theta ~ U(pi/3, pi/3 + 0.45) per
    edge, as the sphere-m5 benchmark draws it."""
    t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 1))
    draw = np.random.default_rng(3).uniform(PI / 3, PI / 3 + 0.45, t.edge_count)
    return t, AngleAssignment(t, tuple(draw.tolist()))


def octahedron_obtuse():
    """Admissible m5 data on the octahedron with two obtuse edges."""
    t = shapes.octahedron()
    vals = [1.1] * t.edge_count
    vals[0] = vals[11] = 2.0
    return t, AngleAssignment(t, tuple(vals))


def spherical_map_points(make):
    """The spherical curvature map of an instance, holding the caps
    ``solve_spherical`` would hold after its solution: at that solution and
    at two random points near it."""
    t, th = make()
    cfg, _ = solve_spherical(t, th)
    cmap = euclidean._CurvatureMap(t, th, None, "spherical", cfg.radii,
                                   spherical._held_caps(cfg.centers, cfg.marked_face[0]))
    solved = cmap.start()
    rng = np.random.default_rng(9)
    points = [solved] + [solved + rng.normal(0.0, 0.05, len(solved)) for _ in range(2)]
    assert all(cmap.min_margin(u) > 0.0 for u in points)
    return cmap, points


CURVATURE_CASES = {
    "ico162-u": lambda: curvature_map_points(ico162_uniform),
    "obtuse-bipyramid": lambda: curvature_map_points(obtuse_bipyramid),
    "sphere-ico42-band": lambda: spherical_map_points(ico42_band),
    "sphere-octahedron-obtuse": lambda: spherical_map_points(octahedron_obtuse),
}


@pytest.mark.parametrize("case", CURVATURE_CASES)
def test_curvature_jacobian_matches_central_differences(case):
    cmap, points = CURVATURE_CASES[case]()
    h = 1e-6
    for u in points:
        J = cmap.jacobian(u)
        fd = np.empty_like(J)
        for i in range(len(u)):
            e = np.zeros(len(u))
            e[i] = h
            fd[:, i] = (cmap.curvatures(u + e) - cmap.curvatures(u - e)) / (2.0 * h)
        np.testing.assert_allclose(fd, J, rtol=1e-6, atol=1e-8 * np.max(np.abs(J)))


@pytest.mark.parametrize("case", CURVATURE_CASES)
def test_curvature_jacobian_is_symmetric(case):
    """dK/du is the Hessian of a functional, so it is symmetric, obtuse
    angles included, in both geometries."""
    cmap, points = CURVATURE_CASES[case]()
    for u in points:
        J = cmap.jacobian(u)
        assert np.max(np.abs(J - J.T)) <= 1e-12


def test_spherical_curvature_null_space_is_the_boosts():
    """With no radius held, the spherical Jacobian maps the boost directions
    du_v = c_v . w to zero and has no other null direction; holding the
    three caps ``solve_spherical`` picks leaves it well conditioned."""
    t, th = ico42_band()
    cfg, _ = solve_spherical(t, th)
    whole = euclidean._CurvatureMap(t, th, None, "spherical", cfg.radii)
    J = whole.jacobian(whole.start())
    boosts = cfg.centers
    assert np.max(np.abs(J @ boosts)) <= 1e-12 * np.max(np.abs(J))
    eig = np.linalg.eigvalsh(J)
    assert np.sum(np.abs(eig) <= 1e-10 * np.max(np.abs(eig))) == 3
    held = spherical._held_caps(cfg.centers, cfg.marked_face[0])
    cmap = euclidean._CurvatureMap(t, th, None, "spherical", cfg.radii, held)
    assert np.linalg.cond(cmap.jacobian(cmap.start())) < 1e4


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_curvature_assembly_sums_the_face_blocks(monkeypatch, backend):
    """The curvature map's assembly equals its face blocks summed into the
    full vertex matrix by ``np.add.at`` and cut to the free vertices, bit
    for bit, as a dense array and as a CSC matrix."""
    t, th = ico162_uniform()
    cmap = euclidean._CurvatureMap(t, th, pick_marked_face(t, th))
    blocks = np.random.default_rng(3).normal(size=(len(cmap.fv), 3, 3))
    H = np.zeros((t.vertex_count, t.vertex_count))
    np.add.at(H, (cmap.fv[:, :, None], cmap.fv[:, None, :]), blocks)
    if backend == "sparse":
        monkeypatch.setattr(_newton, "DENSE_MAX", 0)
    got = cmap.assembly.matrix(-blocks[cmap.kept])
    assert isinstance(got, np.ndarray) == (backend == "dense")
    dense = got if backend == "dense" else got.toarray()
    assert np.array_equal(dense, -H[np.ix_(cmap.free, cmap.free)])


def test_curvature_jacobian_not_finite_on_a_flat_face():
    """Where a face's three circles only just fail to close up, its center
    triangle is flat: the Jacobian says so with non-finite entries and
    raises no warning."""
    t = shapes.octahedron()
    vals = [0.3] * t.edge_count
    for eid, value in zip(t.face_edge_ids(1), (2.9, 2.9, 0.1)):
        vals[eid] = value
    cmap = euclidean._CurvatureMap(t, AngleAssignment(t, tuple(vals)), 0)
    lo, hi = np.full(len(cmap.free), 3.0), np.zeros(len(cmap.free))
    assert cmap.min_margin(lo) > 0.0 >= cmap.min_margin(hi)
    for _ in range(80):  # bisect to the last representable flat point
        mid = 0.5 * (lo + hi)
        if cmap.min_margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert np.all(np.isfinite(cmap.jacobian(lo)))
    assert not np.all(np.isfinite(cmap.jacobian(hi)))


def test_non_finite_jacobian_stops_at_the_floor(monkeypatch, octa):
    """A non-finite Jacobian (a face of zero area) admits no Newton step:
    the curvature Newton stops at its rounding floor where it stands, and
    the solve, left with equal radii that have no layout, raises Stalled
    with the stop reason and the collapse suspects."""
    th = AngleAssignment.constant(octa, PI / 4)
    analytic = euclidean._CurvatureMap.jacobian
    monkeypatch.setattr(euclidean._CurvatureMap, "jacobian",
                        lambda self, u: analytic(self, u) * np.nan)
    cmap = euclidean._CurvatureMap(octa, th, 0)
    u, steps, trace, stop = euclidean._curvature_newton(cmap, 1e-10, 200)
    assert (steps, stop) == (0, "rounding floor")
    assert not np.any(u) and len(trace) == 1 and trace[0] > 1e-10
    with pytest.raises(Stalled, match="rounding floor") as info:
        solve_euclidean(octa, th, 0)
    assert info.value.suspects


def test_curvature_newton_stop_is_noted(octa):
    """Every step of a converging solve is a full step at least halving the
    largest residual; the stop reason is the report's first note."""
    th = AngleAssignment.constant(octa, PI / 4)
    _, rep = solve_euclidean(octa, th, 0)
    trace = rep.residual_trace
    assert all(b <= 0.5 * a for a, b in zip(trace, trace[1:]))
    assert rep.notes[0] == (f"newton: {rep.iterations} steps, "
                            f"residual {rep.max_abs_K:.2e}, stop: tolerance")


def test_angle_residual_matches_per_edge_loop():
    """The vectorized residual against one inversive distance per edge, on a
    perturbed pattern whose largest error is downwards."""
    t, th = obtuse_bipyramid()
    cfg, _ = solve_euclidean(t, th, pick_marked_face(t, th))
    rng = np.random.default_rng(8)
    radii = cfg.radii * rng.uniform(0.99, 1.01, len(cfg.radii))
    err = [inversive_distance("euclidean", cfg.centers[u], radii[u], cfg.centers[v], radii[v])
           - math.cos(th[e]) for e, (u, v) in enumerate(t.edges)]
    assert -min(err) > max(err) > 0.0
    got = euclidean._angle_residual(t, th, cfg.centers, radii)
    assert got == pytest.approx(max(abs(x) for x in err), rel=1e-12)


# ---------------------------------------------------------------------------
# the minimum-norm step and the rounding floor
# ---------------------------------------------------------------------------

def tied_jacobian(tie=True):
    """A full-row-rank planar Jacobian with the marked face's log-radius
    columns merged, as ``gauss_newton`` builds it: triplets, residual and
    column count."""
    t = shapes.icosahedron()
    edges = np.asarray(t.edges, dtype=int)
    rng = np.random.default_rng(4)
    centers, radii = random_configuration("euclidean", t.vertex_count, rng)
    f, (rows, cols, vals) = residual_and_jacobian("euclidean", centers, radii, edges,
                                                  np.cos(rng.uniform(0.0, 2.0, len(edges))))
    return (rows, tie_columns(cols, t.faces[0] if tie else ()), vals), f, 3 * t.vertex_count


def test_tied_columns_are_summed():
    """The merged triplets densify to the dense Jacobian with the tied
    columns summed into the first and the others zero."""
    J, f, n_cols = tied_jacobian()
    want = to_dense(tied_jacobian(tie=False)[0], (len(f), n_cols))
    tied = [3 * v + 2 for v in shapes.icosahedron().faces[0]]
    want[:, tied[0]] = want[:, tied].sum(axis=1)
    want[:, tied[1:]] = 0.0
    np.testing.assert_allclose(to_dense(J, (len(f), n_cols)), want, rtol=1e-15, atol=0.0)


def test_min_norm_step_equals_lstsq(monkeypatch):
    J, f, n_cols = tied_jacobian()
    dense = to_dense(J, (len(f), n_cols))
    assert np.linalg.matrix_rank(dense) == dense.shape[0]
    want = np.linalg.lstsq(dense, -f, rcond=None)[0]
    monkeypatch.setattr(np.linalg, "lstsq", None)  # full row rank: no fallback
    got = min_norm_step(J, f, n_cols)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))


def test_min_norm_step_falls_back_on_rank_loss():
    (rows, cols, vals), f, n_cols = tied_jacobian()
    row0 = rows == 0
    keep = rows != 1  # a repeated equation: row 1 becomes a copy of row 0
    rows = np.concatenate([rows[keep], np.ones(row0.sum(), dtype=rows.dtype)])
    cols, vals = np.concatenate([cols[keep], cols[row0]]), np.concatenate([vals[keep], vals[row0]])
    f[1] = f[0]
    J = (rows, cols, vals)
    dense = to_dense(J, (len(f), n_cols))
    got = min_norm_step(J, f, n_cols)
    assert np.array_equal(got, np.linalg.lstsq(dense, -f, rcond=None)[0])
    np.testing.assert_allclose(dense @ got, -f, atol=1e-10)


def test_min_norm_step_falls_back_on_near_rank_loss():
    """Row 1 a copy of row 0 scaled by 1 + 1e-10 k along its entries, with an
    inconsistent right side: G = J J^T factorizes, but cond(J)^2 eps is far
    above 1, so even the refined residual stays large and ``lstsq`` takes
    over."""
    (rows, cols, vals), f, n_cols = tied_jacobian()
    row0 = rows == 0
    keep = rows != 1
    rows = np.concatenate([rows[keep], np.ones(row0.sum(), dtype=rows.dtype)])
    cols = np.concatenate([cols[keep], cols[row0]])
    vals = np.concatenate([vals[keep], vals[row0] * (1.0 + 1e-10 * np.arange(1, row0.sum() + 1))])
    f[1] = f[0] + 0.1
    J = (rows, cols, vals)
    got = min_norm_step(J, f, n_cols)
    assert np.array_equal(got, np.linalg.lstsq(to_dense(J, (len(f), n_cols)), -f, rcond=None)[0])


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 40), flips=st.integers(0, 60),
       mode=st.sampled_from(["euclidean", "spherical"]), tie=st.booleans(),
       backend=st.sampled_from(["dense", "sparse"]))
def test_min_norm_step_is_the_least_norm_step(seed, n, flips, mode, tie, backend):
    """On random configurations of random triangulations the step equals
    ``lstsq``'s least-norm solution, with and without a tied face, with G
    factorized dense and sparse."""
    rng = np.random.default_rng(seed)
    t = build_triangulation(flip_edges(rng, stacked_faces(rng, n), flips))
    edges = np.asarray(t.edges, dtype=int)
    centers, radii = random_configuration(mode, n, rng)
    f, (rows, cols, vals) = residual_and_jacobian(mode, centers, radii, edges,
                                                  np.cos(rng.uniform(0.0, 2.0, len(edges))))
    J = (rows, tie_columns(cols, t.faces[0] if tie else ()), vals)
    want = np.linalg.lstsq(to_dense(J, (len(f), 3 * n)), -f, rcond=None)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_newton, "DENSE_MAX", 0 if backend == "sparse" else len(f))
        mp.setattr(np.linalg, "lstsq", None)  # full row rank: no fallback
        got = min_norm_step(J, f, 3 * n)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_polish_stops_at_the_rounding_floor(monkeypatch):
    """On the stack120 draw, radius ratios near 1e-5 hold the polish residual
    near 5e-12, far above its 1e-14 target: it must stop there within four
    steps instead of running out its step limit."""
    results = []

    def recorded(*args, **kwargs):
        results.append(gauss_newton(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(euclidean, "gauss_newton", recorded)
    t, th = stack120()
    _, rep = solve_euclidean(t, th, pick_marked_face(t, th))
    (_, _, ok, steps, res, stop), = results
    assert stop == "rounding floor" and not ok
    assert steps <= 4 < euclidean.POLISH_ITERS
    assert res < 1e-10
    assert rep.notes[-1] == f"polish: {steps} steps, residual {res:.2e}, stop: rounding floor"
