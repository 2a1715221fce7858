import math
import time
from itertools import islice

import numpy as np
import pytest

from circlepattern import (
    AngleAssignment,
    build_triangulation,
    classify,
    inversive_distance,
    lift_to_sphere,
    solve_euclidean,
    solve_spherical,
)
from circlepattern import _newton, euclidean, shapes, spherical, triples
from circlepattern.configurations import EuclideanConfiguration
from circlepattern.errors import ConditionsViolated, ContinuationStuck, DomainError
from circlepattern.verify import CirclePattern

from random_triangulations import loop_subdivide, obtuse_matching

PI = math.pi


def symmetric_radius(adjacent_dot: float, theta: float) -> float:
    """Bisection oracle for the common cap radius of a vertex-transitive
    pattern with centers at unit directions whose adjacent dot product is
    ``adjacent_dot``."""

    def realized(rho):
        return (math.cos(rho) ** 2 - adjacent_dot) / math.sin(rho) ** 2

    lo, hi = 1e-6, PI / 2 - 1e-9
    want = math.cos(theta)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if realized(mid) > want:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lift_one(center: complex, radius: float):
    """The cap of one planar circle, through ``lift_to_sphere``."""
    cfg = EuclideanConfiguration(np.array([center], dtype=complex), np.array([radius]), None)
    sph = lift_to_sphere(cfg)
    return sph.centers[0], sph.radii[0]


def to_sphere(w):
    """Inverse stereographic projection of complex points, 0 to the south
    pole."""
    w = np.asarray(w, dtype=complex)
    return np.stack([2 * w.real, 2 * w.imag, np.abs(w) ** 2 - 1], axis=-1) / (1 + np.abs(w) ** 2)[..., None]


class TestLift:
    def test_unit_circle_maps_to_south_hemisphere(self):
        n, r = lift_one(0j, 1.0)
        assert np.allclose(n, [0, 0, -1], atol=1e-15)
        assert r == pytest.approx(PI / 2, abs=1e-15)

    def test_far_circle_maps_near_north_pole(self):
        n, r = lift_one(100 + 0j, 1.0)
        assert n[2] > 0.999
        assert r < 1e-3

    def test_random_circles_lift_onto_their_caps(self):
        """Lifted boundary points lie on the cap's circle and the lifted
        center inside the cap, for circles that enclose the origin, pass
        through it (r = |c|) or leave it outside."""
        rng = np.random.default_rng(8)
        m = 300
        c = rng.normal(0.0, 3.0, m) + 1j * rng.normal(0.0, 3.0, m)
        r = np.abs(c) * rng.uniform(0.05, 2.0, m)
        r[:60] = np.abs(c[:60])
        assert np.sum(r > np.abs(c)) > 50 and np.sum(r < np.abs(c)) > 50
        sph = lift_to_sphere(EuclideanConfiguration(c, r, None))
        boundary = to_sphere(c[:, None] + r[:, None] * np.exp(1j * rng.uniform(0, 2 * PI, (m, 16))))
        on_circle = np.einsum("mkj,mj->mk", boundary, sph.centers) - np.cos(sph.radii)[:, None]
        assert np.max(np.abs(on_circle)) < 1e-12
        inside = np.einsum("mj,mj->m", to_sphere(c), sph.centers) - np.cos(sph.radii)
        assert np.all(inside > 0.0)

    def test_lift_preserves_inversive_distance(self, octa):
        th = AngleAssignment.constant(octa, PI / 4)
        cfg, _ = solve_euclidean(octa, th, 0)
        sph = lift_to_sphere(cfg)
        worst = 0.0
        for (u, v) in octa.edges:
            Ie = inversive_distance(
                "euclidean", cfg.centers[u], cfg.radii[u], cfg.centers[v], cfg.radii[v]
            )
            Is = inversive_distance(
                "spherical", sph.centers[u], sph.radii[u], sph.centers[v], sph.radii[v]
            )
            worst = max(worst, abs(Ie - Is))
        assert worst < 1e-10


class TestOctahedronSymmetric:
    def test_matches_symmetry_reduced_oracle(self, octa):
        th = AngleAssignment.constant(octa, PI / 3)
        cfg, rep = solve_spherical(octa, th)
        assert rep.angle_residual < 1e-12

        rho = symmetric_radius(0.0, PI / 3)
        assert abs(rho - math.atan(math.sqrt(2))) < 1e-10
        # Moebius-invariant comparison: all pairwise inversive distances of
        # the solved pattern match the symmetric configuration's
        p = CirclePattern.from_spherical(octa, th, cfg)
        inv = p.inversive_matrix()
        cr2, sr2 = math.cos(rho) ** 2, math.sin(rho) ** 2
        for u in range(6):
            for v in range(u + 1, 6):
                dot = 0.0 if octa.has_edge(u, v) else -1.0
                want = (cr2 - dot) / sr2
                assert abs(inv[u, v] - want) < 1e-8

    def test_normalization_gauge(self, octa):
        th = AngleAssignment.constant(octa, PI / 3)
        cfg, _ = solve_spherical(octa, th)
        a, b, c = cfg.marked_face
        assert np.allclose(cfg.centers[a], [0, 0, -1], atol=1e-15)
        assert abs(cfg.centers[b][1]) < 1e-15 and cfg.centers[b][0] > 0
        assert cfg.centers[c][1] > 0
        assert np.allclose(cfg.radii[[a, b, c]], PI / 4, atol=1e-15)
        assert np.allclose(np.linalg.norm(cfg.centers, axis=1), 1.0, atol=1e-12)


class TestGauge:
    def test_rotation_and_reflection_branches(self, octa):
        """A moved pattern and its mirror image reach the same gauge, one
        through a rotation and the other through a reflection."""
        vals = np.full(octa.edge_count, PI / 3)
        vals[0] += 0.05
        th = AngleAssignment(octa, tuple(vals))
        cfg, _ = solve_spherical(octa, th)
        face = cfg.marked_face
        rot, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        moved = spherical._from_de_sitter(
            spherical._boost(spherical._de_sitter(cfg.centers @ rot.T, cfg.radii),
                             np.array([0.2, -0.1, 0.3])))
        want = CirclePattern.from_spherical(octa, th, cfg).inversive_matrix()
        results, branches = [], set()
        for mirror in (np.eye(3), np.diag([-1.0, 1.0, 1.0])):
            centers_in = moved[0] @ mirror
            centers, radii = spherical._into_gauge(centers_in, moved[1].copy(), face)
            a, b, c = face
            assert np.allclose(centers[a], [0, 0, -1], atol=1e-15)
            assert abs(centers[b][1]) < 1e-15 and centers[b][0] > 0
            assert centers[c][1] > 0
            assert np.allclose(radii[[a, b, c]], PI / 4, atol=1e-15)
            assert np.allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-12)
            got = CirclePattern(octa, th, "spherical", centers, radii).inversive_matrix()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            branches.add(np.sign(np.linalg.det(centers_in[list(face)]))
                         * np.sign(np.linalg.det(centers[list(face)])))
            results.append(centers)
        assert branches == {1.0, -1.0}
        np.testing.assert_allclose(results[0], results[1], rtol=0, atol=1e-12)


class TestIcosahedronSymmetric:
    def test_matches_symmetry_reduced_oracle(self, icosa):
        th = AngleAssignment.constant(icosa, 2 * PI / 5)
        cfg, rep = solve_spherical(icosa, th)
        assert rep.angle_residual < 1e-12
        rho = symmetric_radius(1.0 / math.sqrt(5.0), 2 * PI / 5)
        pts = shapes._icosahedron_coordinates()
        p = CirclePattern.from_spherical(icosa, th, cfg)
        inv = p.inversive_matrix()
        cr2, sr2 = math.cos(rho) ** 2, math.sin(rho) ** 2
        for u in range(12):
            for v in range(u + 1, 12):
                want = (cr2 - float(pts[u] @ pts[v])) / sr2
                assert abs(inv[u, v] - want) < 1e-8


class TestPerturbed:
    def test_octahedron_single_edge_bump(self, octa):
        vals = np.full(octa.edge_count, PI / 3)
        vals[0] += 0.05
        th = AngleAssignment(octa, tuple(vals))
        from circlepattern import classify

        assert classify(octa, th, "m5").passed
        cfg, rep = solve_spherical(octa, th)
        assert rep.angle_residual < 1e-8
        p = CirclePattern.from_spherical(octa, th, cfg)
        inv = p.inversive_matrix()
        for eid, (u, v) in enumerate(octa.edges):
            assert abs(inv[u, v] - math.cos(vals[eid])) < 1e-10

    def test_two_disjoint_bumps(self, octa):
        vals = np.full(octa.edge_count, PI / 3)
        vals[0] += 0.05
        vals[-1] += 0.04
        th = AngleAssignment(octa, tuple(vals))
        cfg, rep = solve_spherical(octa, th)
        assert rep.angle_residual < 1e-8


class TestBipyramidFamily:
    def test_hexagonal_bipyramid_random_admissible(self):
        """Bipyramid instances once attracted Newton to spurious branches
        (angles matched but non-adjacent disks overlapped); the genuineness
        guard must keep the solver on the embedded branch."""
        from circlepattern import classify, verify_pattern

        t = shapes.bipyramid(6)
        rng = np.random.default_rng(4096)
        done = 0
        while done < 3:
            vals = np.clip(PI / 3 + rng.uniform(0.0, 0.45, t.edge_count),
                           0.05, PI - 0.05)
            th = AngleAssignment(t, tuple(vals))
            if not classify(t, th, "m5").passed:
                continue
            cfg, rep = solve_spherical(t, th)
            p = CirclePattern.from_spherical(t, th, cfg)
            assert verify_pattern(p).passed
            done += 1

    def test_octagonal_bipyramid_admissible_draw(self):
        """An admissible octagonal-bipyramid draw, uniform in
        [pi/3, pi/3 + 0.45) per edge, far from the tangency packing the
        homotopy starts at."""
        from circlepattern import classify, verify_pattern

        t = shapes.bipyramid(8)
        th = AngleAssignment(t, tuple(OCTAGONAL_BIPYRAMID_THETA[e] for e in t.edges))
        assert classify(t, th, "m5").passed
        cfg, rep = solve_spherical(t, th)
        assert rep.angle_residual < 1e-12
        assert verify_pattern(CirclePattern.from_spherical(t, th, cfg)).passed


def obtuse_edge_draws(t, rng):
    """Admissible m5 data with some obtuse edges: every edge uniform in
    (1.05, 1.5), then k edges, 1 <= k < max(2, E // 6), uniform in
    (1.6, 2.3); draws that fail the m5 conditions are skipped."""
    E = t.edge_count
    while True:
        vals = rng.uniform(1.05, 1.5, E)
        k = int(rng.integers(1, max(2, E // 6)))
        vals[rng.choice(E, k, replace=False)] = rng.uniform(1.6, 2.3, k)
        th = AngleAssignment(t, tuple(vals.tolist()))
        if classify(t, th, "m5").passed:
            yield th


@pytest.mark.parametrize("draw", [13, 17])
def test_obtuse_bipyramid_draw_reselects_its_held_caps(draw):
    """Two obtuse-edge draws on the octagonal bipyramid.  With the three
    held caps chosen once at the start, the held centers become nearly
    coplanar along the path and the homotopy gets stuck at s = 0.9946 and
    0.9859; chosen afresh before every step, both solve and verify."""
    from circlepattern import verify_pattern

    t = shapes.bipyramid(8)
    th = next(islice(obtuse_edge_draws(t, np.random.default_rng(5)), draw - 1, None))
    cfg, rep = solve_spherical(t, th)
    assert rep.angle_residual < 1e-12
    assert verify_pattern(CirclePattern.from_spherical(t, th, cfg)).passed


def test_obtuse_ico42_draws_end_on_the_corrector():
    """The first ten obtuse-edge draws on the n=42 subdivided icosahedron.
    The solve has no inversive polish after the homotopy, so the corrector
    at s = 1 must reach each pattern on its own."""
    from circlepattern import verify_pattern

    t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 1))
    for th in islice(obtuse_edge_draws(t, np.random.default_rng(7)), 10):
        cfg, rep = solve_spherical(t, th)
        assert rep.angle_residual <= 1e-12
        assert verify_pattern(CirclePattern.from_spherical(t, th, cfg)).passed


OCTAGONAL_BIPYRAMID_THETA = {
    (0, 2): 1.2267082096255804, (0, 3): 1.0547775179108356, (0, 4): 1.1703962248996602,
    (0, 5): 1.3437760878924339, (0, 6): 1.3944718415012238, (0, 7): 1.3580665148440871,
    (0, 8): 1.2728661381581445, (0, 9): 1.2815384820508997, (1, 2): 1.113137561860812,
    (1, 3): 1.3844459150821649, (1, 4): 1.1626740035758145, (1, 5): 1.2884306531385872,
    (1, 6): 1.1816315384583647, (1, 7): 1.3597943522212306, (1, 8): 1.0920391710493758,
    (1, 9): 1.218531708345456, (2, 3): 1.0749339501266029, (2, 9): 1.1445325312464656,
    (3, 4): 1.1809170577451926, (4, 5): 1.3331189656226645, (5, 6): 1.1017757924907765,
    (6, 7): 1.4560571409881553, (7, 8): 1.259369156704474, (8, 9): 1.4257287558117238,
}


class TestSubdividedIcosahedron:
    def test_n162_no_interstice(self):
        """The n=162 subdivided icosahedron, verified at the default
        resolution."""
        from circlepattern import build_triangulation, verify_pattern

        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 2))
        assert t.vertex_count == 162
        th = AngleAssignment.constant(t, 1.2)
        cfg, rep = solve_spherical(t, th)
        assert rep.angle_residual < 1e-10
        p = CirclePattern.from_spherical(t, th, cfg)
        assert verify_pattern(p).passed

    # accepted homotopy steps of the n=642 solve, s = 0.5 and 1: the second
    # starts from the secant through the start and s = 0.5
    N642_STEPS = 2

    def test_n642_sparse_steps(self, monkeypatch):
        """The n=642 subdivided icosahedron at theta = 1.2: its 639 x 639
        curvature Jacobians are factorized sparse, and the homotopy takes
        its two steps, with fewer factorizations than the 25 of the short
        steps (0.1, then doubling up to 0.25) that it replaced."""
        from circlepattern import build_triangulation, verify_pattern

        factorize, factorized = _newton.factorize, []

        def counted(A):
            factorized.append(A.shape)
            return factorize(A)

        monkeypatch.setattr(_newton, "factorize", counted)
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 3))
        assert t.edge_count == 1920 > _newton.DENSE_MAX
        th = AngleAssignment.constant(t, 1.2)
        cfg, rep = solve_spherical(t, th)
        assert rep.iterations == self.N642_STEPS
        assert len(factorized) < 25
        assert rep.angle_residual < 1e-10
        assert verify_pattern(CirclePattern.from_spherical(t, th, cfg)).passed


class TestObtuseMatching:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("levels", [2, 3])
    def test_draw_solves_verifies_and_builds_its_polyhedron(self, levels, seed):
        """Obtuse draws on the n=162 and n=642 subdivisions
        (``obtuse_matching``): each solves with no rejected homotopy step,
        verifies, and builds a polyhedron whose check passes."""
        from circlepattern import build_polyhedron, check_polyhedron, verify_pattern

        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, levels))
        draw = obtuse_matching(np.random.default_rng(seed), t.edges)
        th = AngleAssignment(t, tuple(draw.tolist()))
        assert np.sum(draw > PI / 2) >= t.vertex_count // 4
        cfg, rep = solve_spherical(t, th)
        assert rep.notes[0].endswith(", 0 rejected")
        assert rep.angle_residual < 1e-10
        p = CirclePattern.from_spherical(t, th, cfg)
        assert verify_pattern(p).passed
        assert check_polyhedron(build_polyhedron(p), p).passed


class TestTangencyStart:
    @pytest.mark.parametrize("levels, bound", [(1, 1e-12), (3, 2e-10)])
    def test_start_is_a_tangency_packing(self, levels, bound):
        """The lifted start of ico42 and of the n=642 subdivision has every
        edge's caps tangent, |I - 1| within ``bound`` (3.5e-13 and 5.1e-11
        when laid out from the curvature Newton's radii; the planar polish
        and normalization left 5.9e-12 and 1.2e-9)."""
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, levels))
        centers, radii = spherical._tangency_start(t)
        gap = triples.inversive(triples.SPHERICAL, centers, radii, t.edge_array) - 1.0
        assert np.max(np.abs(gap)) <= bound


def stops_early_once(newton, early):
    """``newton`` whose first run at s = 1 (tolerance 0) is moved 1e-9 off
    its result and reported as stopped at the rounding floor, so that
    ``_homotopy_step`` rejects it.  ``early`` receives the moved point's
    largest curvature and largest cone-angle error."""
    def run(cmap, tol, max_iters):
        point, iters, trace, stop = newton(cmap, tol, max_iters)
        if tol == 0.0 and not early:
            point, K = cmap.at(point.u + np.where(np.arange(len(point.u)) == 0, 1e-9, 0.0))
            early.append(float(np.max(np.abs(K))))
            early.append(float(np.max(np.abs(2 * PI - point.sigma))))
            return point, iters, trace + [early[0]], "rounding floor"
        return point, iters, trace, stop
    return run


class TestHomotopy:
    def test_report_notes_explain_the_run(self, icosa, monkeypatch):
        """The notes give the accepted and rejected homotopy steps and the
        last accepted corrector's steps, residual and stop, as they were
        returned.  One step is rejected on purpose (``stops_early_once``).
        That corrector, at s = 1, runs to its rounding floor, and the solve
        runs no inversive Gauss-Newton: the tangency start is laid out from
        its radii, without the planar polish."""
        steps, polishes, early = [], [], []
        homotopy_step, gauss_newton = spherical._homotopy_step, euclidean.gauss_newton

        def recorded_step(*args):
            steps.append(homotopy_step(*args))
            return steps[-1]

        def recorded_polish(*args, **kwargs):
            polishes.append(gauss_newton(*args, **kwargs))
            return polishes[-1]

        monkeypatch.setattr(spherical, "_curvature_newton",
                            stops_early_once(spherical._curvature_newton, early))
        monkeypatch.setattr(spherical, "_homotopy_step", recorded_step)
        monkeypatch.setattr(euclidean, "gauss_newton", recorded_polish)
        _, rep = solve_spherical(icosa, AngleAssignment.constant(icosa, 1.2))
        accepted = [step for step in steps if step is not None]
        _, _, iters, stop, res = accepted[-1]
        assert len(accepted) == rep.iterations and len(steps) == len(accepted) + 1
        assert len(polishes) == 0
        assert stop == "rounding floor"
        assert rep.notes == [
            f"homotopy: {len(accepted)} steps accepted, 1 rejected",
            f"newton: {iters} steps, residual {res:.2e}, stop: {stop}"]


class TestRoundingFloor:
    def test_corrector_accepts_its_rounding_floor(self, icosa, monkeypatch):
        """A corrector that stops at its rounding floor is accepted.  The
        curvature corrector's floor lies far below its 1e-10 tolerance
        (about 1e-15 here, 4e-15 at n=642 and theta = 1.2), so a
        tolerance below any floor makes every corrector stop there, and
        the solve still reaches the same pattern."""
        th = AngleAssignment.constant(icosa, 2 * PI / 5)
        want, _ = solve_spherical(icosa, th)
        monkeypatch.setattr(spherical, "NEWTON_TOL", 1e-30)
        cfg, rep = solve_spherical(icosa, th)
        assert rep.angle_residual < 1e-13
        np.testing.assert_allclose(cfg.radii, want.radii, rtol=0, atol=1e-13)
        np.testing.assert_allclose(cfg.centers, want.centers, rtol=0, atol=1e-13)


    def test_final_corrector_that_stops_early_is_retried(self, icosa, monkeypatch):
        """At s = 1 a corrector that stops as "rounding floor" above
        ``FINAL_TOL`` (``stops_early_once``) is rejected although every
        cone angle closes up to ``SIGMA_TOL``; the homotopy retries from a
        shorter step and ends on a corrector that reached its floor."""
        th = AngleAssignment.constant(icosa, 1.2)
        want, _ = solve_spherical(icosa, th)
        early, steps = [], []
        homotopy_step = spherical._homotopy_step

        def recorded_step(*args):
            steps.append((args[2], homotopy_step(*args)))
            return steps[-1][1]

        monkeypatch.setattr(spherical, "_curvature_newton",
                            stops_early_once(spherical._curvature_newton, early))
        monkeypatch.setattr(spherical, "_homotopy_step", recorded_step)
        cfg, rep = solve_spherical(icosa, th)
        assert spherical.FINAL_TOL < early[0] and early[1] <= spherical.SIGMA_TOL
        finals = [step for s, step in steps if s == 1.0]
        assert len(finals) == 2 and finals[0] is None and finals[1] is not None
        assert finals[1][4] <= 1e-14
        assert rep.angle_residual <= 1e-13
        np.testing.assert_allclose(cfg.radii, want.radii, rtol=0, atol=1e-13)
        np.testing.assert_allclose(cfg.centers, want.centers, rtol=0, atol=1e-13)

    def test_corrector_that_damps_at_s1_runs_to_its_floor(self, icosa, monkeypatch):
        """Straight from the tangency start to s = 1 at theta = 1.2 the
        corrector's first step is damped, far above the rounding floor.  The
        corrector goes on, reaches its floor, and the step is accepted."""
        stops, events = [], []
        newton, factorize = spherical._curvature_newton, _newton.factorize
        evaluate = _newton._CurvatureMap.at

        def recorded(cmap, tol, max_iters):
            stops.append(newton(cmap, tol, max_iters))
            return stops[-1]

        def factorized(A):
            events.append("F")
            return factorize(A)

        def evaluated(cmap, u):
            events.append("K")
            return evaluate(cmap, u)

        centers, radii = spherical._tangency_start(icosa)
        monkeypatch.setattr(spherical, "_curvature_newton", recorded)
        monkeypatch.setattr(_newton, "factorize", factorized)
        monkeypatch.setattr(_newton._CurvatureMap, "at", evaluated)
        th = AngleAssignment.constant(icosa, 1.2)
        step = spherical._homotopy_step(icosa, th, 1.0, centers, radii, icosa.faces[0][0])
        (_, iters, trace, stop), = stops
        assert step is not None and (iters, stop) == (6, "rounding floor")
        assert trace[-1] <= 1e-14 and step[4] == trace[-1]
        # the first step's line search evaluated more than its full step
        first = "".join(events).split("F")[1]
        assert len(first) > 1 and trace[0] > _newton.FLOOR_RESIDUAL

    def test_failed_corrector_is_rejected_within_its_budget(self, monkeypatch):
        """Straight from the tangency start to s = 1 on the n=2562
        subdivision at theta = 1.2 the corrector stalls near 4e-3.  Its line
        search meets candidates whose faces close up (positive margins) but
        are too thin for the half-angle law (sin l = 0): they are refused,
        with no numpy warning and no DomainError, and the step is rejected
        after ``CORRECTOR_ITERS`` steps, one factorization each."""
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 4))
        centers, radii = spherical._tangency_start(t)
        stops, factorized, refused = [], [], []
        newton, factorize = spherical._curvature_newton, _newton.factorize
        inner_angles = triples.inner_angles_from_lengths

        def recorded(cmap, tol, max_iters):
            stops.append(newton(cmap, tol, max_iters))
            return stops[-1]

        def counted(A):
            factorized.append(A.shape)
            return factorize(A)

        def recorded_angles(mode, lengths):
            try:
                return inner_angles(mode, lengths)
            except DomainError:
                refused.append(mode)
                raise

        monkeypatch.setattr(spherical, "_curvature_newton", recorded)
        monkeypatch.setattr(_newton, "factorize", counted)
        monkeypatch.setattr(triples, "inner_angles_from_lengths", recorded_angles)
        th = AngleAssignment.constant(t, 1.2)
        assert spherical._homotopy_step(t, th, 1.0, centers, radii, t.faces[0][0]) is None
        (_, iters, trace, stop), = stops
        assert (iters, stop) == (spherical.CORRECTOR_ITERS, "step limit")
        assert len(factorized) == spherical.CORRECTOR_ITERS
        assert refused and trace[-1] > 1e-3


class TestErrors:
    def test_conditions_enforced(self, octa):
        with pytest.raises(ConditionsViolated):
            solve_spherical(octa, AngleAssignment.constant(octa, PI / 4))

    def test_base_solve_failure_reported(self, octa, monkeypatch):
        """When the tangency packing that starts the homotopy cannot be
        solved, the failure is reported with its cause: here the start's
        curvature Newton, allowed no step, stops at its step limit."""
        from circlepattern.errors import BaseSolveFailed, Stalled

        newton = spherical._curvature_newton
        monkeypatch.setattr(spherical, "_curvature_newton",
                            lambda cmap, tol, max_iters: newton(cmap, tol, 0))
        th = AngleAssignment.constant(octa, PI / 3)
        with pytest.raises(BaseSolveFailed, match="tangency packing failed") as info:
            solve_spherical(octa, th)
        assert isinstance(info.value.__cause__, Stalled)

    def test_stuck_continuation_names_suspects(self, monkeypatch):
        """With no corrector steps no homotopy step is accepted: the step
        falls below min_step at once, and the error carries the collapse
        suspects of the start's radii within seconds."""
        monkeypatch.setattr(spherical, "CORRECTOR_ITERS", 0)
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 2))
        start = time.perf_counter()
        with pytest.raises(ContinuationStuck) as info:
            solve_spherical(t, AngleAssignment.constant(t, 1.2))
        assert time.perf_counter() - start < 2.0
        assert info.value.t_reached == 0.0
        assert info.value.suspects
        assert all(not d.subset & set(t.faces[0]) for d in info.value.suspects)

    def test_layout_that_is_not_embedded_is_rejected(self, octa, monkeypatch):
        """A homotopy step whose layout ``_is_genuine`` refuses is rejected,
        however well it closes up: with every layout refused the step
        falls below min_step at s = 0."""
        monkeypatch.setattr(spherical, "_is_genuine", lambda t, centers, radii: False)
        with pytest.raises(ContinuationStuck) as info:
            solve_spherical(octa, AngleAssignment.constant(octa, PI / 3))
        assert info.value.t_reached == 0.0

    def test_mixed_face_orientations_are_not_embedded(self, octa):
        """With caps too small to meet, only the orientation test can refuse
        a layout: the octahedron's centres are embedded, and moving one
        centre near its antipode's turns its four faces over."""
        cfg, _ = solve_spherical(octa, AngleAssignment.constant(octa, PI / 3))
        radii = np.full(octa.vertex_count, 1e-3)
        assert spherical._is_genuine(octa, cfg.centers, radii)
        v, centers = 0, cfg.centers.copy()
        far = next(u for u in range(1, 6) if u not in octa.neighbors(v))
        centers[v] = -centers[v] + 0.3 * centers[octa.neighbors(v)[0]]
        centers[v] /= np.linalg.norm(centers[v])
        assert np.linalg.norm(centers[v] - centers[far]) > 0.1
        turns = np.sign(np.linalg.det(centers[octa.face_array]))
        assert sorted(turns.tolist()) == [-1.0] * 4 + [1.0] * 4
        assert not spherical._is_genuine(octa, centers, radii)

    def test_small_triangulation_rejected(self, tetra):
        # the no-interstice class needs more than four vertices
        with pytest.raises(ConditionsViolated):
            solve_spherical(tetra, AngleAssignment.constant(tetra, 2.0))
