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
from circlepattern import euclidean, shapes, spherical
from circlepattern.configurations import EuclideanConfiguration
from circlepattern.errors import ConditionsViolated, ContinuationStuck
from circlepattern.verify import CirclePattern

from random_triangulations import loop_subdivide

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

    # accepted homotopy steps of the n=642 solve, s = 0.1, 0.3, 0.55, 0.8
    # and 1: the first two radius corrections take at most three Newton
    # steps, so the homotopy step doubles to its cap of 0.25
    N642_STEPS = 5

    def test_n642_sparse_steps(self):
        """The n=642 subdivided icosahedron at theta = 1.2: its 639 x 639
        curvature Jacobians and the polish's 1920 x 1920 normal matrices are
        factorized sparse, and the homotopy takes its five steps."""
        from circlepattern import _newton, build_triangulation, verify_pattern

        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 3))
        assert t.edge_count == 1920 > _newton.DENSE_MAX
        th = AngleAssignment.constant(t, 1.2)
        cfg, rep = solve_spherical(t, th)
        assert rep.iterations == self.N642_STEPS
        assert rep.angle_residual < 1e-10
        assert verify_pattern(CirclePattern.from_spherical(t, th, cfg)).passed


class TestHomotopy:
    def test_report_notes_explain_the_run(self, icosa, monkeypatch):
        """The notes give the accepted and rejected homotopy steps, the last
        accepted corrector's steps, residual and stop, and the one spherical
        polish's steps, residual and stop, as they were returned."""
        steps, polishes = [], []
        homotopy_step, gauss_newton = spherical._homotopy_step, euclidean.gauss_newton

        def recorded_step(*args):
            steps.append(homotopy_step(*args))
            return steps[-1]

        def recorded_polish(mode, *args, **kwargs):
            polishes.append((mode, gauss_newton(mode, *args, **kwargs)))
            return polishes[-1][1]

        monkeypatch.setattr(spherical, "_homotopy_step", recorded_step)
        monkeypatch.setattr(euclidean, "gauss_newton", recorded_polish)
        _, rep = solve_spherical(icosa, AngleAssignment.constant(icosa, 1.2))
        accepted = [step for step in steps if step is not None]
        _, _, iters, stop, res = accepted[-1]
        assert len(accepted) == rep.iterations and len(steps) > len(accepted)
        # one planar polish of the tangency start, one spherical polish at s = 1
        assert [mode for mode, _ in polishes] == ["euclidean", "spherical"]
        _, _, _, p_steps, p_res, p_stop = polishes[1][1]
        assert rep.notes == [
            f"homotopy: {len(accepted)} steps accepted, {len(steps) - len(accepted)} rejected",
            f"newton: {iters} steps, residual {res:.2e}, stop: {stop}",
            f"polish: {p_steps} steps, residual {p_res:.2e}, stop: {p_stop}"]


class TestRoundingFloor:
    def test_corrector_accepts_its_rounding_floor(self, icosa, monkeypatch):
        """Small caps can hold the corrector's rounding floor above its
        tolerance (about 1.4e-13 against 1e-13 at n=642); a corrector that
        stops at the floor is accepted.  A tolerance below any floor makes
        every corrector stop there."""
        th = AngleAssignment.constant(icosa, 2 * PI / 5)
        want, _ = solve_spherical(icosa, th)
        monkeypatch.setattr(spherical, "NEWTON_TOL", 1e-30)
        cfg, rep = solve_spherical(icosa, th)
        assert rep.angle_residual < 1e-13
        np.testing.assert_allclose(cfg.radii, want.radii, rtol=0, atol=1e-13)
        np.testing.assert_allclose(cfg.centers, want.centers, rtol=0, atol=1e-13)


class TestErrors:
    def test_conditions_enforced(self, octa):
        with pytest.raises(ConditionsViolated):
            solve_spherical(octa, AngleAssignment.constant(octa, PI / 4))

    def test_base_solve_failure_reported(self, octa):
        """With no iterations the tangency packing that starts the homotopy
        cannot converge; the failure is reported with its cause."""
        from circlepattern.errors import BaseSolveFailed, Stalled
        from circlepattern.options import SolveOptions

        th = AngleAssignment.constant(octa, PI / 3)
        with pytest.raises(BaseSolveFailed) as info:
            solve_spherical(octa, th, SolveOptions(max_iters=0))
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

    def test_small_triangulation_rejected(self, tetra):
        # the no-interstice class needs more than four vertices
        with pytest.raises(ConditionsViolated):
            solve_spherical(tetra, AngleAssignment.constant(tetra, 2.0))
