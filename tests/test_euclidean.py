import math
import time

import numpy as np
import pytest

from circlepattern import (
    AngleAssignment,
    build_triangulation,
    connected_subsets,
    degeneration_functional,
    inversive_distance,
    pick_marked_face,
    shapes,
    solve_euclidean,
)
from circlepattern.degeneration import rank_collapse_suspects, sublevel_suspects
from circlepattern.errors import ConditionsViolated, EmptySubset, Stalled
from circlepattern.options import SolveOptions
from circlepattern.verify import CirclePattern

from random_triangulations import loop_subdivide, stack120_faces, stacked_faces

PI = math.pi


def _interior_vertex(cfg):
    marked = set(cfg.marked_face)
    return [v for v in range(len(cfg.radii)) if v not in marked][0]


class TestTangencyInstance:
    def test_descartes_radius(self, tetra):
        th = AngleAssignment.constant(tetra, 0.0)
        cfg, rep = solve_euclidean(tetra, th, 0)
        assert rep.max_abs_K <= 1e-10
        v = _interior_vertex(cfg)
        ratio = cfg.radii[v] / cfg.radii[cfg.marked_face[0]]
        assert abs(ratio - (2 * math.sqrt(3) / 3 - 1)) < 1e-10

    def test_all_edges_tangent(self, tetra):
        th = AngleAssignment.constant(tetra, 0.0)
        cfg, _ = solve_euclidean(tetra, th, 0)
        scale = cfg.radii[cfg.marked_face[0]]
        for (u, v) in tetra.edges:
            gap = abs(cfg.centers[u] - cfg.centers[v]) - (cfg.radii[u] + cfg.radii[v])
            assert abs(gap) / scale < 1e-8

    def test_interior_center_at_soddy_point(self, tetra):
        """The interior circle is the inner Soddy circle: by symmetry its
        center is the centroid of the three boundary centers."""
        th = AngleAssignment.constant(tetra, 0.0)
        cfg, _ = solve_euclidean(tetra, th, 0)
        v = _interior_vertex(cfg)
        centroid = np.mean([cfg.centers[u] for u in cfg.marked_face])
        assert abs(cfg.centers[v] - centroid) < 1e-10


class TestObliqueInstance:
    def test_quarter_pi_radius_matches_bisection_oracle(self, tetra):
        th = AngleAssignment.constant(tetra, PI / 4)
        cfg, rep = solve_euclidean(tetra, th, 0)
        v = _interior_vertex(cfg)
        ratio = cfg.radii[v] / cfg.radii[cfg.marked_face[0]]

        # oracle: 1-d bisection on the apex angle of the isoceles center
        # triangle (boundary radii 1), which must equal 2*pi/3
        l_base = math.sqrt(2.0 + 2.0 * math.cos(PI / 4))

        def apex_angle(rho):
            side2 = 1.0 + rho * rho + 2.0 * rho * math.cos(PI / 4)
            return math.acos(1.0 - l_base * l_base / (2.0 * side2))

        lo, hi = 1e-6, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if apex_angle(mid) > 2.0 * PI / 3.0:
                lo = mid
            else:
                hi = mid
        assert abs(ratio - lo) < 1e-8


class TestOctahedron:
    def test_quarter_pi_converges_and_matches(self, octa):
        th = AngleAssignment.constant(octa, PI / 4)
        cfg, rep = solve_euclidean(octa, th, 0)
        assert rep.max_abs_K <= 1e-10
        worst = 0.0
        for eid, (u, v) in enumerate(octa.edges):
            I = inversive_distance(
                "euclidean", cfg.centers[u], cfg.radii[u], cfg.centers[v], cfg.radii[v]
            )
            worst = max(worst, abs(math.acos(np.clip(I, -1, 1)) - PI / 4))
        assert worst < 1e-8

    def test_normalization(self, octa):
        th = AngleAssignment.constant(octa, PI / 4)
        cfg, _ = solve_euclidean(octa, th, 0)
        a, b, c = cfg.marked_face
        assert abs(cfg.centers[a]) < 1e-14
        assert abs(cfg.centers[b].imag) < 1e-14 and cfg.centers[b].real > 0
        assert cfg.centers[c].imag > 0
        assert abs(np.sum(cfg.radii) - 1.0) < 1e-12
        assert cfg.radii[a] == cfg.radii[b] == cfg.radii[c]


class TestErrors:
    def test_conditions_enforced(self, octa):
        with pytest.raises(ConditionsViolated):
            solve_euclidean(octa, AngleAssignment.constant(octa, PI / 2), 0)

    def test_marked_face_must_be_in_interstice_regime(self, octa):
        # passes the base conditions with one small-sum face, but marking a
        # face whose sum is >= pi is refused rather than silently remapped
        vals = np.full(octa.edge_count, PI / 3)
        small = octa.face_edge_ids(0)
        for e in small:
            vals[e] = PI / 6
        th = AngleAssignment(octa, tuple(vals))
        fid = pick_marked_face(octa, th)
        assert fid == 0
        other = next(
            f for f in range(octa.face_count)
            if sum(th[e] for e in octa.face_edge_ids(f)) >= PI
        )
        with pytest.raises(ConditionsViolated):
            solve_euclidean(octa, th, other)

    def test_bad_marked_face_triple(self, tetra):
        th = AngleAssignment.constant(tetra, 0.0)
        with pytest.raises(ValueError):
            solve_euclidean(tetra, th, (0, 1, 5))

    def test_layout_rejects_unsolved_radii(self, octa):
        from circlepattern import layout_euclidean
        from circlepattern.errors import LayoutInconsistent

        th = AngleAssignment.constant(octa, PI / 4)
        with pytest.raises(LayoutInconsistent):
            layout_euclidean(octa, th, np.ones(6), 0)


class TestStalled:
    """Solves that find no pattern raise Stalled within seconds, with the
    collapse suspects of the failing radii."""

    def stalled(self, t, value, opts=SolveOptions()):
        th = AngleAssignment.constant(t, value)
        fid = pick_marked_face(t, th)
        start = time.perf_counter()
        with pytest.raises(Stalled) as info:
            solve_euclidean(t, th, fid, opts)
        assert time.perf_counter() - start < 2.0
        suspects = info.value.suspects
        assert suspects and all(not d.subset & set(t.faces[fid]) for d in suspects)
        return info.value

    def test_angle_residual_above_tol_angle(self):
        """The curvatures converge, yet the laid-out pattern misses
        tol_angle (5.8e-8 against 1e-8)."""
        t = build_triangulation(stacked_faces(np.random.default_rng(0), 60))
        assert "angle residual" in str(self.stalled(t, 0.9))

    def test_rounding_floor_far_from_a_pattern(self):
        """Radius ratios near 1e-11 hold the curvature residual near 1e-6."""
        err = self.stalled(build_triangulation(stack120_faces()), 0.9)
        assert "rounding floor" in str(err) and err.residual > 1e-10

    def test_step_limit(self):
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 3))
        err = self.stalled(t, 0.0, SolveOptions(max_iters=2))
        assert "after 2 iterations" in str(err)


class TestLayout:
    def test_single_face_equilateral(self):
        # one face with unit radii and angles pi/3 places an equilateral
        # center triangle of side sqrt(2 + 2 cos(pi/3)) = sqrt(3)
        from circlepattern.triples import TripleSpec, place_triple

        spec = TripleSpec("euclidean", (1.0, 1.0, 1.0), (PI / 3,) * 3)
        z = place_triple(spec)
        want = math.sqrt(3.0)
        for a in range(3):
            for b in range(a + 1, 3):
                assert abs(abs(z[a] - z[b]) - want) < 1e-12

    def test_position_agreement(self, octa):
        th = AngleAssignment.constant(octa, PI / 4)
        cfg, rep = solve_euclidean(octa, th, 0, SolveOptions(tol_K=1e-12))
        # re-derive every vertex from every incident face: max disagreement
        # is bounded via the layout's internal consistency check, which did
        # not raise; assert the round-trip residual instead
        assert rep.angle_residual < 1e-9


class TestSolveOptions:
    @pytest.mark.parametrize("bad", [
        {"max_iters": -1}, {"diag_max": 0}, {"min_step": 0.0}, {"min_step": math.nan},
        {"tol_K": -1e-12}, {"tol_angle": math.inf}, {"tol_layout": math.nan}])
    def test_out_of_range_is_refused(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            SolveOptions(**bad)
        with pytest.raises(ValueError, match=name):
            SolveOptions().with_(**bad)

    def test_bounds_themselves_are_valid(self):
        opts = SolveOptions(max_iters=0, diag_max=1, tol_K=0.0, tol_angle=0.0, tol_layout=0.0)
        assert opts.max_iters == 0 and opts.diag_max == 1


class TestDegenerationFunctional:
    def test_single_vertex_formula(self, octa):
        th = AngleAssignment.constant(octa, PI / 3)
        d = degeneration_functional(octa, th, {2})
        m = octa.degree(2)
        want = 2 * PI - m * PI + m * (PI / 3)
        assert d.value == pytest.approx(want, abs=1e-12)
        assert d.value == pytest.approx(-2 * PI / 3, abs=1e-12)

    def test_additive_over_components(self, octa):
        th = AngleAssignment.constant(octa, 0.7)
        d_pair = degeneration_functional(octa, th, {0, 5})
        d0 = degeneration_functional(octa, th, {0})
        d5 = degeneration_functional(octa, th, {5})
        assert d_pair.value == pytest.approx(d0.value + d5.value, abs=1e-12)

    @pytest.mark.parametrize("size", [0, -2])
    def test_suspect_size_below_one_is_refused(self, octa, size):
        with pytest.raises(ValueError, match="max_size"):
            rank_collapse_suspects(octa, AngleAssignment.constant(octa, 0.7), size)

    def test_admissible_data_keeps_suspects_negative(self, octa):
        th = AngleAssignment.constant(octa, PI / 4)
        marked = octa.faces[0]
        for subset in connected_subsets(octa, 3, avoid=marked):
            assert degeneration_functional(octa, th, subset).value < 0

    def test_sublevel_suspects(self):
        """The merge-tree candidates of random radii: connected sublevel
        sets that avoid the marked face, at most n - 1 of them, with the
        functional of their own subset, ranked most suspect first."""
        t = build_triangulation(stack120_faces())
        th = AngleAssignment.constant(t, 0.9)
        radii = np.random.default_rng(3).uniform(0.1, 1.0, t.vertex_count)
        marked = set(t.faces[0])
        table = sublevel_suspects(t, th, radii, 6, avoid=marked, top=t.vertex_count)
        assert 10 < len(table) <= t.vertex_count - 1
        for d in table:
            assert d == degeneration_functional(t, th, d.subset)
            assert 1 <= len(d.subset) <= 6 and not d.subset & marked
            level = max(radii[v] for v in d.subset)
            reached, todo = set(), [min(d.subset)]
            while todo:  # the subset is the component of its sublevel set
                v = todo.pop()
                reached.add(v)
                todo += [w for w in t.neighbors(v) if w not in reached | marked
                         and radii[w] <= level]
            assert reached == d.subset
        keys = [(-d.value, len(d.subset), sorted(d.subset)) for d in table]
        assert keys == sorted(keys)

    def test_empty_subset(self, octa):
        with pytest.raises(EmptySubset):
            degeneration_functional(octa, AngleAssignment.constant(octa, 0.1), set())


class TestObtuseInstance:
    def test_bipyramid_with_obtuse_edge(self, bipyr):
        vals = {}
        for (u, v) in bipyr.edges:
            vals[(u, v)] = 0.2 if (0 in (u, v) or 1 in (u, v)) else 0.3
        eq = [e for e in bipyr.edges if 0 not in e and 1 not in e]
        vals[eq[0]] = 1.8
        th = AngleAssignment.from_dict(bipyr, vals)
        fid = pick_marked_face(bipyr, th)
        cfg, rep = solve_euclidean(bipyr, th, fid)
        assert rep.max_abs_K < 1e-10
        p = CirclePattern.from_euclidean(bipyr, th, cfg)
        from circlepattern import verify_pattern

        vr = verify_pattern(p)
        assert vr.passed
        assert vr.non_adjacent_disjoint_ok
        # collapse diagnostics stay strictly negative on admissible data
        marked = bipyr.faces[fid]
        for subset in connected_subsets(bipyr, 3, avoid=marked):
            assert degeneration_functional(bipyr, th, subset).value < 0
