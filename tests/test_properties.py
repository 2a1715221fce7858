"""Property tests: cycle flags and class flags agree with the brute-force
oracles on random stacked triangulations reshaped by edge flips and on the
n=42 subdivided icosahedron, condition reports serialize exactly like the
reference engine's, and every face of a random stacked tangency packing
holds one interstice."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepattern import (AngleAssignment, build_triangulation, check_andreev, classify,
                           enumerate_simple_cycles, polyhedron_from_triangulation, shapes,
                           solve_euclidean)
from circlepattern.conditions import check_c1, check_c2, check_c3_c4
from circlepattern.triangulation import COND_EPS, canonical_edge
from circlepattern.euclidean import pick_marked_face
from circlepattern.options import SolveOptions
from circlepattern.verify import CirclePattern, count_interstices, verify_pattern

import oracles
from random_triangulations import flip_edges, loop_subdivide, stacked_faces

PI = math.pi

# derandomized, without an example database, so every run checks the same
# instances; about 0.3 s of oracle work per triangulation at n = 30
PROPERTY = settings(max_examples=20)

seeds = st.integers(0, 2 ** 32 - 1)


def random_triangulation(seed, n, flips):
    rng = np.random.default_rng(seed)
    return build_triangulation(flip_edges(rng, stacked_faces(rng, n), flips))


triangulations = st.builds(random_triangulation, seeds, st.integers(5, 30),
                           st.integers(0, 60))


@PROPERTY
@given(t=triangulations)
def test_cycle_flags_match_oracles(t):
    faces = [tuple(f) for f in t.faces]
    for c in enumerate_simple_cycles(t, 5):
        assert c.separates_vertices == oracles.brute_separates(faces, c.vertices), c
        assert c.is_prismatic == oracles.brute_prismatic(faces, c.vertices), c
        assert c.is_face_boundary == oracles.brute_is_face(faces, c.vertices), c


@PROPERTY
@given(t=triangulations, seed=seeds,
       band=st.sampled_from([(0.0, PI), (0.0, PI / 2), (PI / 4, PI / 2.5)]))
def test_classify_flags_match_oracle(t, seed, band):
    vals = np.nextafter(np.random.default_rng(seed).uniform(*band, t.edge_count), 0)
    _check_classify(t, vals)


def _check_classify(t, vals):
    got = classify(t, AngleAssignment(t, tuple(vals))).class_flags
    want = oracles.brute_condition_flags(
        [tuple(f) for f in t.faces], t.vertex_count,
        {e: vals[i] for i, e in enumerate(t.edges)},
    )
    assert got == want


ICO42 = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 1))


@pytest.mark.parametrize("vals", [
    np.zeros(ICO42.edge_count),
    np.full(ICO42.edge_count, 1.2),
    np.random.default_rng(5).uniform(PI / 3, PI / 3 + 0.45, ICO42.edge_count),
], ids=["t0", "t1.2", "band"])
def test_classify_flags_match_oracle_n42(vals):
    """About 0.6 s of brute-force circuits each."""
    _check_classify(ICO42, vals)


# values whose sums hit the bounds exactly: pairs pi/2 + pi/2 and pi/3 +
# 2pi/3 reach pi = 0 + pi, three pi/3 or pi/2 + pi/2 + 0 reach pi, four
# pi/2 reach 2pi; each is drawn as is, or off by +-COND_EPS/2 (a tie) or
# by +-2 COND_EPS (no tie)
BOUND_HITS = (0.0, PI / 4, PI / 3, PI / 2, 2 * PI / 3, 3 * PI / 4)
OFFSETS = (0.0, COND_EPS / 2, -COND_EPS / 2, 2 * COND_EPS, -2 * COND_EPS)


def bound_hitting(seed, m, positive=False):
    rng = np.random.default_rng(seed)
    vals = np.clip(rng.choice(BOUND_HITS, m) + rng.choice(OFFSETS, m), 0.0, None)
    return np.where(vals > 0, vals, PI / 2) if positive else vals


def as_json(report):
    return json.dumps(report.to_dict())


@settings(PROPERTY, max_examples=60)
@given(t=triangulations, seed=seeds)
def test_conditions_match_reference_engine(t, seed):
    theta = AngleAssignment(t, tuple(bound_hitting(seed, t.edge_count)))
    for requested in ("marden", "m5", "g5"):
        want = oracles.reference_classify(t, theta, requested)
        assert as_json(classify(t, theta, requested)) == as_json(want)
    for check, tags in ((check_c1, {"c1"}), (check_c2, {"c2"}), (check_c3_c4, {"c3", "c4"})):
        assert check(t, theta).violations == [
            v for v in want.violations if v.condition.split("-")[0] in tags]
    if t.vertex_count > 4:
        poly = polyhedron_from_triangulation(t)
        edges = sorted({canonical_edge(c[i - 1], c[i]) for c in poly for i in range(len(c))})
        dihedral = dict(zip(edges, bound_hitting(seed + 1, len(edges), positive=True).tolist()))
        assert as_json(check_andreev(poly, dihedral)) == as_json(
            oracles.reference_andreev(poly, dihedral))


@PROPERTY
@given(seed=seeds, n=st.integers(4, 30))
def test_tangency_packing_has_an_interstice_per_face(seed, n):
    t = build_triangulation(stacked_faces(np.random.default_rng(seed), n))
    th = AngleAssignment.constant(t, 0.0)
    opts = SolveOptions()
    cfg, _ = solve_euclidean(t, th, pick_marked_face(t, th), opts)
    pattern = CirclePattern.from_euclidean(t, th, cfg)
    assert count_interstices(pattern)[0] == t.face_count
    # the solver's angle test is verify's
    vrep = verify_pattern(pattern, opts.tol_angle)
    assert vrep.angle_max_err <= opts.tol_angle
    assert vrep.angle_max_err_radians is None or vrep.angle_max_err_radians <= opts.tol_angle
