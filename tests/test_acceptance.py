"""Acceptance suite: one test per shipped criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""
import math
import time

import numpy as np

from circlepattern import (
    AngleAssignment,
    audit_circuit_sums,
    build_polyhedron,
    check_polyhedron,
    classify,
    edge_lengths,
    feasibility_margin,
    limit_profile,
    pick_marked_face,
    solve_euclidean,
    solve_spherical,
    verify_pattern,
)
from circlepattern import formats, shapes
from circlepattern.cli import main as cli_main
from circlepattern.errors import VertexOutsideBall
from circlepattern.triple_records import containment_angle_check, triple_intersection_empty
from circlepattern.triples import EUCLIDEAN, SPHERICAL, place_by_lengths
from circlepattern.verify import CirclePattern

import oracles

PI = math.pi


def report(number: int, label: str, ok: bool, detail: str, elapsed: float,
           budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {label}: {detail} "
          f"[{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: runtime {elapsed:.2f}s"


def _sample_feasible(mode, count, rng):
    radii = np.empty((0, 3))
    angles = np.empty((0, 3))
    while len(radii) < count:
        if mode == EUCLIDEAN:
            r = rng.uniform(0.05, 3.0, (count, 3))
            th = rng.uniform(0.0, PI - 1e-12, (count, 3))
        else:
            r = rng.uniform(0.05, PI - 0.05, (count, 3))
            th = rng.uniform(1e-6, PI - 1e-6, (count, 3))
        keep = feasibility_margin(mode, r, th) > 1e-9
        radii = np.vstack([radii, r[keep]])
        angles = np.vstack([angles, th[keep]])
    return radii[:count], angles[:count]


def _place_batch(mode, lengths):
    l0, l1, l2 = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    if mode == EUCLIDEAN:
        z0 = np.zeros(len(lengths), dtype=complex)
        z1 = l2.astype(complex)
        x = (l2 * l2 + l1 * l1 - l0 * l0) / (2.0 * l2)
        y = np.sqrt(np.maximum(l1 * l1 - x * x, 0.0))
        return z0, z1, x + 1j * y
    cos_a = (np.cos(l0) - np.cos(l1) * np.cos(l2)) / (np.sin(l1) * np.sin(l2))
    a = np.arccos(np.clip(cos_a, -1.0, 1.0))
    n = len(lengths)
    p0 = np.tile([0.0, 0.0, 1.0], (n, 1))
    p1 = np.stack([np.sin(l2), np.zeros(n), np.cos(l2)], axis=1)
    p2 = np.stack(
        [np.sin(l1) * np.cos(a), np.sin(l1) * np.sin(a), np.cos(l1)], axis=1
    )
    return p0, p1, p2


def _pair_inversive(mode, ca, ra, cb, rb):
    if mode == EUCLIDEAN:
        d2 = np.abs(ca - cb) ** 2
        return (d2 - ra * ra - rb * rb) / (2.0 * ra * rb)
    dots = np.einsum("ij,ij->i", ca, cb)
    return (np.cos(ra) * np.cos(rb) - dots) / (np.sin(ra) * np.sin(rb))


def test_criterion_01_kernel_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_cos = worst_rad = 0.0
    for mode in (EUCLIDEAN, SPHERICAL):
        radii, angles = _sample_feasible(mode, 10_000, rng)
        lengths = edge_lengths(mode, radii, angles)
        p0, p1, p2 = _place_batch(mode, lengths)
        centers = (p0, p1, p2)
        for idx, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            inv = _pair_inversive(
                mode, centers[a], radii[:, a], centers[b], radii[:, b]
            )
            worst_cos = max(worst_cos, float(np.max(np.abs(inv - np.cos(angles[:, idx])))))
            realized = np.arccos(np.clip(inv, -1.0, 1.0))
            worst_rad = max(worst_rad, float(np.max(np.abs(realized - angles[:, idx]))))
    ok = worst_cos < 1e-10 and worst_rad < 1e-10
    report(1, "kernel round trip (10^4 per mode)", ok,
           f"max cos err {worst_cos:.2e}, max angle err {worst_rad:.2e}",
           time.time() - t0, 5.0)


def test_criterion_02_feasibility_guarantees():
    t0 = time.time()
    rng = np.random.default_rng(202)

    # spherical guarantee: angle-triangle hypotheses imply feasibility
    got = 0
    bad = 0
    while got < 10_000:
        th = rng.uniform(1e-6, PI - 1e-6, (20_000, 3))
        sums = th.sum(axis=1) > PI
        pair = np.ones(len(th), dtype=bool)
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            pair &= th[:, i] + th[:, j] < th[:, k] + PI
        th = th[sums & pair][: 10_000 - got]
        r = rng.uniform(1e-3, PI - 1e-3, th.shape)
        bad += int(np.sum(feasibility_margin(SPHERICAL, r, th) <= 0))
        got += len(th)
    sph_bad = bad

    # euclidean guarantee: either small sum or the pairwise bounds
    got = 0
    bad = 0
    while got < 10_000:
        th = rng.uniform(0.0, PI - 1e-12, (20_000, 3))
        small = th.sum(axis=1) <= PI
        pair = np.ones(len(th), dtype=bool)
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            pair &= th[:, i] + th[:, j] < th[:, k] + PI
        th = th[small | pair][: 10_000 - got]
        r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), th.shape))
        bad += int(np.sum(feasibility_margin(EUCLIDEAN, r, th) <= 0))
        got += len(th)
    euc_bad = bad

    # boundary law: angle sums exactly pi
    w = rng.dirichlet((1.0, 1.0, 1.0), 10_000) * PI
    keep = w.min(axis=1) > 1e-9
    w = w[keep]
    r = rng.uniform(1e-3, PI - 1e-3, w.shape)
    l = edge_lengths(SPHERICAL, r, w)
    perim = l.sum(axis=1)
    bound_ok = bool(np.all(perim <= 2 * PI + 1e-9))
    strict = r.sum(axis=1) < PI - 1e-6
    strict_ok = bool(np.all(perim[strict] < 2 * PI))
    tri_ok = bool(
        np.all(l[:, 0] + l[:, 1] > l[:, 2] - 1e-12)
        and np.all(l[:, 1] + l[:, 2] > l[:, 0] - 1e-12)
        and np.all(l[:, 2] + l[:, 0] > l[:, 1] - 1e-12)
    )
    ok = sph_bad == 0 and euc_bad == 0 and bound_ok and strict_ok and tri_ok
    report(2, "feasibility guarantees (10^4 each)", ok,
           f"spherical infeasible {sph_bad}, euclidean infeasible {euc_bad}, "
           f"boundary law ok {bound_ok and strict_ok and tri_ok}",
           time.time() - t0, 10.0)


def test_criterion_03_shrinking_radius_limits():
    t0 = time.time()
    scales = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    cases = [
        (EUCLIDEAN, (1.0, 1.3, 0.8), (PI / 3, 0.9, 1.1), [0]),
        (SPHERICAL, (1.0, 1.3, 0.8), (PI / 3, 0.9, 1.4), [0]),
        (EUCLIDEAN, (1.0, 1.0, 0.7), (0.9, 1.1, 0.4), [0, 1]),
        (SPHERICAL, (1.0, 1.0, 0.7), (1.2, 1.1, 0.9), [0, 1]),
        (SPHERICAL, (1.0, 1.0, 1.0), (PI / 3, PI / 3, PI / 3), [0, 1, 2]),
    ]
    ok = True
    final = 0.0
    for mode, radii, angles, shrink in cases:
        prof = limit_profile(mode, radii, angles, shrink, scales)
        ok = ok and prof.monotone_decreasing and prof.final_gap < 1e-3
        final = max(final, prof.final_gap)
    # euclidean all-three case is exactly flat at zero
    flat = limit_profile(EUCLIDEAN, (1, 1, 1), (0.7, 0.8, 0.9), [0, 1, 2],
                         [1e-1, 1e-2, 1e-3])
    ok = ok and all(g < 1e-12 for g in flat.gaps)
    report(3, "shrinking-radius limits", ok,
           f"largest final gap {final:.2e}", time.time() - t0, 1.0)


def test_criterion_04_tangency_instance():
    t0 = time.time()
    t = shapes.tetrahedron()
    th = AngleAssignment.constant(t, 0.0)
    cfg, rep = solve_euclidean(t, th, 0)
    scale = cfg.radii[cfg.marked_face[0]]
    interior = next(v for v in range(4) if v not in cfg.marked_face)
    ratio = cfg.radii[interior] / scale
    oracle = 2.0 * math.sqrt(3.0) / 3.0 - 1.0
    radius_err = abs(ratio - oracle)
    tangency = max(
        abs(abs(cfg.centers[u] - cfg.centers[v]) - (cfg.radii[u] + cfg.radii[v]))
        for (u, v) in t.edges
    ) / scale
    ok = radius_err < 1e-10 and tangency < 1e-8
    report(4, "tangency instance vs Descartes oracle", ok,
           f"radius err {radius_err:.2e}, tangency gap {tangency:.2e}",
           time.time() - t0, 1.0)


def test_criterion_05_oblique_instance():
    t0 = time.time()
    t = shapes.tetrahedron()
    th = AngleAssignment.constant(t, PI / 4)
    cfg, _ = solve_euclidean(t, th, 0)
    interior = next(v for v in range(4) if v not in cfg.marked_face)
    ratio = cfg.radii[interior] / cfg.radii[cfg.marked_face[0]]

    l_base2 = 2.0 + 2.0 * math.cos(PI / 4)

    def apex_angle(rho):
        side2 = 1.0 + rho * rho + 2.0 * rho * math.cos(PI / 4)
        return math.acos(1.0 - l_base2 / (2.0 * side2))

    lo, hi = 1e-9, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if apex_angle(mid) > 2.0 * PI / 3.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    err = abs(ratio - oracle)
    report(5, "oblique instance vs cone-angle bisection oracle", err < 1e-8,
           f"radius err {err:.2e} (oracle {oracle:.6f})", time.time() - t0, 1.0)


def test_criterion_06_obtuse_instance():
    t0 = time.time()
    t = shapes.triangular_bipyramid()
    vals = {}
    for (u, v) in t.edges:
        vals[(u, v)] = 0.2 if (0 in (u, v) or 1 in (u, v)) else 0.3
    equator = [e for e in t.edges if 0 not in e and 1 not in e]
    vals[equator[0]] = 1.8  # obtuse
    th = AngleAssignment.from_dict(t, vals)
    cls = classify(t, th, "g5")
    fid = pick_marked_face(t, th)
    cfg, rep = solve_euclidean(t, th, fid)
    pattern = CirclePattern.from_euclidean(t, th, cfg)
    vrep = verify_pattern(pattern)
    ok = (
        cls.passed
        and rep.max_abs_K < 1e-10
        and vrep.passed
        and vrep.non_adjacent_disjoint_ok
    )
    report(6, "obtuse instance (validator-certified, solved, verified)", ok,
           f"max|K| {rep.max_abs_K:.2e}, verify passed {vrep.passed}, "
           f"disjoint {vrep.non_adjacent_disjoint_ok}",
           time.time() - t0, 10.0)


def test_criterion_07_condition_checker_vs_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(707)
    mismatches = 0
    instances = 0
    admissible = []
    for name, t in shapes.small_shipped().items():
        faces = [tuple(f) for f in t.faces]
        for k in range(100):
            if k % 3 == 0:
                vals = rng.uniform(0.0, PI, t.edge_count)
            elif k % 3 == 1:
                vals = rng.uniform(0.0, PI / 2, t.edge_count)
            else:
                vals = rng.uniform(PI / 4, PI / 2.5, t.edge_count)
            vals = np.nextafter(vals, 0)
            th = AngleAssignment(t, tuple(vals))
            got = classify(t, th).class_flags
            want = oracles.brute_condition_flags(
                faces, t.vertex_count, {e: vals[i] for i, e in enumerate(t.edges)}
            )
            instances += 1
            if any(got[key] != want[key] for key in want):
                mismatches += 1
            if want["marden"]:
                admissible.append((t, th))
    ok = mismatches == 0
    report(7, "condition checker vs exhaustive brute force", ok,
           f"{instances} instances, {mismatches} flag mismatches, "
           f"{len(admissible)} admissible", time.time() - t0, 60.0)
    test_criterion_07_condition_checker_vs_brute_force.admissible = admissible


def test_criterion_08_circuit_sum_audit():
    t0 = time.time()
    admissible = getattr(
        test_criterion_07_condition_checker_vs_brute_force, "admissible", None
    )
    if admissible is None:
        # allow standalone runs of this test
        test_criterion_07_condition_checker_vs_brute_force()
        admissible = test_criterion_07_condition_checker_vs_brute_force.admissible
    alarms = 0
    audited = 0
    for t, th in admissible:
        if t.vertex_count <= 4:
            continue  # the bound is only a theorem above four vertices
        audited += 1
        rep = audit_circuit_sums(t, th, 6)
        if not rep.passed:
            alarms += 1
    report(8, "circuit-sum audit on admissible instances (length <= 6)",
           alarms == 0 and audited > 50,
           f"{audited} audited instances, {alarms} alarms",
           time.time() - t0, 60.0)


def test_criterion_09_spherical_symmetric_instances():
    t0 = time.time()

    def run(t, theta_value, adjacent_dot, pts):
        th = AngleAssignment.constant(t, theta_value)
        cfg, rep = solve_spherical(t, th)
        pattern = CirclePattern.from_spherical(t, th, cfg)
        inv = pattern.inversive_matrix()
        # symmetry-reduced oracle for the common radius
        want_cos = math.cos(theta_value)
        lo, hi = 1e-6, PI / 2 - 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (math.cos(mid) ** 2 - adjacent_dot) / math.sin(mid) ** 2 > want_cos:
                lo = mid
            else:
                hi = mid
        rho = 0.5 * (lo + hi)
        cr2, sr2 = math.cos(rho) ** 2, math.sin(rho) ** 2
        worst_inv = 0.0
        for u in range(t.vertex_count):
            for v in range(u + 1, t.vertex_count):
                dot = float(pts[u] @ pts[v])
                worst_inv = max(worst_inv, abs(inv[u, v] - (cr2 - dot) / sr2))
        worst_angle = 0.0
        for eid, (u, v) in enumerate(t.edges):
            worst_angle = max(
                worst_angle,
                abs(math.acos(np.clip(inv[u, v], -1, 1)) - theta_value),
            )
        return rho, worst_inv, worst_angle

    octa = shapes.octahedron()
    opts = np.array(
        [[0, 0, 1.0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    )
    rho_o, inv_o, ang_o = run(octa, PI / 3, 0.0, opts)
    oracle_exact = math.atan(math.sqrt(2.0))
    ico = shapes.icosahedron()
    rho_i, inv_i, ang_i = run(
        ico, 2 * PI / 5, 1.0 / math.sqrt(5.0), shapes._icosahedron_coordinates()
    )
    ok = (
        abs(rho_o - oracle_exact) < 1e-10
        and inv_o < 1e-8
        and ang_o < 1e-8
        and inv_i < 1e-8
        and ang_i < 1e-8
    )
    report(9, "spherical symmetric instances vs 1-d oracles", ok,
           f"octa: inv err {inv_o:.2e}, angle err {ang_o:.2e}; "
           f"icosa: inv err {inv_i:.2e}, angle err {ang_i:.2e}",
           time.time() - t0, 30.0)


def test_criterion_10_polyhedron():
    t0 = time.time()
    octa = shapes.octahedron()
    th = AngleAssignment.constant(octa, PI / 3)
    cfg, _ = solve_spherical(octa, th)
    pattern = CirclePattern.from_spherical(octa, th, cfg)

    # uniform pi/3 on the octahedron is the boundary case of the class:
    # every dual vertex is ideal (|q| = 1 exactly), so the strict builder
    # refuses and the inspection mode documents |q| <= 1 + 1e-9 instead of
    # a strict interior — see the compact instance below for that clause
    strict_refused = False
    try:
        build_polyhedron(pattern)
    except VertexOutsideBall:
        strict_refused = True
    q = build_polyhedron(pattern, allow_ideal=True)
    rep = check_polyhedron(q, pattern)
    cube_ok = (
        q.vertex_count == 8
        and len(q.faces) == 6
        and sorted(len(f) for f in q.faces) == [4] * 6
    )
    dihedral_err = float(np.max(np.abs(q.dihedral - PI / 3)))
    ideal_ok = q.max_vertex_norm <= 1.0 + 1e-9

    # compact companion: the dodecahedron with the classical 2*pi/5 angles
    # has all vertices strictly inside the ball
    ico = shapes.icosahedron()
    th2 = AngleAssignment.constant(ico, 2 * PI / 5)
    cfg2, _ = solve_spherical(ico, th2)
    pattern2 = CirclePattern.from_spherical(ico, th2, cfg2)
    q2 = build_polyhedron(pattern2)
    rep2 = check_polyhedron(q2, pattern2)
    compact_ok = (
        q2.max_vertex_norm < 1.0
        and float(np.max(np.abs(q2.dihedral - 2 * PI / 5))) < 1e-9
        and rep2.dihedral_inversive_gap < 1e-10
    )

    ok = (
        strict_refused
        and cube_ok
        and dihedral_err < 1e-9
        and rep.dihedral_inversive_gap < 1e-10
        and ideal_ok
        and compact_ok
    )
    report(10, "dual polyhedron (ideal cube + compact dodecahedron)", ok,
           f"cube dihedral err {dihedral_err:.2e}, |q|-1 = "
           f"{q.max_vertex_norm - 1.0:.2e} (ideal by theory), dodecahedron "
           f"margin {q2.compactness_margin():.3f}", time.time() - t0, 5.0)


def test_criterion_11_three_circle_oracles():
    t0 = time.time()
    rng = np.random.default_rng(1111)

    # containment relation on detected lens containments
    detected = 0
    violations = 0
    tries = 0
    while detected < 1000 and tries < 200_000:
        tries += 1
        d = rng.uniform(0.2, 1.8)
        centers = [0j, d + 0j]
        radii = [1.0, 1.0]
        corner_y = math.sqrt(max(1.0 - (d / 2.0) ** 2, 0.0))
        centers.append(complex(d / 2.0 + rng.normal(0, 0.2), rng.normal(0, 0.2)))
        radii.append(corner_y + rng.uniform(0.05, 0.8))
        try:
            recs = containment_angle_check(EUCLIDEAN, centers, radii)
        except Exception:
            continue
        for rec in recs:
            if rec.contained and not rec.single_point:
                detected += 1
                if rec.lhs - rec.rhs < -1e-9:
                    violations += 1
    lens_ok = detected >= 1000 and violations == 0

    # empty-triple guarantee for admissible small-sum triples
    checked = 0
    triple_bad = 0
    while checked < 1000:
        th = rng.uniform(0.0, PI, 3)
        if th.sum() >= PI - 1e-9:
            continue
        radii = rng.uniform(0.1, 2.0, 3)
        l = edge_lengths(EUCLIDEAN, radii, th)
        z0, z1, z2 = place_by_lengths(EUCLIDEAN, l)
        if not triple_intersection_empty(EUCLIDEAN, [z0, z1, z2], list(radii)):
            triple_bad += 1
        checked += 1
    ok = lens_ok and triple_bad == 0
    report(11, "three-circle oracles (10^3 each)", ok,
           f"containment: {detected} detected, {violations} violations; "
           f"empty-triple failures {triple_bad}", time.time() - t0, 10.0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    t = shapes.octahedron()
    tri = tmp_path / "octa.json"
    tri.write_text(formats.dumps(formats.triangulation_to_dict(t)))
    th = tmp_path / "theta.json"
    th.write_text(
        formats.dumps(formats.theta_to_dict(AngleAssignment.constant(t, PI / 4)))
    )
    outputs = []
    for tag in ("a", "b"):
        pat = tmp_path / f"p_{tag}.json"
        svg = tmp_path / f"r_{tag}.svg"
        rc1 = cli_main(["solve", str(tri), str(th), "--mode", "euclidean",
                        "--auto-mark", "--seed", "0", "--out", str(pat)])
        rc2 = cli_main(["render", str(pat), "--out", str(svg), "--contact-graph"])
        assert rc1 == 0 and rc2 == 0
        outputs.append((pat.read_bytes(), svg.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(12, "determinism of solve + render", ok,
           f"pattern bytes equal {outputs[0][0] == outputs[1][0]}, "
           f"svg bytes equal {outputs[0][1] == outputs[1][1]}",
           time.time() - t0, 30.0)
