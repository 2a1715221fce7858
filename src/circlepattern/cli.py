"""Command-line pipeline: validate -> solve -> lift -> verify -> polyhedron,
plus rendering, collapse diagnostics, and a three-circle probe.

Exit codes: 0 success, 1 usage, 2 validation, 3 solve, 4 verify,
5 polyhedron.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Only what every command needs is imported here; each command imports its
# own layers, so a process loads (and compiles) no solver it does not run.
from . import formats
from .errors import (
    CirclePatternError,
    ConditionsViolated,
    TriangulationError,
    UsageError,
)

if TYPE_CHECKING:
    from .options import SolveOptions

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SOLVE = 3
EXIT_VERIFY = 4
EXIT_POLYHEDRON = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))


def _solver_options(args) -> SolveOptions:
    from .options import SolveOptions

    given = {name: getattr(args, name, None) for name in (
        "tol_K", "tol_angle", "tol_layout", "max_iters", "diag_max", "min_step", "auto_mark")}
    try:
        return SolveOptions(**{name: val for name, val in given.items() if val is not None})
    except ValueError as exc:
        raise UsageError(str(exc))


def _add_solver_flags(sub) -> None:
    sub.add_argument("--tol-k", dest="tol_K", type=float)
    sub.add_argument("--tol-angle", dest="tol_angle", type=float)
    sub.add_argument("--tol-layout", dest="tol_layout", type=float)
    sub.add_argument("--max-iters", dest="max_iters", type=int)
    sub.add_argument("--seed", type=int, help="ignored; the solvers are deterministic")
    sub.add_argument("--diag-max", dest="diag_max", type=int)
    sub.add_argument("--min-step", dest="min_step", type=float)


def make_parser() -> _Parser:
    parser = _Parser(prog="circlepattern")
    subs = parser.add_subparsers(dest="command", required=True)

    v = subs.add_parser("validate", help="check class membership of angle data")
    v.add_argument("triangulation")
    v.add_argument("theta")
    v.add_argument("--class", dest="klass", default="marden",
                   choices=["marden", "m5", "g5", "andreev"])
    v.add_argument("--json-out")

    s = subs.add_parser("solve", help="produce a circle pattern")
    s.add_argument("triangulation")
    s.add_argument("theta")
    s.add_argument("--mode", choices=["euclidean", "spherical", "auto"],
                   default="auto")
    s.add_argument("--marked-face", help="comma-separated vertex triple or face id")
    s.add_argument("--auto-mark", dest="auto_mark", action="store_true", default=None)
    s.add_argument("--out")
    _add_solver_flags(s)

    l = subs.add_parser("lift", help="stereographic lift of a planar pattern")
    l.add_argument("pattern")
    l.add_argument("--out")

    w = subs.add_parser("verify", help="verify a claimed pattern")
    w.add_argument("--pattern", required=True)
    w.add_argument("--tol", type=float, default=1e-8)
    w.add_argument("--resolution", type=int, default=4096,
                   help="accepted and unused: no check samples (recorded in the report)")
    w.add_argument("--json-out")

    q = subs.add_parser("polyhedron", help="build the dual hyperbolic polyhedron")
    q.add_argument("--pattern", required=True)
    q.add_argument("--out", help="OBJ mesh path")
    q.add_argument("--json-out")
    q.add_argument("--allow-ideal", action="store_true")

    r = subs.add_parser("render", help="SVG figure of a planar pattern")
    r.add_argument("pattern")
    r.add_argument("--out", required=True)
    r.add_argument("--stroke-width", type=float)
    r.add_argument("--contact-graph", action="store_true")
    r.add_argument("--star-overlay", action="store_true")
    r.add_argument("--size", type=int, default=640)

    d = subs.add_parser("diagnose", help="degeneration functional table")
    d.add_argument("triangulation")
    d.add_argument("theta")
    d.add_argument("--diag-max", type=int, default=6)
    d.add_argument("--marked-face")
    d.add_argument("--json-out")

    p = subs.add_parser("probe-triple", help="dump three-circle geometry")
    p.add_argument("--mode", choices=["euclidean", "spherical"], required=True)
    p.add_argument("--radii", required=True, help="comma-separated r_i,r_j,r_k")
    p.add_argument("--angles", required=True, help="comma-separated theta_i,theta_j,theta_k")
    return parser


def _parse_marked(t, text):
    """Face id named by ``--marked-face`` (a face id or a vertex triple)."""
    if text is None:
        return None
    from .euclidean import resolve_marked_face

    try:
        marked = tuple(int(x) for x in text.split(",")) if "," in text else int(text)
        return resolve_marked_face(t, marked)[0]
    except ValueError as exc:
        raise UsageError(f"--marked-face {text}: {exc}")


def _cmd_validate(args) -> int:
    from .conditions import check_andreev, classify

    if args.klass == "andreev":
        poly = formats.load_polyhedron(args.triangulation)
        theta = formats.load_theta_map(args.theta)
        report = check_andreev(poly, theta)
    else:
        t = formats.load_triangulation(args.triangulation)
        theta = formats.load_theta(t, args.theta)
        report = classify(t, theta, args.klass)
    _emit(formats.dumps(report.to_dict()), args.json_out)
    return 0 if report.passed else EXIT_VALIDATION


def _cmd_solve(args) -> int:
    from .conditions import classify
    from .configurations import CirclePattern

    t = formats.load_triangulation(args.triangulation)
    theta = formats.load_theta(t, args.theta)
    opts = _solver_options(args)
    mode = args.mode
    if mode == "auto":
        flags = classify(t, theta).class_flags
        if flags["w_g"]:
            mode = "euclidean"
        elif flags["w_m"]:
            mode = "spherical"
        else:
            raise ConditionsViolated("angle data is in neither solvable class")
    marked = _parse_marked(t, args.marked_face)
    if mode == "euclidean":
        from .euclidean import pick_marked_face, solve_euclidean

        if marked is None:
            if not opts.auto_mark:
                raise UsageError("euclidean solve needs --marked-face or --auto-mark")
            marked = pick_marked_face(t, theta)
        cfg, rep = solve_euclidean(t, theta, marked, opts)
        pattern = CirclePattern.from_euclidean(t, theta, cfg)
    else:
        from .spherical import solve_spherical

        cfg, rep = solve_spherical(t, theta, opts, marked_face=marked or 0)
        pattern = CirclePattern.from_spherical(t, theta, cfg)
    residuals = {"max_abs_K": rep.max_abs_K, "angle": rep.angle_residual}
    _emit(formats.dumps(formats.pattern_to_dict(pattern, residuals)), args.out)
    return 0


def _cmd_lift(args) -> int:
    from .configurations import EUCLIDEAN, CirclePattern, EuclideanConfiguration
    from .spherical import lift_to_sphere

    p = formats.load_pattern(args.pattern)
    if p.mode != EUCLIDEAN:
        raise UsageError("lift expects a planar pattern")

    cfg = EuclideanConfiguration(p.centers, p.radii, p.marked_face)
    sph = lift_to_sphere(cfg)
    pattern = CirclePattern.from_spherical(p.triangulation, p.theta, sph)
    _emit(formats.dumps(formats.pattern_to_dict(pattern)), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import verify_pattern

    if not 0.0 <= args.tol < float("inf"):
        raise UsageError(f"--tol {args.tol} is out of range")
    p = formats.load_pattern(args.pattern)
    report = verify_pattern(p, tol=args.tol, boundary_samples=args.resolution)
    _emit(formats.dumps(report.to_dict()), args.json_out)
    return 0 if report.passed else EXIT_VERIFY


def _cmd_polyhedron(args) -> int:
    from .polyhedron import build_polyhedron, check_polyhedron, export_obj, polyhedron_to_dict

    p = formats.load_pattern(args.pattern)
    q = build_polyhedron(p, allow_ideal=args.allow_ideal)
    rep = check_polyhedron(q, p)
    if args.out:
        Path(args.out).write_bytes(export_obj(q))
    payload = polyhedron_to_dict(q)
    payload["check"] = rep.to_dict()
    _emit(formats.dumps(payload), args.json_out)
    return 0


def _cmd_render(args) -> int:
    from . import render

    p = formats.load_pattern(args.pattern)
    data = render.render_svg(
        p,
        stroke_width=args.stroke_width,
        show_contact_graph=args.contact_graph,
        show_star_overlay=args.star_overlay,
        size=args.size,
    )
    Path(args.out).write_bytes(data)
    return 0


def _cmd_diagnose(args) -> int:
    from .degeneration import rank_collapse_suspects

    t = formats.load_triangulation(args.triangulation)
    theta = formats.load_theta(t, args.theta)
    fid = _parse_marked(t, args.marked_face)
    avoid = () if fid is None else t.faces[fid]
    try:
        table = rank_collapse_suspects(t, theta, args.diag_max, avoid=avoid, top=50)
    except ValueError as exc:
        raise UsageError(f"--diag-max: {exc}")
    _emit(formats.dumps({"suspects": [d.to_dict() for d in table]}), args.json_out)
    return 0


def _cmd_probe(args) -> int:
    from . import triples

    try:
        radii = tuple(float(x) for x in args.radii.split(","))
        angles = tuple(float(x) for x in args.angles.split(","))
        spec = triples.TripleSpec(args.mode, radii, angles)
    except ValueError as exc:
        raise UsageError(str(exc))
    geo = triples.triple_geometry(spec)
    _emit(
        formats.dumps(
            {
                "mode": args.mode,
                "radii": list(radii),
                "angles": list(angles),
                "edge_lengths": list(geo.edge_lengths),
                "inner_angles": list(geo.inner_angles) if geo.inner_angles else None,
                "feasibility_margin": geo.feasibility_margin,
                "lambdas": list(geo.lambdas),
                "angle_triangle_sides": (
                    list(geo.angle_triangle_sides) if geo.angle_triangle_sides else None
                ),
            }
        ),
        None,
    )
    return 0


_COMMANDS = {
    "validate": (_cmd_validate, EXIT_VALIDATION),
    "solve": (_cmd_solve, EXIT_SOLVE),
    "lift": (_cmd_lift, EXIT_SOLVE),
    "verify": (_cmd_verify, EXIT_VERIFY),
    "polyhedron": (_cmd_polyhedron, EXIT_POLYHEDRON),
    "render": (_cmd_render, EXIT_SOLVE),
    "diagnose": (_cmd_diagnose, EXIT_VALIDATION),
    "probe-triple": (_cmd_probe, EXIT_USAGE),
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler, failure_code = _COMMANDS[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConditionsViolated as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(formats.dumps(exc.report.to_dict()), file=sys.stderr)
        return EXIT_VALIDATION
    except TriangulationError as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CirclePatternError as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return failure_code


if __name__ == "__main__":
    sys.exit(main())
