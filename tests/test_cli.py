import copy
import gc
import json
import math
import subprocess
import sys

import pytest

from circlepattern import AngleAssignment, build_triangulation, classify, formats
from circlepattern import degeneration, pick_marked_face, shapes, solve_euclidean
from circlepattern.cli import main
from circlepattern.degeneration import connected_subsets
from circlepattern.errors import Stalled
from circlepattern.options import SolveOptions
from random_triangulations import loop_subdivide

PI = math.pi


@pytest.fixture()
def files(tmp_path):
    t = shapes.tetrahedron()
    o = shapes.octahedron()
    paths = {}
    paths["tetra"] = tmp_path / "tetra.json"
    paths["tetra"].write_text(formats.dumps(formats.triangulation_to_dict(t)))
    paths["theta0"] = tmp_path / "theta0.json"
    paths["theta0"].write_text(
        formats.dumps(formats.theta_to_dict(AngleAssignment.constant(t, 0.0)))
    )
    paths["octa"] = tmp_path / "octa.json"
    paths["octa"].write_text(formats.dumps(formats.triangulation_to_dict(o)))
    paths["theta3"] = tmp_path / "theta3.json"
    paths["theta3"].write_text(
        formats.dumps(formats.theta_to_dict(AngleAssignment.constant(o, PI / 3)))
    )
    paths["thetabad"] = tmp_path / "thetabad.json"
    paths["thetabad"].write_text(
        formats.dumps(formats.theta_to_dict(AngleAssignment.constant(o, PI / 2)))
    )
    cube = shapes.cube_faces()
    es = sorted(
        {
            (min(c[i], c[(i + 1) % len(c)]), max(c[i], c[(i + 1) % len(c)]))
            for c in cube
            for i in range(len(c))
        }
    )
    paths["cube"] = tmp_path / "cube.json"
    paths["cube"].write_text(
        formats.dumps({"vertices": 8, "faces": [list(c) for c in cube]})
    )
    paths["cube_theta"] = tmp_path / "cube_theta.json"
    paths["cube_theta"].write_text(
        formats.dumps({"theta": [{"edge": list(e), "value": 2 * PI / 3} for e in es]})
    )
    paths["dir"] = tmp_path
    return paths


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["solve"]) == 1
        assert main(["nonsense"]) == 1

    def test_validation_failure_is_two(self, files):
        rc = main(["validate", str(files["octa"]), str(files["thetabad"]),
                   "--class", "marden"])
        assert rc == 2

    def test_solve_with_bad_class_is_two(self, files):
        out = files["dir"] / "p.json"
        rc = main(["solve", str(files["octa"]), str(files["thetabad"]),
                   "--mode", "euclidean", "--auto-mark", "--out", str(out)])
        assert rc == 2

    def test_missing_file_is_one(self, files):
        rc = main(["validate", str(files["dir"] / "nope.json"),
                   str(files["theta0"])])
        assert rc == 1


class TestBadInput:
    """Malformed input exits 1 with a usage error, never a traceback."""

    @staticmethod
    def _usage_error(argv, capsys):
        rc = main([str(a) for a in argv])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("marked", ["0,1,9", "99", "x"])
    def test_bad_marked_face(self, files, capsys, marked):
        self._usage_error(["solve", files["octa"], files["theta3"], "--mode", "euclidean",
                           "--marked-face", marked, "--out", files["dir"] / "p.json"], capsys)
        self._usage_error(["diagnose", files["octa"], files["theta3"],
                           "--marked-face", marked], capsys)

    @pytest.mark.parametrize("radii", ["1,1", "1,1,x", "0,1,1", "inf,1,1"])
    def test_bad_probe_triple(self, capsys, radii):
        self._usage_error(["probe-triple", "--mode", "euclidean", "--radii", radii,
                           "--angles", "0,0,0"], capsys)

    @pytest.mark.parametrize("key", ["edge", "value"])
    def test_theta_item_without_key(self, files, capsys, key):
        data = json.loads(files["theta3"].read_text())
        del data["theta"][3][key]
        bad = files["dir"] / "bad_theta.json"
        bad.write_text(json.dumps(data))
        self._usage_error(["validate", files["octa"], bad], capsys)

    @pytest.mark.parametrize("key", ["center", "radius"])
    def test_circle_without_key(self, files, capsys, key):
        pattern = files["dir"] / "pattern.json"
        assert main(["solve", str(files["tetra"]), str(files["theta0"]), "--mode",
                     "euclidean", "--auto-mark", "--out", str(pattern)]) == 0
        data = json.loads(pattern.read_text())
        del data["circles"][2][key]
        pattern.write_text(json.dumps(data))
        self._usage_error(["verify", "--pattern", pattern], capsys)

    @pytest.mark.parametrize("flag", [
        ["--max-iters", "-1"], ["--tol-angle", "-1"], ["--tol-k", "nan"],
        ["--tol-layout", "inf"], ["--diag-max", "0"], ["--min-step", "0"]])
    def test_solver_flag_out_of_range(self, files, capsys, flag):
        self._usage_error(["solve", files["tetra"], files["theta0"], "--auto-mark", *flag,
                           "--out", files["dir"] / "p.json"], capsys)
        assert not (files["dir"] / "p.json").exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_verify_tol_out_of_range(self, files, capsys, tol):
        pattern = files["dir"] / "pattern.json"
        assert main(["solve", str(files["tetra"]), str(files["theta0"]), "--auto-mark",
                     "--out", str(pattern)]) == 0
        self._usage_error(["verify", "--pattern", pattern, "--tol", tol], capsys)

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_diagnose_size_out_of_range(self, files, capsys, size):
        self._usage_error(["diagnose", files["octa"], files["theta3"], "--diag-max", size],
                          capsys)

    @pytest.fixture(scope="class")
    def octa_json(self, tmp_path_factory):
        """Files of the octahedron, its angles 0 and its solved planar
        pattern, and the JSON values of these and of a spherical one."""
        o, root = shapes.octahedron(), tmp_path_factory.mktemp("octa")
        data = {"octa": formats.triangulation_to_dict(o)}
        for name, angle in (("theta", 0.0), ("theta-sphere", 1.2)):
            data[name] = formats.theta_to_dict(AngleAssignment.constant(o, angle))
        for name in data:
            (root / f"{name}.json").write_text(formats.dumps(data[name]))
        for name, theta in (("plane", "theta"), ("sphere", "theta-sphere")):
            argv = ["solve", root / "octa.json", root / f"{theta}.json", "--auto-mark",
                    "--out", root / f"{name}.json"]
            assert main([str(a) for a in argv]) == 0
            data[name] = json.loads((root / f"{name}.json").read_text())
        return root, data

    @pytest.mark.parametrize("command, base, path, value, code", [
        ("validate", "octa", ("faces", 0, 0), "a", 1),
        ("validate", "octa", ("vertices",), "x", 1),
        ("validate", "octa", ("faces",), 5, 1),
        ("validate", "theta", ("theta", 0, "edge"), [0], 1),
        ("verify", "sphere", ("circles", 0, "center"), [0.0, 1.0], 1),
        ("verify", "plane", ("circles", 0, "radius"), "x", 1),
        ("verify", "plane", ("marked_face",), [0, 1, 5], 4),
        ("render", "plane", ("marked_face",), [0, 1, 5], 3),
        ("polyhedron", "sphere", ("marked_face",), [0, 1, 5], 5),
        ("verify", "plane", ("circles", 0, "center"), [math.nan, 0.0], 4),
        ("render", "plane", ("circles", 0, "center"), [0.0, math.inf], 3),
        ("polyhedron", "sphere", ("circles", 0, "center"), [math.nan, 0.0, 0.0], 5),
        ("lift", "plane", ("circles", 0, "center"), [-math.inf, 0.0], 3),
        ("validate", "octa", ("faces", 0, 0), True, 1),
        ("validate", "theta", ("theta", 0, "edge", 1), 1.0, 1),
        ("validate", "theta", ("theta", 1, "edge"), [1, 0], 1),
        ("verify", "plane", ("marked_face",), 0, 1),
        ("render", "plane", ("marked_face",), False, 1),
        ("polyhedron", "sphere", ("marked_face",), "", 1),
        ("lift", "plane", ("marked_face",), [], 1),
        ("verify", "sphere", ("marked_face",), {}, 1),
    ], ids=["face-entry", "vertices", "faces", "edge", "center", "radius",
            "marked-verify", "marked-render", "marked-polyhedron",
            "nan-center-verify", "inf-center-render", "nan-center-polyhedron",
            "inf-center-lift", "bool-face-entry", "float-edge-end", "edge-twice",
            "zero-marked", "false-marked", "empty-string-marked", "empty-list-marked",
            "empty-object-marked"])
    def test_malformed_json(self, octa_json, capsys, command, base, path, value, code):
        """A value of the wrong type or shape ends in one line on stderr and
        exit 1 from the loaders, as does an edge given twice, once as
        [1, 0] after [0, 1], and a marked face that is neither null nor
        three integers, falsy ones included; a marked face that is not a
        face ends in the command's own failure code, as does a centre that
        is not a finite number (JSON as Python writes it has NaN and
        Infinity)."""
        root, data = octa_json
        assert not shapes.octahedron().is_face([0, 1, 5])
        data = copy.deepcopy(data[base])
        edit = data
        for key in path[:-1]:
            edit = edit[key]
        edit[path[-1]] = value
        bad = root / f"bad-{command}-{base}.json"
        bad.write_text(json.dumps(data))
        argv = {"validate": ["validate", bad if base == "octa" else root / "octa.json",
                             bad if base == "theta" else root / "theta.json"],
                "verify": ["verify", "--pattern", bad],
                "render": ["render", bad, "--out", root / "bad.svg"],
                "polyhedron": ["polyhedron", "--pattern", bad],
                "lift": ["lift", bad]}[command]
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("flag", [("--size", "0"), ("--size", "-5"),
                                      ("--stroke-width", "-1"), ("--stroke-width", "inf"),
                                      ("--stroke-width", "nan")])
    def test_bad_render_size(self, octa_json, capsys, flag):
        """A size below 1 or a stroke width that is negative or not finite is
        a usage error naming only that value, and no SVG is written."""
        root, _ = octa_json
        out = root / "sized.svg"
        assert main([str(a) for a in ["render", root / "plane.json", "--out", out, *flag]]) == 1
        err, name = capsys.readouterr().err, flag[0][2:].replace("-", " ")
        assert err.startswith(f"usage error: {name} "), err
        assert ("size" in err) == (name == "size"), err
        assert not out.exists()

    @pytest.mark.parametrize("faces", [[[0, 1, 2], [0, 1, 2]],
                                       [[0, 1, 2], [0, 2, 3], [0, 3, 1]]],
                             ids=["repeated-face", "open-surface"])
    def test_rejected_triangulation_exits_2(self, files, capsys, faces):
        bad = files["dir"] / "bad_tri.json"
        bad.write_text(json.dumps({"vertices": 4, "faces": faces}))
        for argv in (["solve", bad, files["theta3"], "--mode", "auto", "--auto-mark"],
                     ["validate", bad, files["theta3"]],
                     ["diagnose", bad, files["theta3"]]):
            assert main([str(a) for a in argv]) == 2
            assert "Traceback" not in capsys.readouterr().err


class TestParserPerCommand:
    @staticmethod
    def _argvs(parser, name):
        """Help, a missing argument, an unknown flag and surplus positionals,
        then each of the command's flags without its value and with a value
        no flag takes."""
        sub = next(a for a in parser._actions if a.dest == "command").choices[name]
        argvs = [[name, "-h"], [name], [name, "--no-such-flag"], [name, "a", "b", "c", "d"]]
        for action in sub._actions:
            for flag in action.option_strings:
                if flag not in ("-h", "--help"):
                    argvs += [[name, flag], [name, flag, "?"]]
        return argvs

    def test_each_command_parses_as_the_full_parser(self, monkeypatch, capsys, tmp_path):
        """``main`` builds only the subparser of the command it is given.
        For every command its help text, usage errors and exit codes are
        byte-identical to those of the full parser, as are those of no
        command and of an unknown one."""
        from circlepattern import cli

        monkeypatch.chdir(tmp_path)
        full, built = cli.make_parser, []

        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # -h
                code = f"exit {exc.code}"
            out, err = capsys.readouterr()
            return code, out, err

        def per_command(command=None):
            built.append(command)
            return full(command)

        commands = list(cli._COMMANDS)
        argvs = [[], ["-h"], ["no-such-command"]]
        argvs += [argv for name in commands for argv in self._argvs(full(), name)]
        for argv in argvs:
            monkeypatch.setattr(cli, "make_parser", lambda command=None: full())
            want = outcome(argv)
            monkeypatch.setattr(cli, "make_parser", per_command)
            assert outcome(argv) == want, argv
            assert built[-1] == (argv[0] if argv and argv[0] in commands else None), argv
        assert len(commands) == 8 and len(argvs) > 8 * 4

    def test_make_parser_builds_every_command_or_one(self):
        from circlepattern.cli import _COMMANDS, make_parser

        def choices(parser):
            return list(next(a for a in parser._actions if a.dest == "command").choices)

        assert choices(make_parser()) == list(_COMMANDS)
        for name in _COMMANDS:
            assert choices(make_parser(name)) == [name]


class TestPipeline:
    def test_solve_then_verify_tetra(self, files, capsys):
        pattern = files["dir"] / "pattern.json"
        rc = main(["solve", str(files["tetra"]), str(files["theta0"]),
                   "--mode", "euclidean", "--auto-mark", "--out", str(pattern)])
        assert rc == 0
        data = json.loads(pattern.read_text())
        assert data["mode"] == "euclidean"
        assert len(data["circles"]) == 4
        assert data["residuals"]["max_abs_K"] < 1e-8

        rc = main(["verify", "--pattern", str(pattern),
                   "--json-out", str(files["dir"] / "rep.json")])
        assert rc == 0
        rep = json.loads((files["dir"] / "rep.json").read_text())
        assert rep["passed"] and rep["interstice_count"] == 4

    def test_solve_lift_then_verify_icosahedron(self, files):
        """The lift of a planar pattern is the same pattern on the sphere:
        its marked face, wider than a hemisphere, is the region the other
        faces leave, and the lifted pattern verifies."""
        d, t = files["dir"], shapes.icosahedron()
        (d / "ico.json").write_text(formats.dumps(formats.triangulation_to_dict(t)))
        (d / "ico_theta.json").write_text(
            formats.dumps(formats.theta_to_dict(AngleAssignment.constant(t, 0.5))))
        assert main(["solve", str(d / "ico.json"), str(d / "ico_theta.json"), "--mode",
                     "euclidean", "--auto-mark", "--out", str(d / "p.json")]) == 0
        assert main(["lift", str(d / "p.json"), "--out", str(d / "l.json")]) == 0
        assert main(["verify", "--pattern", str(d / "l.json"),
                     "--json-out", str(d / "rep.json")]) == 0
        rep = json.loads((d / "rep.json").read_text())
        assert rep["flower_ok"] and rep["passed"] and rep["interstice_count"] == 20

    def test_verify_does_not_depend_on_resolution(self, files):
        """Growing disk 1 of the tangency octahedron by 10% leaves a sliver
        of it, about 2e-5 wide, outside its star: the flower test finds it
        at every resolution, with the same report."""
        theta = files["dir"] / "octa_theta0.json"
        theta.write_text(formats.dumps(formats.theta_to_dict(
            AngleAssignment.constant(shapes.octahedron(), 0.0))))
        pattern = files["dir"] / "octa_pattern.json"
        assert main(["solve", str(files["octa"]), str(theta), "--mode", "euclidean",
                     "--auto-mark", "--out", str(pattern)]) == 0
        data = json.loads(pattern.read_text())
        data["circles"][1]["radius"] *= 1.1
        pattern.write_text(json.dumps(data))
        reports = []
        for resolution in ("4096", "262144"):
            out = files["dir"] / f"rep{resolution}.json"
            assert main(["verify", "--pattern", str(pattern), "--resolution", resolution,
                         "--json-out", str(out)]) == 4
            reports.append(json.loads(out.read_text()))
        for rep in reports:
            assert rep["flower_ok"] is False and list(rep["flower_failures"]) == ["1"]
            del rep["resolution"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag", [["--tol-k", "1e-4"], ["--max-iters", "1"]])
    def test_planar_flags_leave_the_spherical_start_alone(self, files, flag):
        """The tangency packing that starts a spherical solve runs at the
        solver's defaults: a coarse or short planar solve flag neither fails
        it nor changes the pattern, which verifies."""
        d = files["dir"]
        argv = ["solve", str(files["octa"]), str(files["theta3"]), "--mode", "spherical"]
        assert main([*argv, "--out", str(d / "default.json")]) == 0
        assert main([*argv, *flag, "--out", str(d / "flagged.json")]) == 0
        assert (d / "flagged.json").read_bytes() == (d / "default.json").read_bytes()
        assert main(["verify", "--pattern", str(d / "flagged.json")]) == 0

    def test_lift_and_polyhedron(self, files):
        pattern = files["dir"] / "sp.json"
        rc = main(["solve", str(files["octa"]), str(files["theta3"]),
                   "--mode", "spherical", "--out", str(pattern)])
        assert rc == 0
        obj = files["dir"] / "q.obj"
        rc = main(["polyhedron", "--pattern", str(pattern), "--out", str(obj),
                   "--allow-ideal", "--json-out", str(files["dir"] / "q.json")])
        assert rc == 0
        q = json.loads((files["dir"] / "q.json").read_text())
        assert len(q["vertices"]) == 8 and len(q["faces"]) == 6
        assert q["check"]["passed"]

    def test_polyhedron_failing_its_check_exits_5(self, files):
        """A pattern whose angles are off by one radius scaled by 1 + 1e-6
        builds a polyhedron whose dihedrals miss: the command writes the
        OBJ and the JSON with its check, then exits 5."""
        theta = files["dir"] / "theta12.json"
        theta.write_text(formats.dumps(formats.theta_to_dict(
            AngleAssignment.constant(shapes.octahedron(), 1.2))))
        pattern, bad = files["dir"] / "sp.json", files["dir"] / "bad.json"
        assert main(["solve", str(files["octa"]), str(theta), "--mode", "spherical",
                     "--out", str(pattern)]) == 0
        data = json.loads(pattern.read_text())
        data["circles"][0]["radius"] *= 1.0 + 1e-6
        bad.write_text(json.dumps(data))
        for source, code in ((pattern, 0), (bad, 5)):
            obj, out = files["dir"] / f"{code}.obj", files["dir"] / f"{code}.json"
            assert main(["polyhedron", "--pattern", str(source), "--out", str(obj),
                         "--json-out", str(out)]) == code
            assert obj.read_text().count("\nf ") == 6  # the cube, a face per circle
            assert json.loads(out.read_text())["check"]["passed"] is (code == 0)

    def test_polyhedron_ideal_refused_without_flag(self, files):
        pattern = files["dir"] / "sp2.json"
        main(["solve", str(files["octa"]), str(files["theta3"]),
              "--mode", "spherical", "--out", str(pattern)])
        rc = main(["polyhedron", "--pattern", str(pattern),
                   "--json-out", str(files["dir"] / "q2.json")])
        assert rc == 5

    def test_validate_andreev_exit_two_with_witness(self, files):
        out = files["dir"] / "andreev.json"
        rc = main(["validate", str(files["cube"]), str(files["cube_theta"]),
                   "--class", "andreev", "--json-out", str(out)])
        assert rc == 2
        rep = json.loads(out.read_text())
        assert not rep["class_flags"]["s4"]
        assert any(v["condition"] == "s4" for v in rep["violations"])

    def test_probe_triple(self, capsys):
        rc = main(["probe-triple", "--mode", "spherical",
                   "--radii", "0.785398,0.785398,0.785398",
                   "--angles", "1.570796,1.570796,1.570796"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["feasibility_margin"] == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("mode, angles, lengths, margin", [
        ("euclidean", "3.0,3.0,0.0", 0.14147440333540612, -3.9199399728035633),
        ("spherical", "3.0,3.0,5e-324", 0.11911701530444765, -1.9654745450072673),
        ("spherical", "3.0,3.0,1e-320", 0.11911701530444765, -1.9654745450072673),
    ], ids=["euclidean-0", "spherical-5e-324", "spherical-1e-320"])
    def test_probe_triple_zero_angle(self, capsys, mode, angles, lengths, margin):
        """An angle sum above pi with a zero (or subnormal) angle: the
        angle-triangle sides are null, and no numpy warning is raised on
        the way (a zero sine divides, a subnormal one overflows)."""
        rc = main(["probe-triple", "--mode", mode, "--radii", "1,1,1", "--angles", angles])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        lams = [-1.9799849932008908, -1.9799849932008908, 1.980085143325183]
        assert json.loads(out) == {
            "angle_triangle_sides": None, "angles": [float(a) for a in angles.split(",")],
            "edge_lengths": [lengths, lengths, 2.0], "feasibility_margin": margin,
            "inner_angles": None, "lambdas": lams, "mode": mode, "radii": [1.0, 1.0, 1.0]}

    def test_diagnose(self, files):
        out = files["dir"] / "diag.json"
        rc = main(["diagnose", str(files["octa"]), str(files["theta3"]),
                   "--marked-face", "0", "--json-out", str(out)])
        assert rc == 0
        table = json.loads(out.read_text())["suspects"]
        assert table and all(row["value"] < 0 for row in table)

    def test_diagnose_budget(self, files, capsys, monkeypatch):
        """Past SUBSET_BUDGET connected subsets diagnose exits 2 with a
        one-line error; within it the table is the default budget's."""
        argv = ["diagnose", str(files["octa"]), str(files["theta3"]), "--diag-max", "2"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        count = len(connected_subsets(formats.load_triangulation(files["octa"]), 2))
        monkeypatch.setattr(degeneration, "SUBSET_BUDGET", count)
        assert main(argv) == 0
        assert capsys.readouterr() == (table, "")
        monkeypatch.setattr(degeneration, "SUBSET_BUDGET", count - 1)
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"diagnose error: more than {count - 1} connected subsets up to size 2\n")


class TestDeterminism:
    def test_render_byte_identical(self, files):
        pattern = files["dir"] / "p.json"
        main(["solve", str(files["tetra"]), str(files["theta0"]),
              "--mode", "euclidean", "--auto-mark", "--out", str(pattern)])
        s1 = files["dir"] / "a.svg"
        s2 = files["dir"] / "b.svg"
        assert main(["render", str(pattern), "--out", str(s1),
                     "--contact-graph", "--star-overlay"]) == 0
        assert main(["render", str(pattern), "--out", str(s2),
                     "--contact-graph", "--star-overlay"]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_bytes().startswith(b"<?xml")

    def test_unset_flags_write_what_their_old_defaults_wrote(self, files):
        """Without its optional flags a command writes the same bytes as with
        the values the parser used to default them to; the library's
        defaults now apply."""
        d = files["dir"]
        planar = d / "p.json"
        assert main(["solve", str(files["tetra"]), str(files["theta0"]), "--mode",
                     "euclidean", "--auto-mark", "--out", str(planar)]) == 0
        runs = [
            (["validate", files["octa"], files["theta3"], "--json-out"], ["--class", "marden"]),
            (["verify", "--pattern", planar, "--json-out"],
             ["--tol", "1e-8", "--resolution", "4096"]),
            (["render", planar, "--out"], ["--size", "640"]),
            (["diagnose", files["octa"], files["theta3"], "--json-out"], ["--diag-max", "6"]),
        ]
        for argv, literal in runs:
            bare, given = d / f"{argv[0]}.bare", d / f"{argv[0]}.given"
            assert main([*map(str, argv), str(bare)]) == 0
            assert main([*map(str, argv), str(given), *literal]) == 0
            assert bare.read_bytes() == given.read_bytes(), argv[0]

    def test_parser_leaves_every_default_to_the_library(self):
        """The only parser default is ``solve --mode auto``, the CLI's own
        choice: every other unset flag passes nothing."""
        from circlepattern.cli import make_parser

        subs = next(a for a in make_parser()._actions if a.dest == "command").choices
        defaults = {(name, a.dest) for name, sub in subs.items() for a in sub._actions
                    if a.default is not None and a.dest != "help"}
        assert defaults == {("solve", "mode")}

    def test_solve_byte_identical(self, files):
        p1 = files["dir"] / "p1.json"
        p2 = files["dir"] / "p2.json"
        for out in (p1, p2):
            rc = main(["solve", str(files["octa"]), str(files["theta3"]),
                       "--mode", "spherical", "--seed", "0", "--out", str(out)])
            assert rc == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestCyclesEnumeratedOnce:
    # the CLI's classify, the solver's own classify and, on the sphere, the
    # classify of the tangency-packing start all read one frontier
    # enumeration of index arrays, and none of them builds a Circuit
    @pytest.mark.parametrize("tri, theta", [("tetra", "theta0"), ("octa", "theta3")])
    def test_auto_solve(self, files, monkeypatch, tri, theta):
        from circlepattern import cycles

        calls = []
        enumerate_cycles = cycles._enumerate_cycles

        def counted(t, max_len, cap):
            calls.append(max_len)
            return enumerate_cycles(t, max_len, cap)

        monkeypatch.setattr(cycles, "_enumerate_cycles", counted)
        monkeypatch.setattr(cycles, "_circuits", lambda kind, cols: calls.append(kind))
        rc = main(["solve", str(files[tri]), str(files[theta]), "--mode", "auto",
                   "--auto-mark", "--out", str(files["dir"] / "p.json")])
        assert rc == 0
        assert calls == [4]


class TestImportHygiene:
    def test_no_numpy_ma(self, files):
        """No command imports numpy.ma (np.unique and np.setdiff1d do): it
        costs every process about 17 ms and 1 MB."""
        script = (
            "import json, sys\n"
            "from circlepattern.cli import main\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append([argv[0], main(argv), 'numpy.ma' in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        d = files["dir"]
        runs = [
            ["validate", files["octa"], files["theta3"], "--class", "m5"],
            ["solve", files["tetra"], files["theta0"], "--mode", "euclidean", "--auto-mark",
             "--out", d / "p.json"],
            ["render", d / "p.json", "--out", d / "p.svg"],
            ["verify", "--pattern", d / "p.json", "--json-out", d / "v.json"],
            ["solve", files["octa"], files["theta3"], "--mode", "spherical", "--out",
             d / "s.json"],
            ["verify", "--pattern", d / "s.json", "--json-out", d / "w.json"],
            ["polyhedron", "--pattern", d / "s.json", "--allow-ideal", "--out", d / "q.obj"],
        ]
        argv = json.dumps([[str(a) for a in run] for run in runs])
        proc = subprocess.run([sys.executable, "-c", script, argv], capture_output=True,
                              text=True, check=True)
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == [[run[0], 0, False] for run in runs]

    @staticmethod
    def _loaded(argv):
        """Exit code of ``argv`` in a fresh interpreter, the package's
        submodules it loaded (without the ``circlepattern.`` prefix), and
        the number of dataclass types they define: Python 3.11 compiles
        the methods of each with ``exec``, about 1 ms a type."""
        script = (
            "import dataclasses, json, sys\n"
            "from circlepattern.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "mods = [m for name, m in sys.modules.items() if name.startswith('circlepattern.')]\n"
            "records = [v for m in mods for v in vars(m).values() if isinstance(v, type)\n"
            "           and dataclasses.is_dataclass(v) and v.__module__ == m.__name__]\n"
            "print(json.dumps([code, sorted(m.__name__.split('.', 1)[1] for m in mods),\n"
            "                  len(records)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                              capture_output=True, text=True, check=True)
        code, modules, records = json.loads(proc.stdout.splitlines()[-1])
        return code, set(modules), records

    def test_package_import_loads_no_submodule(self):
        script = (
            "import sys\n"
            "import circlepattern\n"
            "print(sorted(m for m in sys.modules if m.startswith('circlepattern.')))\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["[]", "False"]

    def test_validate_loads_only_the_condition_checks(self, files):
        runs = [  # (argv, exit code): the obtuse cube fails Andreev's conditions
            (["validate", files["octa"], files["theta3"], "--class", "m5"], 0),
            (["validate", files["cube"], files["cube_theta"], "--class", "andreev"], 2),
        ]
        for argv, code in runs:
            assert self._loaded(argv) == (
                code, {"cli", "formats", "errors", "triangulation", "cycles", "conditions"}, 5)

    def test_pattern_commands_load_no_solver(self, files):
        d = files["dir"]
        planar, sphere = d / "p.json", d / "s.json"
        assert main(["solve", str(files["tetra"]), str(files["theta0"]), "--mode",
                     "euclidean", "--auto-mark", "--out", str(planar)]) == 0
        assert main(["solve", str(files["octa"]), str(files["theta3"]), "--mode",
                     "spherical", "--out", str(sphere)]) == 0
        runs = [
            ["verify", "--pattern", planar, "--json-out", d / "v.json"],
            ["verify", "--pattern", sphere, "--json-out", d / "w.json"],
            ["polyhedron", "--pattern", sphere, "--allow-ideal", "--out", d / "q.obj"],
            ["render", planar, "--out", d / "p.svg"],
        ]
        solvers = {"euclidean", "spherical", "degeneration", "options"}
        for argv in runs:
            code, modules, _ = self._loaded(argv)
            assert code == 0
            assert not modules & solvers, argv[0]

    def test_render_loads_only_the_pattern_reader(self, files):
        planar = files["dir"] / "p.json"
        assert main(["solve", str(files["tetra"]), str(files["theta0"]), "--mode",
                     "euclidean", "--auto-mark", "--out", str(planar)]) == 0
        assert self._loaded(["render", planar, "--out", files["dir"] / "p.svg"]) == (
            0, {"cli", "formats", "errors", "triangulation", "configurations", "render"}, 7)

    def test_lift_loads_only_the_lift(self, files):
        """``lift`` runs only the closed-form lift, which lives beside the
        configuration types: no solver module is loaded."""
        planar = files["dir"] / "p.json"
        assert main(["solve", str(files["tetra"]), str(files["theta0"]), "--mode",
                     "euclidean", "--auto-mark", "--out", str(planar)]) == 0
        assert self._loaded(["lift", planar, "--out", files["dir"] / "l.json"]) == (
            0, {"cli", "formats", "errors", "triangulation", "configurations"}, 7)

    def test_pipeline_commands_load_exactly_their_layers(self, files):
        """The module sets the README lists for solve, verify and polyhedron,
        and the number of record types each defines: the cycle layer only
        where cycles are read, and the collapse diagnostics only when a
        solve fails (``test_only_a_failing_solve_loads_the_diagnostics``)."""
        d = files["dir"]
        base = {"cli", "formats", "errors", "triangulation", "configurations", "triples"}
        solver = base | {"cycles", "conditions", "options", "_newton", "euclidean"}
        runs = [
            (["solve", files["tetra"], files["theta0"], "--mode", "euclidean", "--auto-mark",
              "--out", d / "p.json"], solver, 11),
            (["solve", files["octa"], files["theta3"], "--mode", "spherical", "--out",
              d / "s.json"], solver - {"euclidean"} | {"spherical"}, 11),
            (["verify", "--pattern", d / "p.json"], base | {"cycles", "verify"}, 9),
            (["verify", "--pattern", d / "s.json"], base | {"cycles", "verify"}, 9),
            (["polyhedron", "--pattern", d / "s.json", "--allow-ideal", "--out", d / "q.obj"],
             base | {"polyhedron"}, 10),
        ]
        for argv, modules, records in runs:
            assert self._loaded(argv) == (0, modules, records), argv[0]

    def test_only_a_failing_solve_loads_the_diagnostics(self, tmp_path):
        """A planar solve that stops at its step limit exits 3 and loads
        ``degeneration``, which no passing solve loads
        (``test_pipeline_commands_load_exactly_their_layers``); the Stalled
        it raises still carries the collapse suspects of its radii."""
        t = build_triangulation(loop_subdivide(shapes.icosahedron().faces, 1))
        theta = AngleAssignment.constant(t, 0.0)
        tri, th = tmp_path / "t.json", tmp_path / "th.json"
        tri.write_text(formats.dumps(formats.triangulation_to_dict(t)))
        th.write_text(formats.dumps(formats.theta_to_dict(theta)))
        code, modules, _ = self._loaded(["solve", tri, th, "--mode", "euclidean", "--auto-mark",
                                         "--max-iters", "0", "--out", tmp_path / "p"])
        assert code == 3 and "degeneration" in modules
        with pytest.raises(Stalled) as info:
            solve_euclidean(t, theta, pick_marked_face(t, theta), SolveOptions(max_iters=0))
        assert len(info.value.suspects) == 5

    def test_solve_lift_and_polyhedron_load_no_verifier(self, files):
        d = files["dir"]
        runs = [
            ["solve", files["tetra"], files["theta0"], "--mode", "euclidean", "--auto-mark",
             "--out", d / "p.json"],
            ["lift", d / "p.json", "--out", d / "l.json"],
            ["solve", files["octa"], files["theta3"], "--mode", "spherical", "--out",
             d / "s.json"],
            ["polyhedron", "--pattern", d / "s.json", "--allow-ideal", "--out", d / "q.obj"],
        ]
        for argv in runs:
            code, modules, _ = self._loaded(argv)
            assert code == 0
            assert "verify" not in modules, argv[0]

    def test_probe_triple_loads_only_the_triple_geometry(self):
        argv = ["probe-triple", "--mode", "euclidean", "--radii", "1,1,1",
                "--angles", "0.5,0.5,0.5"]
        assert self._loaded(argv) == (
            0, {"cli", "formats", "errors", "triples", "triple_records"}, 4)

    def test_no_command_imports_scipy(self, tmp_path):
        """Matrices up to ``DENSE_MAX`` are factorized by numpy, so no command
        on a shipped shape or on a benchmark-sized instance pays scipy's
        import: every shipped shape solved in each class it is in, and the
        largest solves of the benchmark, icosahedral n=162 at theta = 0
        (480 edges) and n=42 at theta = 1.2, each with verify and render or
        polyhedron."""
        from circlepattern import _newton

        assert _newton.DENSE_MAX >= 480
        cases = [(name, t) for name, t in shapes.shipped_triangulations().items()]
        cases += [("ico162", build_triangulation(loop_subdivide(shapes.icosahedron().faces, 2))),
                  ("ico42", build_triangulation(loop_subdivide(shapes.icosahedron().faces, 1)))]
        runs = []
        for name, t in cases:
            tri = tmp_path / f"{name}.json"
            tri.write_text(formats.dumps(formats.triangulation_to_dict(t)))
            for klass, value, tail in (
                    ("g5", 0.0, ["render", "{p}", "--out", "{p}.svg"]),
                    ("m5", 1.2, ["polyhedron", "--pattern", "{p}", "--out", "{p}.obj"])):
                theta = AngleAssignment.constant(t, value)
                if name == "ico162" and klass == "m5" or not classify(t, theta, klass).passed:
                    continue
                th, p = tmp_path / f"{name}-{klass}.theta.json", tmp_path / f"{name}-{klass}.json"
                th.write_text(formats.dumps(formats.theta_to_dict(theta)))
                runs += [["solve", tri, th, "--mode", "auto", "--auto-mark", "--out", p],
                         ["verify", "--pattern", p, "--json-out", f"{p}.verify.json"],
                         [a.format(p=p) for a in tail]]
        assert len(runs) >= 12
        script = (
            "import json, sys\n"
            "from circlepattern.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'scipy' in sys.modules]))\n"
        )
        argv = json.dumps([[str(a) for a in run] for run in runs])
        proc = subprocess.run([sys.executable, "-c", script, argv], capture_output=True,
                              text=True, check=True)
        codes, scipy_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(runs)
        assert not scipy_loaded

    def test_planar_solve_loads_no_spherical_solver(self, files):
        code, modules, _ = self._loaded(
            ["solve", files["tetra"], files["theta0"], "--mode", "euclidean",
             "--auto-mark", "--out", files["dir"] / "p.json"])
        assert code == 0
        assert "euclidean" in modules and "spherical" not in modules


class TestConsoleEntry:
    def test_module_invocation(self, files, capsys):
        argv = ["validate", str(files["tetra"]), str(files["theta0"]), "--class", "g5"]
        proc = subprocess.run([sys.executable, "-m", "circlepattern", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"]
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["probe-triple", "--mode", "euclidean", "--radii", "1,1", "--angles", "0.5,0.5,0.5"],
         1),
        (["validate", "{octa}", "{thetabad}", "--class", "marden"], 2),
    ])
    def test_module_passes_main_through(self, files, capsys, argv, code):
        """``python -m circlepattern`` passes ``main``'s failure codes through
        and prints what ``main`` prints in-process."""
        argv = [a.format(**files) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "circlepattern", *argv],
                              capture_output=True, text=True)
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_main_leaves_the_collector_alone(self, files):
        frozen = gc.get_freeze_count()
        assert gc.isenabled()
        assert main(["validate", str(files["tetra"]), str(files["theta0"]),
                     "--class", "g5"]) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen

    def test_run_owns_the_collector(self, files):
        """The process entry switches the collector off before the command
        and freezes the live heap before it exits."""
        script = (
            "import gc, json\n"
            "from circlepattern.__main__ import run\n"
            "try:\n"
            "    run()\n"
            "except SystemExit as exc:\n"
            "    print(json.dumps([exc.code, gc.isenabled(), gc.get_freeze_count()]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, "validate", str(files["tetra"]),
                               str(files["theta0"]), "--class", "g5"],
                              capture_output=True, text=True, check=True)
        code, enabled, frozen = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert not enabled
        assert frozen > 0
