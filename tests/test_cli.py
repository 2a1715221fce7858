import copy
import json
import math
import subprocess
import sys

import pytest

from circlepattern import AngleAssignment, build_triangulation, classify, formats
from circlepattern import shapes
from circlepattern.cli import main
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

    @pytest.mark.parametrize("radii", ["1,1", "1,1,x", "0,1,1"])
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
    ], ids=["face-entry", "vertices", "faces", "edge", "center", "radius",
            "marked-verify", "marked-render", "marked-polyhedron",
            "nan-center-verify", "inf-center-render", "nan-center-polyhedron",
            "inf-center-lift"])
    def test_malformed_json(self, octa_json, capsys, command, base, path, value, code):
        """A value of the wrong type or shape ends in one line on stderr and
        exit 1 from the loaders; a marked face that is not a face ends in
        the command's own failure code, as does a centre that is not a
        finite number (JSON as Python writes it has NaN and Infinity)."""
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
                                      ("--stroke-width", "-1")])
    def test_bad_render_size(self, octa_json, capsys, flag):
        """A size below 1 or a negative stroke width is a usage error, and
        no SVG is written."""
        root, _ = octa_json
        out = root / "sized.svg"
        self._usage_error(["render", root / "plane.json", "--out", out, *flag], capsys)
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

    def test_diagnose(self, files):
        out = files["dir"] / "diag.json"
        rc = main(["diagnose", str(files["octa"]), str(files["theta3"]),
                   "--marked-face", "0", "--json-out", str(out)])
        assert rc == 0
        table = json.loads(out.read_text())["suspects"]
        assert table and all(row["value"] < 0 for row in table)


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
        from circlepattern import triangulation

        calls = []
        enumerate_cycles = triangulation._enumerate_cycles

        def counted(t, max_len, cap):
            calls.append(max_len)
            return enumerate_cycles(t, max_len, cap)

        monkeypatch.setattr(triangulation, "_enumerate_cycles", counted)
        monkeypatch.setattr(triangulation, "_circuits", lambda kind, cols: calls.append(kind))
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
        """Exit code of ``argv`` in a fresh interpreter, and the package's
        submodules it loaded (without the ``circlepattern.`` prefix)."""
        script = (
            "import json, sys\n"
            "from circlepattern.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in sys.modules\n"
            "                               if m.startswith('circlepattern.'))]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                              capture_output=True, text=True, check=True)
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        return code, set(modules)

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
                code, {"cli", "formats", "conditions", "triangulation", "errors"})

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
            code, modules = self._loaded(argv)
            assert code == 0
            assert not modules & solvers, argv[0]

    def test_render_loads_only_the_pattern_reader(self, files):
        planar = files["dir"] / "p.json"
        assert main(["solve", str(files["tetra"]), str(files["theta0"]), "--mode",
                     "euclidean", "--auto-mark", "--out", str(planar)]) == 0
        assert self._loaded(["render", planar, "--out", files["dir"] / "p.svg"]) == (
            0, {"cli", "formats", "errors", "conditions", "triangulation", "configurations",
                "render"})

    def test_pipeline_commands_load_exactly_their_layers(self, files):
        """The module sets the README lists for solve, verify and polyhedron."""
        d = files["dir"]
        base = {"cli", "formats", "errors", "conditions", "triangulation", "configurations",
                "triples"}
        solver = base | {"euclidean", "degeneration", "options", "_newton"}
        runs = [
            (["solve", files["tetra"], files["theta0"], "--mode", "euclidean", "--auto-mark",
              "--out", d / "p.json"], solver),
            (["solve", files["octa"], files["theta3"], "--mode", "spherical", "--out",
              d / "s.json"], solver | {"spherical"}),
            (["verify", "--pattern", d / "p.json"], base | {"verify"}),
            (["verify", "--pattern", d / "s.json"], base | {"verify"}),
            (["polyhedron", "--pattern", d / "s.json", "--allow-ideal", "--out", d / "q.obj"],
             base | {"polyhedron"}),
        ]
        for argv, modules in runs:
            assert self._loaded(argv) == (0, modules), argv[0]

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
            code, modules = self._loaded(argv)
            assert code == 0
            assert "verify" not in modules, argv[0]

    def test_probe_triple_loads_only_the_triple_geometry(self):
        argv = ["probe-triple", "--mode", "euclidean", "--radii", "1,1,1",
                "--angles", "0.5,0.5,0.5"]
        assert self._loaded(argv) == (0, {"cli", "formats", "errors", "triples"})

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
        code, modules = self._loaded(
            ["solve", files["tetra"], files["theta0"], "--mode", "euclidean",
             "--auto-mark", "--out", files["dir"] / "p.json"])
        assert code == 0
        assert "euclidean" in modules and "spherical" not in modules


class TestConsoleEntry:
    def test_module_invocation(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "circlepattern", "validate",
             str(files["tetra"]), str(files["theta0"]), "--class", "g5"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"]
