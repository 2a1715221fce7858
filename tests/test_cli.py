import json
import math
import subprocess
import sys

import pytest

from circlepattern import AngleAssignment, formats
from circlepattern import shapes
from circlepattern.cli import main

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


class TestConsoleEntry:
    def test_module_invocation(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "circlepattern", "validate",
             str(files["tetra"]), str(files["theta0"]), "--class", "g5"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"]
