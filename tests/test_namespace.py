"""The package's public namespace: the same 66 names, each the object its
defining module holds, whether reached lazily or by ``import *``."""
import subprocess
import sys
import types

import pytest

import circlepattern

PUBLIC = [
    "AngleAssignment", "CirclePattern", "Circuit", "ConditionReport", "CurvatureReport",
    "DegenerationFunctional", "EuclideanConfiguration", "HalfSpace", "HyperbolicPolyhedron",
    "SolveOptions", "SphericalConfiguration", "Triangulation", "TripleGeometry", "TripleSpec",
    "VerificationReport", "VertexSubsetGeometry", "Violation", "audit_circuit_sums",
    "build_polyhedron", "build_triangulation", "check_andreev", "check_c1", "check_c2",
    "check_c3_c4", "check_polyhedron", "classify", "conditions", "configurations",
    "connected_subsets", "contact_graph", "containment_angle_check", "degeneration",
    "degeneration_functional", "detect_whitehead", "dual_of_trivalent", "edge_length",
    "edge_lengths", "enumerate_simple_cycles", "enumerate_two_arcs", "errors", "euclidean",
    "export_obj", "feasibility", "feasibility_margin", "flower_check", "inner_angles",
    "inversive_distance", "layout_euclidean", "lift_to_sphere", "limit_profile", "options",
    "pick_marked_face", "place_triple", "polyhedron", "polyhedron_from_triangulation",
    "rank_collapse_suspects", "solve_euclidean", "solve_spherical", "spherical",
    "subset_geometry", "triangulation", "triple_geometry", "triple_intersection_empty",
    "triples", "verify", "verify_pattern",
]


def test_all_is_unchanged():
    assert len(PUBLIC) == 66
    assert circlepattern.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_defining_modules_object(name):
    obj = getattr(circlepattern, name)
    if isinstance(obj, types.ModuleType):
        assert obj is sys.modules[f"circlepattern.{name}"]
    else:
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert obj.__module__.startswith("circlepattern.")


def test_star_import_binds_every_name():
    ns = {}
    exec("from circlepattern import *", ns)
    assert set(PUBLIC) <= set(ns)
    assert all(ns[name] is getattr(circlepattern, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        circlepattern.no_such_name
    assert not hasattr(circlepattern, "shapes_of_things")


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(circlepattern))


def test_submodules_outside_all_import_by_name():
    """``from circlepattern import formats, render`` works in a fresh
    interpreter, where neither submodule has been loaded yet."""
    script = (
        "from circlepattern import formats, render\n"
        "print(formats.__name__, render.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["circlepattern.formats", "circlepattern.render"]


def test_moved_names_keep_their_old_homes():
    """The pattern type moved to ``configurations``; ``verify`` and
    ``triples`` still hold the same objects under the old names."""
    from circlepattern import configurations, triples, verify

    assert circlepattern.CirclePattern is configurations.CirclePattern
    for name in ("CirclePattern", "_in_disks", "DISJOINT_EPS"):
        assert getattr(verify, name) is getattr(configurations, name)
    assert triples.EUCLIDEAN is configurations.EUCLIDEAN
    assert triples.SPHERICAL is configurations.SPHERICAL
