"""Circle patterns with prescribed exterior intersection angles.

Validates combinatorial angle conditions on sphere triangulations, solves
for planar and spherical circle patterns (obtuse angles included),
verifies them independently, and builds the dual compact convex
hyperbolic polyhedron in the Klein model.

The namespace is lazy (PEP 562): importing the package loads no
submodule, and each exported name imports its submodule on first use.
So a CLI command that never solves never pays for the solvers.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "conditions": (
        "AngleAssignment", "ConditionReport", "Violation", "audit_circuit_sums",
        "check_andreev", "check_c1", "check_c2", "check_c3_c4", "classify",
        "detect_whitehead",
    ),
    "configurations": (
        "CirclePattern", "CurvatureReport", "EuclideanConfiguration", "SphericalConfiguration",
    ),
    "degeneration": (
        "DegenerationFunctional", "connected_subsets", "degeneration_functional",
        "rank_collapse_suspects",
    ),
    "euclidean": ("layout_euclidean", "pick_marked_face", "solve_euclidean"),
    "options": ("SolveOptions",),
    "polyhedron": (
        "HalfSpace", "HyperbolicPolyhedron", "build_polyhedron", "check_polyhedron",
        "export_obj",
    ),
    "spherical": ("lift_to_sphere", "solve_spherical"),
    "triangulation": (
        "Circuit", "Triangulation", "VertexSubsetGeometry", "build_triangulation",
        "dual_of_trivalent", "enumerate_simple_cycles", "enumerate_two_arcs",
        "polyhedron_from_triangulation", "subset_geometry",
    ),
    "triples": (
        "TripleGeometry", "TripleSpec", "containment_angle_check", "edge_length",
        "edge_lengths", "feasibility", "feasibility_margin", "inner_angles",
        "inversive_distance", "limit_profile", "place_triple", "triple_geometry",
        "triple_intersection_empty",
    ),
    "verify": ("VerificationReport", "contact_graph", "flower_check", "verify_pattern"),
}
# exported name -> the submodule that defines it; a submodule name maps to itself
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_ORIGIN.update((module, module) for module in (*_EXPORTS, "errors"))

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
