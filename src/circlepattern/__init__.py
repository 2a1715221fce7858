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
        "ConditionReport", "Violation", "audit_circuit_sums",
        "check_andreev", "check_c1", "check_c2", "check_c3_c4", "classify",
        "detect_whitehead",
    ),
    "configurations": (
        "CirclePattern", "CurvatureReport", "EuclideanConfiguration", "SphericalConfiguration",
        "lift_to_sphere",
    ),
    "degeneration": (
        "DegenerationFunctional", "VertexSubsetGeometry", "connected_subsets",
        "degeneration_functional", "rank_collapse_suspects", "subset_geometry",
    ),
    "euclidean": ("pick_marked_face", "solve_euclidean"),
    "options": ("SolveOptions",),
    "polyhedron": (
        "HalfSpace", "HyperbolicPolyhedron", "build_polyhedron", "check_polyhedron",
        "export_obj",
    ),
    "spherical": ("solve_spherical",),
    "triangulation": (
        "AngleAssignment", "Triangulation", "build_triangulation", "dual_of_trivalent",
        "polyhedron_from_triangulation",
    ),
    "triples": ("edge_lengths", "feasibility_margin", "inversive_distance"),
    "verify": ("VerificationReport", "contact_graph", "flower_check", "verify_pattern"),
    "cycles": ("Circuit", "enumerate_simple_cycles", "enumerate_two_arcs"),
    "_newton": ("layout_euclidean",),
    "triple_records": (
        "TripleGeometry", "TripleSpec", "containment_angle_check", "edge_length",
        "feasibility", "inner_angles", "limit_profile", "place_triple", "triple_geometry",
        "triple_intersection_empty",
    ),
}
# submodules that define exported names but are not exported names themselves
_UNLISTED = ("cycles", "triple_records", "_newton")
# exported name -> the submodule that defines it; a public submodule maps to itself
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_ORIGIN.update((module, module) for module in (*_EXPORTS, "errors") if module not in _UNLISTED)

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
