"""Exception taxonomy for the circle-pattern engine."""


class CirclePatternError(Exception):
    """Base class for all errors raised by this package."""


# --- combinatorial input errors ------------------------------------------

class TriangulationError(CirclePatternError):
    """Invalid triangulation input."""


class NotASphere(TriangulationError):
    """Euler characteristic is not 2, or the complex is disconnected."""


class NonManifold(TriangulationError):
    """An edge lies in a number of faces other than two, or a vertex link
    is not a single cycle."""


class InconsistentOrientation(TriangulationError):
    """The face set admits no globally consistent orientation."""


class DegenerateFace(TriangulationError):
    """A face has repeated or out-of-range vertices."""


class NotTrivalent(TriangulationError):
    """A polyhedron vertex does not have exactly three incident faces."""


class TooFewFaces(TriangulationError):
    """The polyhedron needs more than four faces."""


class LimitExceeded(CirclePatternError):
    """Circuit enumeration hit the configured cap."""


class EmptySubset(CirclePatternError):
    """A vertex subset operation received an empty set."""


class FullSubset(CirclePatternError):
    """A vertex subset operation received all vertices."""


# --- metric kernel errors -------------------------------------------------

class DomainError(CirclePatternError):
    """An inverse-trig argument fell outside its domain beyond tolerance,
    signalling disjoint or nested circles rather than numerical noise."""


class Infeasible(CirclePatternError):
    """The requested three-circle configuration does not exist."""


class NotMutuallyIntersecting(CirclePatternError):
    """A disk triple operation requires every pair to intersect properly."""


class CoversSphere(CirclePatternError):
    """The open disks cover the whole sphere; the arrangement query is
    outside its precondition."""


# --- solver errors --------------------------------------------------------

class ConditionsViolated(CirclePatternError):
    """The angle data fails the admissibility conditions for the request."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class Stalled(CirclePatternError):
    """The planar solve found no pattern: the curvature Newton reached its
    step limit, or its tolerance or rounding-floor stop left no layout or
    angles that fail ``triples.angle_errors``.  Carries the curvature
    residual and the collapse suspects of the failing radii."""

    def __init__(self, message, residual=None, suspects=None):
        super().__init__(message)
        self.residual = residual
        self.suspects = suspects or []


class LayoutInconsistent(CirclePatternError):
    """The developing map disagreed with itself beyond tolerance."""


class ContinuationStuck(CirclePatternError):
    """The homotopy step shrank below the floor before reaching t = 1, or
    the pattern reached fails ``triples.angle_errors``."""

    def __init__(self, message, t_reached=None, suspects=None):
        super().__init__(message)
        self.t_reached = t_reached
        self.suspects = suspects or []


class BaseSolveFailed(CirclePatternError):
    """The tangency packing that starts the spherical homotopy failed."""


# --- verification / polyhedron errors -------------------------------------

class MalformedPattern(CirclePatternError):
    """A claimed circle pattern is structurally unusable."""


class VertexOutsideBall(CirclePatternError):
    """A polyhedron vertex is on or outside the unit ball (non-compact)."""


class SingularTriple(CirclePatternError):
    """Three boundary planes are too close to parallel to intersect."""


class UsageError(CirclePatternError):
    """Bad command-line or file input."""
