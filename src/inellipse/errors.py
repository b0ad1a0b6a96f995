"""Exception types shared across the package."""


class InEllipseError(Exception):
    """Base class for all library-specific errors."""


class NonConvexInput(InEllipseError):
    """Vertices do not form a strictly convex quadrilateral."""


class DuplicateVertex(NonConvexInput):
    """Two input vertices coincide."""


class ParamOutOfRegion(InEllipseError):
    """A frame or family parameter lies outside its admissible region."""


class IsCircle(InEllipseError):
    """Equal conjugate diameters are ambiguous for a circle."""


class NoRootInJ(InEllipseError):
    """Expected a root in the open unit interval but found none."""


class NotMDQ(InEllipseError):
    """Operation requires a midpoint diagonal quadrilateral."""
