"""Exception hierarchy for the minnet toolkit."""


class MinnetError(Exception):
    """Base class for all toolkit-specific errors."""


class DegenerateQuad(MinnetError):
    """Cross-ratio input has coincident consecutive points."""


class DegenerateFit(MinnetError):
    """Plane/line fit requested on collinear or coincident points."""


class DomainMismatch(MinnetError):
    """Two nets expected on the same lattice domain differ."""


class NotCircular(MinnetError):
    """A net fails the per-quad concircularity precondition."""


class NotIsothermic(MinnetError):
    """Cross ratios do not factor through the given edge labels."""


class ParseError(MinnetError):
    """Malformed or inconsistent input file."""


class BadParameter(MinnetError):
    """A command-line parameter is outside the range a construction accepts."""


class UnsupportedGamma(MinnetError):
    """Power-function exponent outside (0,2) ∪ (2,4)."""


class ZeroDg(MinnetError):
    """Holomorphic data has a vanishing edge difference."""


class ClosureFailure(MinnetError):
    """Edge increments do not close up around some quad."""


class InconsistentBundle(MinnetError):
    """Normal propagation is path-dependent on some quad."""


class NotCoplanar(MinnetError):
    """Quad points are not coplanar within tolerance."""


class ZeroArea(MinnetError):
    """Quad area vector too small to define curvatures."""


class NotReflectable(MinnetError):
    """Boundary line does not satisfy the reflection criteria."""


class NotPlanarBoundary(MinnetError):
    """Corner angle requested where a boundary line is not planar."""


class OrbitExplosion(MinnetError):
    """The mirrors bound no chamber of a finite Coxeter group, or their group
    does not close within the word length allowed."""


class NoConvergence(MinnetError):
    """Solver stopped before reaching the requested tolerance; result is
    the solve's result at its last iterate."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class InfeasibleSpec(MinnetError):
    """Boundary-value problem parameters cannot admit a solution."""
