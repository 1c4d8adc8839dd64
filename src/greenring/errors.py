"""Exception types shared across the package."""


class GreenRingError(Exception):
    """Base class for all package errors."""


class NoSolution(GreenRingError):
    """A linear system A x = b has no solution."""


class OutOfRange(GreenRingError):
    """A size-guarded parameter is outside the supported range."""


class AlgebraMismatch(GreenRingError):
    """A module is over the wrong algebra, or two modules' algebras differ."""


class InvalidLabel(GreenRingError):
    """A label is malformed or not valid over the given algebra."""


class Unclassified(GreenRingError):
    """An indecomposable module that no classified label names.

    Every label names a module whose endomorphism residue field is Q.  A
    K2 band module at a point of P^1 of degree d > 1 over Q, such as the
    band of t^2 + 1 (d = 2) or of t^4 - 2 (d = 4), has residue field of
    degree d and no label; the Kronecker route raises this error when the
    rational points of the regular part of a pencil account for fewer
    dimensions than its size, and names the degree left over.  For a
    module whose residue field is Q, this error is a bug.
    """


class InvalidModule(GreenRingError):
    """Module data is malformed or its actions do not define a module."""


class InvalidIdealSpec(GreenRingError):
    """Ideal spec data is malformed."""


class NonSplitField(GreenRingError):
    """The meataxe could neither split a module at a rational eigenvalue of
    a sampled endomorphism nor certify it indecomposable.  Only the
    meataxe raises it, which decomposes modules over K1 and K3; K2 and DK1
    modules take the Kronecker route."""


class NotInR0(GreenRingError):
    """Restriction requested for a module on which the two group-likes differ."""


class NotEndomorphism(GreenRingError):
    """Quantum trace of a map that is not an endomorphism of the module."""


class NegativeCoefficient(GreenRingError):
    """Ideal membership asked for a virtual (negative) class."""


class ZeroMap(GreenRingError):
    """The simple-image criterion needs a nonzero map."""


class ExprSyntaxError(GreenRingError):
    """CLI expression failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
