"""Exception types raised by the library.

Everything derives from ValueError so callers that do not care about the
precise failure can catch the builtin.
"""


class FieldConstructionError(ValueError):
    """Bad (p, e, base) arguments: p not prime, e < 1, or base has a different characteristic."""


class MixedFieldsError(ValueError):
    """Two operands live in different fields."""


class ShapeError(ValueError):
    """Matrix dimensions do not conform for the requested operation."""


class SingularMatrixError(ValueError):
    """Inverse of a non-invertible matrix."""


class AmbientMismatchError(ValueError):
    """Subspaces or flags over different ambient spaces were combined."""


class BadDimensionsError(ValueError):
    """Subspace dimensions out of range for the ambient space."""


class NotADivisorError(ValueError):
    """Requested subgroup order does not divide the group order."""


class NotNestedError(ValueError):
    """Flag subspaces fail strict nesting."""


class TypeMismatchError(ValueError):
    """Flags of different type vectors were combined."""


class AdditivityViolatedError(ValueError):
    """A union asserted to be disjoint lost members to deduplication."""


class GcdConditionFailedError(ValueError):
    """Subgroup order t fails gcd(t, q^k - 1) = gcd(t, q - 1) != t."""


class RankDeficientError(ValueError):
    """A generator block violates the rank conditions of the construction."""


class NotExtendingError(ValueError):
    """A prime field where an extension field is needed, or a full-type
    vector inside the row space it should extend: (v1 | v2) in that of
    (U1 | U2), or v2 in that of U2."""


class CodeFileError(ValueError):
    """Malformed code file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
