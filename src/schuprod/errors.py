"""Exception taxonomy shared by all modules."""


class SchubertError(Exception):
    """Base class for every domain error raised by this package."""


class NotCartan(SchubertError):
    """Input matrix violates the shape constraints of a Cartan matrix."""


class NotFiniteType(SchubertError):
    """Cartan matrix is well formed but not of finite type."""


class GroupTooLarge(SchubertError):
    """Weyl group enumeration exceeded the configured bound."""


class NotReduced(SchubertError):
    """Word is longer than the length of the element it spells."""


class DegreeMismatch(SchubertError):
    """Polynomial degree incompatible with the requested operation."""


class VariableCountMismatch(SchubertError):
    """Polynomials live in different numbers of variables."""


class NegativeConstant(SchubertError):
    """A computed structure constant came out negative, which valid
    constants never are: an internal inconsistency, not an input error."""


class LengthMismatch(SchubertError):
    """Element lengths do not satisfy l(w) = l(u) + l(v)."""


class NotMinimalRep(SchubertError):
    """Element is not a minimal coset representative for the parabolic."""


class SizeMismatch(SchubertError):
    """Partition sizes do not satisfy |nu| = |lambda| + |mu|."""


class NotGrassmannianPermutation(SchubertError):
    """Element has a descent outside the single allowed position."""
