"""Exact multiplication of Schubert classes from a Cartan matrix.

The pipeline: validate a finite-type Cartan matrix, enumerate the Weyl
group (or the minimal coset representatives of a parabolic quotient),
attach to a reduced word its strictly upper-triangular relative matrix,
solve the subword equations for the two factors, and evaluate the
triangular operator on the product of the solution sums.  Everything is
integer-exact; an independent tableau-counting oracle covers the type-A
Grassmannian case.
"""

from .errors import (
    DegreeMismatch,
    GroupTooLarge,
    LengthMismatch,
    NegativeConstant,
    NotCartan,
    NotFiniteType,
    NotGrassmannianPermutation,
    NotMinimalRep,
    NotReduced,
    SchubertError,
    SizeMismatch,
    VariableCountMismatch,
)
from .relmat import RelativeCartanMatrix, cartan_matrix_of_word
from .rootsys import (
    CartanMatrix,
    cartan_matrix_by_name,
    positive_roots,
    validate_cartan,
)
from .schubert import (
    FlagManifold,
    StructureConstant,
    product_expansion,
    structure_constant,
    structure_constant_for_word,
    structure_constants_for_word,
    subword_solutions,
)
from .triop import (
    HomogPoly,
    triangular_eval,
    triangular_eval_many,
    vanishing_filter,
)
from .weyl import (
    ParabolicSubset,
    WeylElement,
    Word,
    all_reduced_words,
    element_of_word,
    enumerate_group,
    minimal_coset_reps,
    reduced_word,
)

__version__ = "0.1.0"

# The oracles are second routes for tests and the selftest; they load on
# first use, so that importing the package (and every run of the command
# line) does not.
_ORACLES = ("grassmannian_dictionary", "lr_coefficient", "triangular_eval_closed")


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CartanMatrix",
    "DegreeMismatch",
    "FlagManifold",
    "GroupTooLarge",
    "HomogPoly",
    "LengthMismatch",
    "NegativeConstant",
    "NotCartan",
    "NotFiniteType",
    "NotGrassmannianPermutation",
    "NotMinimalRep",
    "NotReduced",
    "ParabolicSubset",
    "RelativeCartanMatrix",
    "SchubertError",
    "SizeMismatch",
    "StructureConstant",
    "VariableCountMismatch",
    "WeylElement",
    "Word",
    "all_reduced_words",
    "cartan_matrix_by_name",
    "cartan_matrix_of_word",
    "element_of_word",
    "enumerate_group",
    "grassmannian_dictionary",
    "lr_coefficient",
    "minimal_coset_reps",
    "positive_roots",
    "product_expansion",
    "reduced_word",
    "structure_constant",
    "structure_constant_for_word",
    "structure_constants_for_word",
    "subword_solutions",
    "triangular_eval",
    "triangular_eval_closed",
    "triangular_eval_many",
    "validate_cartan",
    "vanishing_filter",
]
