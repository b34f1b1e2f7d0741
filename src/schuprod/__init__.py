"""Exact multiplication of Schubert classes from a Cartan matrix.

The pipeline: validate a finite-type Cartan matrix, enumerate the Weyl
group (or the minimal coset representatives of a parabolic quotient),
attach to a reduced word its strictly upper-triangular relative matrix,
solve the subword equations for the two factors, and evaluate the
triangular operator on the product of the solution sums.  Everything is
integer-exact; an independent tableau-counting oracle covers the type-A
Grassmannian case.

Importing the package loads only the error classes.  Every other name,
and every submodule, loads on first use (PEP 562), so that a caller who
only validates a matrix and walks its cosets compiles rootsys and weyl
and nothing of the constants, the operator or the oracles.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  Each key is also
# reachable as an attribute (schuprod.weyl), loaded on first access.
_EXPORTS = {
    "cli": (),
    "errors": (
        "DegreeMismatch",
        "GroupTooLarge",
        "LengthMismatch",
        "NegativeConstant",
        "NotCartan",
        "NotFiniteType",
        "NotGrassmannianPermutation",
        "NotMinimalRep",
        "NotReduced",
        "SchubertError",
        "SizeMismatch",
        "VariableCountMismatch",
    ),
    "frozen": (),
    "oracles": (
        "all_reduced_words",
        "grassmannian_dictionary",
        "lr_coefficient",
        "positive_roots",
        "triangular_eval_closed",
    ),
    "relmat": ("RelativeCartanMatrix", "cartan_matrix_of_word"),
    "rootsys": ("CartanMatrix", "cartan_matrix_by_name", "validate_cartan"),
    "schubert": (
        "FlagManifold",
        "StructureConstant",
        "product_expansion",
        "structure_constant",
        "structure_constant_for_word",
        "structure_constants_for_word",
        "subword_solutions",
    ),
    "selftest": (),
    "triop": ("HomogPoly", "triangular_eval", "triangular_eval_many", "vanishing_filter"),
    "weyl": (
        "ParabolicSubset",
        "WeylElement",
        "Word",
        "element_of_word",
        "enumerate_group",
        "minimal_coset_reps",
        "reduced_word",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

# The error classes are bound at import: every other module imports errors,
# so loading it here costs nothing that a first use would not.
globals().update({name: getattr(errors, name) for name in _EXPORTS["errors"]})


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it here, so this runs once per name.
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
