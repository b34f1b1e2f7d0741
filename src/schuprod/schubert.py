"""Structure constants of Schubert classes from subword equations.

Fix a reduced word for w with letters (i_1,...,i_k).  For a target u of
length r, the solutions are the position sets L = (a_1 < ... < a_r) whose
letters compose to u; each contributes the square-free monomial x_L.
The constant on w in the product of the classes of u and v is the
triangular operator of the word's relative Cartan matrix applied to the
product of the two solution-set sums.

The solver walks positions left to right carrying the group element
still to be produced by the unchosen suffix.  Committing a position
must shorten that remainder by one (a selection of l(u) letters
spelling u is automatically a reduced word, and every suffix of a
reduced word is reduced), so a position is taken only at a left descent
of the remainder.  That prune keeps the remainder's length pinned to
the number of letters still needed, and acceptance at the full count
lands on the identity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import LengthMismatch, NegativeConstant, NotMinimalRep
from .relmat import RelativeCartanMatrix, _reduced_letters, relative_matrix_of_letters
from .rootsys import CartanMatrix
from .triop import HomogPoly, triangular_eval_many
from .weyl import (
    ParabolicSubset,
    WeylElement,
    element_of_word,  # not called here; kept as schubert.element_of_word, which tests patch
    is_minimal_rep,
    left_multiply,
    minimal_coset_reps,
    reduced_word,
    DEFAULT_MAX_GROUP_ORDER,
)


@dataclass(frozen=True)
class StructureConstant:
    u: WeylElement
    v: WeylElement
    w: WeylElement
    value: int

    def __post_init__(self):
        if self.w.length != self.u.length + self.v.length:
            raise LengthMismatch(
                f"l(w)={self.w.length} but l(u)+l(v)={self.u.length + self.v.length}"
            )


def subword_solutions(word, target: WeylElement, c: CartanMatrix) -> list[tuple[int, ...]]:
    """All position sets of size l(target) in the reduced word whose
    letters compose to target, in lexicographic order (1-based)."""
    return _solutions(_reduced_letters(word, c), target, c)


def _solutions(letters, target: WeylElement, c: CartanMatrix) -> list[tuple[int, ...]]:
    k = len(letters)
    r = target.length
    if r > k:
        return []
    sols: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(j: int, remainder: WeylElement):
        t = len(chosen)
        if t == r:  # remainder is the identity: its length is r - t = 0
            sols.append(tuple(chosen))
            return
        if k - j + 1 < r - t:
            return
        letter = letters[j - 1]
        if remainder.rho_image[letter - 1] < 0:
            chosen.append(j)
            walk(j + 1, left_multiply(letter, remainder, c))
            chosen.pop()
        walk(j + 1, remainder)

    walk(1, target)
    return sols


def subword_sum(word, target: WeylElement, c: CartanMatrix) -> HomogPoly:
    """The square-free polynomial summing x_L over all solutions."""
    return _sum(_reduced_letters(word, c), target, c)


def _sum(letters, target: WeylElement, c: CartanMatrix) -> HomogPoly:
    k = len(letters)
    terms = {}
    for positions in _solutions(letters, target, c):
        exps = [0] * k
        for pos in positions:
            exps[pos - 1] = 1
        terms[tuple(exps)] = 1
    return HomogPoly(k, target.length, terms)


def structure_constants_for_word(word, pairs, c: CartanMatrix) -> list[int]:
    """Constants on the element of the given reduced word for each pair
    (u, v) of pairs, evaluated with exactly that word.

    The word is checked once, its relative matrix built once, each
    distinct factor's subword sum computed once, and all products go
    through one batched elimination of the triangular operator.  The
    value depends only on the element (tested, not assumed); evaluating
    with the caller's word lets the CLI display the decomposition the
    caller supplied.
    """
    return _evaluate(word, pairs, c)[0]


def _evaluate(
    word, pairs, c: CartanMatrix
) -> tuple[list[int], RelativeCartanMatrix, dict[WeylElement, HomogPoly]]:
    """structure_constants_for_word, plus the working it went through: the
    word's relative matrix and each distinct factor's subword sum."""
    letters = _reduced_letters(word, c)
    pairs = list(pairs)
    for u, v in pairs:
        if len(letters) != u.length + v.length:
            raise LengthMismatch(
                f"word length {len(letters)} but l(u)+l(v)={u.length + v.length}"
            )
    sums: dict[WeylElement, HomogPoly] = {}
    for factor in (x for pair in pairs for x in pair):
        if factor not in sums:
            sums[factor] = _sum(letters, factor, c)
    batch = [
        j for j, (u, v) in enumerate(pairs) if not (sums[u].is_zero or sums[v].is_zero)
    ]
    products = [sums[pairs[j][0]] * sums[pairs[j][1]] for j in batch]
    a = relative_matrix_of_letters(letters, c)
    values = [0] * len(pairs)
    for j, value in zip(batch, triangular_eval_many(a, products)):
        # Intersection theory makes valid constants non-negative; a
        # negative value can only mean a bug upstream.
        if value < 0:
            raise NegativeConstant(f"negative structure constant {value} for word {letters}")
        values[j] = value
    return values, a, sums


def structure_constant_for_word(
    word, u: WeylElement, v: WeylElement, c: CartanMatrix
) -> int:
    """Constant on the element of the given reduced word, evaluated with
    exactly that word (see structure_constants_for_word)."""
    return structure_constants_for_word(word, [(u, v)], c)[0]


def constants_by_target(pairs, candidates, c: CartanMatrix):
    """For each candidate w of length l(u) + l(v), a length the pairs
    must share, yield (w, reduced word of w, the constants of the pairs
    on w), in candidate order."""
    degrees = {u.length + v.length for u, v in pairs}
    if len(degrees) > 1:
        raise LengthMismatch(f"pairs of different degrees {sorted(degrees)}")
    for w in candidates:
        if w.length in degrees:
            word = reduced_word(w, c)
            yield w, word, structure_constants_for_word(word, pairs, c)


def structure_constant(
    u: WeylElement,
    v: WeylElement,
    w: WeylElement,
    c: CartanMatrix,
    parabolic: Optional[ParabolicSubset] = None,
) -> int:
    """The coefficient of the class of w in the product of the classes
    of u and v, requiring l(w) = l(u) + l(v).

    When a parabolic subset is supplied all three elements must be
    minimal coset representatives; without one the computation is the
    full-flag case, which by the fibration argument also covers every
    quotient on representatives.
    """
    if parabolic is not None:
        ensure_minimal_reps(parabolic, c, u=u, v=v, w=w)
    if w.length != u.length + v.length:
        raise LengthMismatch(f"l(w)={w.length} but l(u)+l(v)={u.length + v.length}")
    return structure_constant_for_word(reduced_word(w, c), u, v, c)


def ensure_minimal_reps(parabolic, c, **elements):
    """Raise NotMinimalRep unless every named element is shortest in its coset."""
    if not isinstance(parabolic, ParabolicSubset):
        parabolic = ParabolicSubset.of(parabolic)
    parabolic.validate(c)
    for name, e in elements.items():
        if not is_minimal_rep(e, parabolic, c):
            raise NotMinimalRep(f"{name} is not minimal in its coset for {sorted(parabolic.indices)}")


def product_expansion(
    u: WeylElement,
    v: WeylElement,
    c: CartanMatrix,
    parabolic: Optional[ParabolicSubset] = None,
    include_zeros: bool = False,
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> list[StructureConstant]:
    """Expand the product of the classes of u and v over all candidate w.

    Candidates are the (coset-minimal, when a parabolic is given)
    elements of length l(u)+l(v), in canonical enumeration order.  Zero
    terms are suppressed unless include_zeros is set.
    """
    if parabolic is not None:
        ensure_minimal_reps(parabolic, c, u=u, v=v)
    reps = minimal_coset_reps(c, parabolic or (), max_order)
    return [
        StructureConstant(u, v, w, value)
        for w, _, (value,) in constants_by_target([(u, v)], reps, c)
        if value != 0 or include_zeros
    ]
