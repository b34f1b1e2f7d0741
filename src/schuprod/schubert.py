"""Structure constants of Schubert classes from subword equations.

Fix a reduced word for w with letters (i_1,...,i_k).  For a target u of
length r, the solutions are the position sets L = (a_1 < ... < a_r) whose
letters compose to u; each contributes the square-free monomial x_L.
The constant on w in the product of the classes of u and v is the
triangular operator of the word's relative Cartan matrix applied to the
product of the two solution-set sums.

The solver is one pass over the word's positions, left to right, with
no depth limit.  The position sets taken so far are grouped by the
weight of the remainder they still have to spell, the group element
left for the positions not yet read.  Taking a position must shorten
that remainder by one (a selection of l(u) letters spelling u is
automatically a reduced word, and every suffix of a reduced word is
reduced), so a position is taken only at a left descent of the
remainder.  The remainder's length is then the number of letters still
needed, a group is dropped once it needs more letters than are left,
and the sets that reach the full count are those under the identity's
weight.

A position set is one int, the sum of 1 << width*(a-1) over its
positions a.  With width = triop.key_width(k) that is the operator's key
of the monomial x_L, so the product of two solutions is the sum of their
keys and goes to triop.eliminate as it is; with width 1 it is a bit
mask, which subword_solutions and subword_sum decode.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from threading import Lock
from typing import Optional

from .errors import GroupTooLarge, LengthMismatch, NegativeConstant, NotMinimalRep
from .frozen import Frozen
from .relmat import _reduced_letters, relative_columns
from .rootsys import CartanMatrix
from .triop import HomogPoly, eliminate, key_width
from .weyl import (
    ParabolicSubset,
    WeylElement,
    apply_simple_reflection,
    climb,
    coset_levels,
    is_minimal_rep,
    longest_element,
    opposition,
    poincare_dual,
    reduced_word,
    DEFAULT_MAX_GROUP_ORDER,
)


class StructureConstant(Frozen):
    __slots__ = ("u", "v", "w", "value")

    def __init__(self, u: WeylElement, v: WeylElement, w: WeylElement, value: int):
        if w.length != u.length + v.length:
            raise LengthMismatch(f"l(w)={w.length} but l(u)+l(v)={u.length + v.length}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "value", value)


def subword_solutions(word, target: WeylElement, c: CartanMatrix) -> list[tuple[int, ...]]:
    """All position sets of size l(target) in the reduced word whose
    letters compose to target, in lexicographic order (1-based)."""
    return _positions(_solutions(_reduced_letters(word, c), target, c))


def _positions(masks) -> list[tuple[int, ...]]:
    """Bit-mask position sets as 1-based position tuples, in lexicographic order."""
    return sorted(tuple(a for a in range(1, m.bit_length() + 1) if m >> a - 1 & 1) for m in masks)


def _solutions(letters, target: WeylElement, c: CartanMatrix, width: int = 1) -> list[int]:
    """The solutions on letters already known to be a reduced word, each
    the sum of 1 << width*(a-1) over its positions a, in no set order."""
    k, r = len(letters), target.length
    # The position sets taken so far, keyed by the weight of the remainder
    # still to spell; every set under one key has the same size.
    partial = {target.rho_image: [0]}
    for j, letter in enumerate(letters):
        bit = 1 << width * j
        taken, doomed = {}, []
        for image, sets in partial.items():
            if image[letter - 1] < 0:
                step = apply_simple_reflection(letter, image, c)
                taken.setdefault(step, []).extend([s + bit for s in sets])
            # k - j - 1 letters follow this one: a group that needs more
            # cannot finish (its sets that take this letter are in taken).
            if r - sets[0].bit_count() >= k - j:
                doomed.append(image)
        for image in doomed:
            del partial[image]
        for image, sets in taken.items():
            partial.setdefault(image, []).extend(sets)
    # The complete sets sit under the identity's weight, rho = (1, ..., 1).
    return partial.get((1,) * c.n, [])


def subword_sum(word, target: WeylElement, c: CartanMatrix) -> HomogPoly:
    """The square-free polynomial summing x_L over all solutions."""
    letters = _reduced_letters(word, c)
    k = len(letters)
    terms = {tuple(m >> i & 1 for i in range(k)): 1 for m in _solutions(letters, target, c)}
    return HomogPoly(k, target.length, terms)


def structure_constants_for_word(word, pairs, c: CartanMatrix) -> list[int]:
    """Constants on the element of the given reduced word for each pair
    (u, v) of pairs, evaluated with exactly that word.

    The word is checked to be reduced, and each pair's lengths to sum to
    its length; _constants_of_letters does the rest.  The value depends
    only on the element (tested, not assumed), so this route on a word of
    the caller's choice is the reference that FlagManifold.constants, on
    its own canonical words, is tested against.
    """
    letters = _reduced_letters(word, c)
    pairs = list(pairs)
    for u, v in pairs:
        if len(letters) != u.length + v.length:
            raise LengthMismatch(f"word length {len(letters)} but l(u)+l(v)={u.length + v.length}")
    return _constants_of_letters(letters, pairs, c)


def _constants_of_letters(letters: tuple[int, ...], pairs, c: CartanMatrix) -> list[int]:
    """structure_constants_for_word on letters already known to be a
    reduced word, for pairs whose lengths already sum to its length.

    The word's relative matrix is built once, as sparse columns, each
    distinct factor's subword equations solved once, with the solutions
    as monomial keys, and all products go straight into one batched
    elimination of the triangular operator (triop.eliminate).
    """
    width = key_width(len(letters))
    # Keyed on the canonical form, whose hash is the tuple's own, not a
    # Python-level WeylElement.__hash__ per factor of every pair.
    distinct = {x.rho_image: x for pair in pairs for x in pair}
    keys = {image: _solutions(letters, x, c, width) for image, x in distinct.items()}
    factors = [(keys[u.rho_image], keys[v.rho_image]) for u, v in pairs]
    batch = [j for j, (ku, kv) in enumerate(factors) if ku and kv]
    products = [Counter([e1 + e2 for e1 in ku for e2 in kv]) for ku, kv in (factors[j] for j in batch)]
    columns = relative_columns(letters, c)
    values = [0] * len(pairs)
    for j, value in zip(batch, eliminate(columns, products)):
        # Intersection theory makes valid constants non-negative; a
        # negative value can only mean a bug upstream.
        if value < 0:
            raise NegativeConstant(f"negative structure constant {value} for word {letters}")
        values[j] = value
    return values


def structure_constant_for_word(
    word, u: WeylElement, v: WeylElement, c: CartanMatrix
) -> int:
    """Constant on the element of the given reduced word, evaluated with
    exactly that word (see structure_constants_for_word)."""
    return structure_constants_for_word(word, [(u, v)], c)[0]


ORIENTATIONS = ("direct", "dual_u", "dual_v")


def choose_orientation(u_length: int, v_length: int, dim: int) -> tuple[str, int]:
    """The orientation to evaluate a^w_{u,v} in, and its target word's
    length, for factor lengths l(u), l(v) in G/P of dimension dim.

    Poincaré duality gives a^w_{u,v} = a^{u∨}_{v,w∨} = a^{v∨}_{u,w∨}
    (x∨ = w0·x·w0_P, see weyl.poincare_dual), on target words of
    lengths l(u) + l(v), dim - l(u) and dim - l(v).  The operator's cost
    grows exponentially with that length, so the shortest wins; ties go
    to the direct orientation, then to u∨.
    """
    lengths = (u_length + v_length, dim - u_length, dim - v_length)
    shortest = min(lengths)
    return ORIENTATIONS[lengths.index(shortest)], shortest


class FlagManifold:
    """G/P for one Cartan matrix and parabolic subset, validated once: the
    one place that knows its dimension, its representatives by level, their
    reduced words and duals, the factor check and each orientation."""

    def __init__(self, c: CartanMatrix, parabolic=(), max_order: int = DEFAULT_MAX_GROUP_ORDER):
        self.c = c
        # The memos close over p, not self, so no cycle keeps a walk alive.
        self.parabolic = p = ParabolicSubset.of(parabolic)
        p.validate(c)
        self.word = cache(lambda x: reduced_word(x, c))
        # One walk, extended under the lock by level(d) to the deepest level
        # asked for; a generator cannot be advanced by two threads at once.
        self._walk = coset_levels(c, p, max_order)
        self._levels: list[tuple[WeylElement, ...]] = []
        self._walk_lock = Lock()
        self._walk_error: Optional[GroupTooLarge] = None
        # w0_P and the opposition involution (the action of w0) cost climbs of
        # about l(w0_P) and l(w0) steps, far more than dim's, so they wait for a dual.
        longest = cache(lambda: (longest_element(c, p.indices), opposition(c)))
        # dual(x) = x∨ = w0·x·w0_P, whose class is Poincaré dual to that of x.
        self.dual = cache(lambda x: poincare_dual(x, *longest(), c))

    @cached_property
    def dim(self) -> int:
        """l(w0) - l(w0_P), from the climb on lambda_P; lazy, as the factor check needs none."""
        return climb(self.c, self.parabolic.weight(self.c))[1]

    def level(self, d: int) -> tuple[WeylElement, ...]:
        """The representatives of length d, sorted on the canonical form.

        The walk of W/W' goes on from the deepest level built so far to
        level d and no further; () for d < 0 or d > dim walks nothing.
        Raises GroupTooLarge, before building a level, when that level and
        the levels walked before it would hold more than max_order
        representatives, and again on every later call that needs that
        level or a later one.
        """
        if not 0 <= d <= self.dim:
            return ()
        if d >= len(self._levels):
            with self._walk_lock:
                while d >= len(self._levels):
                    if self._walk_error is not None:
                        raise GroupTooLarge(str(self._walk_error))
                    try:
                        self._levels.append(next(self._walk))
                    except GroupTooLarge as exc:
                        self._walk_error = exc
                        raise
        return self._levels[d]

    def check_reps(self, **elements) -> None:
        """Raise NotMinimalRep unless every named element is shortest in its coset."""
        for name, e in elements.items():
            if not is_minimal_rep(e, self.parabolic, self.c):
                raise NotMinimalRep(f"{name} is not minimal in its coset for {sorted(self.parabolic.indices)}")

    def evaluation(self, u_length: int, v_length: int) -> Optional[dict]:
        """The orientation the constants of factors of these lengths are
        evaluated in and its target word's length; None when there is no
        class of degree l(u) + l(v), so nothing is evaluated."""
        if u_length + v_length > self.dim:
            return None
        orientation, k = choose_orientation(u_length, v_length, self.dim)
        return {"orientation": orientation, "word_length": k}

    def constants(self, triples) -> list[int]:
        """a^w_{u,v} for each (u, v, w) of triples, in their order; raises
        LengthMismatch unless l(w) = l(u) + l(v).

        Each triple is evaluated in the orientation choose_orientation
        picks for (l(u), l(v)), with one batched elimination per target
        word: the word of w for the direct triples, whose factors are
        (u, v), and the word of u∨ (or v∨) for the dual ones, whose factors
        are (v, w∨) (or (u, w∨)).  These canonical words are reduced by
        construction, so no word is checked here.

        A dual word is the shorter only when dim < l(w) + max(l(u), l(v)),
        so the climb that gives dim stops at the largest such bound of the
        triples: past the bound every choice is direct, so min(dim, bound)
        picks as dim does, in at most bound steps.
        """
        triples = list(triples)
        bound = 0
        for u, v, w in triples:
            if w.length != u.length + v.length:
                raise LengthMismatch(f"l(w)={w.length} but l(u)+l(v)={u.length + v.length}")
            bound = max(bound, w.length + max(u.length, v.length))
        dim = climb(self.c, self.parabolic.weight(self.c), limit=bound)[1]
        # The orientation depends on (l(u), l(v)) alone, and the batches
        # are keyed on the target's canonical form, so a triple costs no
        # choose_orientation or WeylElement.__hash__ call of its own.
        orientation = cache(lambda u_length, v_length: choose_orientation(u_length, v_length, dim)[0])
        batches: dict[tuple[int, ...], tuple[WeylElement, list]] = {}
        for j, (u, v, w) in enumerate(triples):
            chosen = orientation(u.length, v.length)
            x, y = (u, v) if chosen == "dual_u" else (v, u)
            target, pair = (w, (u, v)) if chosen == "direct" else (self.dual(x), (y, self.dual(w)))
            batch = batches.get(target.rho_image)
            if batch is None:
                batch = batches[target.rho_image] = (target, [])
            batch[1].append((j, pair))
        values = [0] * len(triples)
        for target, batch in batches.values():
            constants = _constants_of_letters(self.word(target), [pair for _, pair in batch], self.c)
            for (j, _), value in zip(batch, constants):
                values[j] = value
        return values

    def expand(self, pairs, include_zeros: bool = False) -> list[StructureConstant]:
        """The product of the classes of u and v over the representatives
        of degree l(u) + l(v), for each (u, v) of pairs: pair by pair, each
        in canonical order, zero terms dropped unless include_zeros."""
        triples = [(u, v, w) for u, v in pairs for w in self.level(u.length + v.length)]
        return [
            StructureConstant(u, v, w, value)
            for (u, v, w), value in zip(triples, self.constants(triples))
            if value != 0 or include_zeros
        ]


def structure_constant(
    u: WeylElement,
    v: WeylElement,
    w: WeylElement,
    c: CartanMatrix,
    parabolic: Optional[ParabolicSubset] = None,
) -> int:
    """The coefficient of the class of w in the product of the classes
    of u and v, requiring l(w) = l(u) + l(v).

    All three elements must be minimal coset representatives for the
    parabolic subset; without one this is G/B, whose constants on the
    representatives of any W/W' are those of G/P (the fibration
    argument).  The constant is evaluated in the orientation
    choose_orientation picks, with no walk.
    """
    space = FlagManifold(c, parabolic or ())
    space.check_reps(u=u, v=v, w=w)
    return space.constants([(u, v, w)])[0]


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
    space = FlagManifold(c, parabolic or (), max_order)
    space.check_reps(u=u, v=v)
    return space.expand([(u, v)], include_zeros)
