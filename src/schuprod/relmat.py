"""Strictly upper-triangular Cartan matrix attached to a reduced word.

For a reduced word with letters (i_1,...,i_k) the matrix has
entries[a][b] = -C[i_b][i_a] for a < b and zeros elsewhere: the negated
pairing of the later letter's simple root against the earlier letter's
coroot.  That argument order matters in the multiply-laced types: entry
(a, b) is the Euler number of the sphere cycle of position a inside the
2-plane bundle of position b, and the sphere of a root beta pairs a
bundle of root gamma to the coroot pairing of (gamma, beta), not the
other way around.  (The two readings agree up to relabeling in rank 2,
where either one reproduces the worked 5x5 matrices; quotients of rank
3, where the quadric and the projective space must come out different,
pin this one.)  An entry depends only on the pair of letters it sits
over, so repeating letters repeat entry patterns.
"""

from __future__ import annotations

from .errors import NotReduced
from .frozen import Frozen
from .rootsys import CartanMatrix
from .weyl import WeylElement, element_of_word


class RelativeCartanMatrix(Frozen):
    __slots__ = ("k", "entries")

    def __init__(self, k: int, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", entries)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def cartan_matrix_of_word(word, c: CartanMatrix) -> RelativeCartanMatrix:
    """Build the word's relative Cartan matrix; the word must be reduced
    (the downstream evaluation is only meaningful for reduced
    decompositions)."""
    return relative_matrix_of_letters(_reduced_letters(word, c), c)


def element_of_reduced_word(word, c: CartanMatrix) -> WeylElement:
    """The element a word spells, after checking that the word is reduced
    by comparing its length with the exact length of that element.  The
    one reducedness check of the package."""
    letters = tuple(word)
    e = element_of_word(letters, c)
    if e.length != len(letters):
        raise NotReduced(f"word {letters} is not reduced")
    return e


def _reduced_letters(word, c: CartanMatrix) -> tuple[int, ...]:
    """The word's letters, checked to be reduced."""
    letters = tuple(word)
    element_of_reduced_word(letters, c)
    return letters


def relative_matrix_of_letters(letters: tuple[int, ...], c: CartanMatrix) -> RelativeCartanMatrix:
    """The relative matrix of a word the caller has already checked to be
    reduced (_reduced_letters checks it)."""
    k = len(letters)
    rows = tuple(
        tuple(
            -c.pairing(letters[b], letters[a]) if a < b else 0
            for b in range(k)
        )
        for a in range(k)
    )
    return RelativeCartanMatrix(k, rows)
